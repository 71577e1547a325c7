"""Euclidean-distance clustering baseline.

"Past algorithms are based on the Euclidean distance and cannot be applied
for this setting" — this module implements exactly those past algorithms
(k-medoids / DBSCAN / single-link over straight-line distances between the
objects' interpolated planar positions) so the effectiveness experiments can
show *why* network distance matters: on a network whose weights deviate from
straight-line geometry (rivers, one-way detours, terrain), Euclidean
clustering groups objects that are far apart on the network.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.matrix import DistanceMatrix
from repro.network.points import PointSet

__all__ = ["euclidean_distance_matrix"]


def euclidean_distance_matrix(network, points: PointSet) -> DistanceMatrix:
    """Pairwise straight-line distances between the points' planar positions.

    Requires node coordinates on the network (point positions are linearly
    interpolated along their edges).  The result plugs into every algorithm
    of :mod:`repro.baselines.classic`, giving the Euclidean versions of
    k-medoids, DBSCAN, and single-link.
    """
    ids = sorted(points.point_ids())
    xy = np.empty((len(ids), 2))
    for i, pid in enumerate(ids):
        xy[i] = points.get(pid).coords(network)
    delta = xy[:, None, :] - xy[None, :, :]
    values = np.sqrt((delta ** 2).sum(axis=2))
    return DistanceMatrix(ids, values)
