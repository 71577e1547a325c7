"""Order statistics used by the benchmark and its comparator."""

from __future__ import annotations

import math
import statistics

#: a tail percentile is reported only with this many samples beyond it
MIN_BEYOND = 10


def supports(n: int, q: float) -> bool:
    """Whether ``n`` samples support the ``q``-th percentile."""
    return n - math.ceil(q / 100.0 * n) >= MIN_BEYOND


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Raises ``ValueError`` unless at least :data:`MIN_BEYOND` samples lie
    beyond it, so a tail figure always rests on a tail of samples.
    """
    n = len(values)
    if not supports(n, q):
        raise ValueError(
            f"p{q:g} of {n} samples needs {MIN_BEYOND} samples beyond it"
        )
    return sorted(values)[max(1, math.ceil(q / 100.0 * n)) - 1]


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as
    ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf

