"""repro.obs — unified tracing & metrics for the whole library.

The paper's entire evaluation is a cost study: node accesses, page I/O and
runtime of k-medoids vs. ε-Link vs. Single-Link.  This package is the single
place all of those measurements flow through:

* **Counters** — one flat, namespaced registry (``dijkstra.heap_pops``,
  ``storage.physical_reads``, ``kmedoids.swap_iterations``, ...) fed by the
  traversal, clustering and storage layers.
* **Spans** — hierarchical wall-clock timing (``cluster.k-medoids`` →
  ``kmedoids.seed`` / ``kmedoids.swap`` → ...) with
  :mod:`contextvars`-correct nesting and optional JSONL export.
* **Reports** — a printable phase/counter table (the CLI's ``--stats``) and
  a machine-readable *metrics sidecar* consumed by the benchmark report.
* **Live metrics** — log-bucketed latency :class:`Histogram`\\ s and
  callable-backed :class:`Gauge`\\ s (:mod:`repro.obs.metrics`) feeding the
  serve tier's ``{"op": "stats"}`` wire snapshot, the ``--metrics-file``
  JSONL exporter (:mod:`repro.obs.export`), and a Prometheus text renderer.

Everything is off by default and the disabled path is designed to be
invisible: ``span()`` returns a pre-allocated no-op singleton, ``add()`` is
a single flag check, and the hottest traversal loops only run their
instrumented variants when recording is on.

Usage::

    from repro import obs

    obs.enable(trace_path="trace.jsonl")   # or obs.enable() for counters only
    result = EpsLink(net, pts, eps=0.5).run()
    obs.disable()
    print(obs.format_table())
    obs.snapshot()["counters"]["dijkstra.nodes_settled"]
"""

from repro.obs.core import (
    NOOP_SPAN,
    STATE,
    ObsState,
    Span,
    TraceWriter,
    add,
    current_span,
    disable,
    enable,
    is_enabled,
    is_sampled,
    reset,
    sampled,
    span,
)
from repro.obs.export import MetricsExporter
from repro.obs.metrics import (
    REGISTRY,
    Gauge,
    Histogram,
    MetricsRegistry,
    observe,
)
from repro.obs.report import (
    SIDECAR_SCHEMA,
    format_table,
    load_metrics_sidecar,
    render_prometheus,
    snapshot,
    write_metrics_sidecar,
)
from repro.obs.timing import Stopwatch

__all__ = [
    "NOOP_SPAN",
    "REGISTRY",
    "STATE",
    "Gauge",
    "Histogram",
    "MetricsExporter",
    "MetricsRegistry",
    "ObsState",
    "SIDECAR_SCHEMA",
    "Span",
    "Stopwatch",
    "TraceWriter",
    "add",
    "current_span",
    "disable",
    "enable",
    "format_table",
    "is_enabled",
    "is_sampled",
    "load_metrics_sidecar",
    "observe",
    "render_prometheus",
    "reset",
    "sampled",
    "snapshot",
    "span",
    "write_metrics_sidecar",
]
