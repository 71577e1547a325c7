"""Loads the benchmark's span wrappers into supervised worker processes.

A traced run puts this directory and ``benchmarks/e2e`` on the
``PYTHONPATH`` its workers inherit, and names the trace directory in
``E2E_TRACE_DIR``; Python imports ``sitecustomize`` at start-up, before
the worker module runs, so the worker binds the wrapped functions.
Without the variable this module does nothing.
"""

import os

if os.environ.get("E2E_TRACE_DIR"):
    import spans

    spans.install_worker(os.environ["E2E_TRACE_DIR"])
