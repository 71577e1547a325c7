"""Wall-clock timing helpers shared by the observability layer.

:class:`Stopwatch` is the cumulative timer the span machinery builds on.
"""

from __future__ import annotations

import time

__all__ = ["Stopwatch"]


class Stopwatch:
    """A simple cumulative wall-clock timer.

    >>> sw = Stopwatch()
    >>> with sw:
    ...     pass
    >>> sw.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._started: float | None = None

    def start(self) -> None:
        if self._started is not None:
            raise RuntimeError("stopwatch already running")
        self._started = time.perf_counter()

    def stop(self) -> float:
        if self._started is None:
            raise RuntimeError("stopwatch is not running")
        delta = time.perf_counter() - self._started
        self.elapsed += delta
        self._started = None
        return delta

    def reset(self) -> None:
        self.elapsed = 0.0
        self._started = None

    def __enter__(self) -> "Stopwatch":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
