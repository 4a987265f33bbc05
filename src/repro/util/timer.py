"""The wall clock the tracer, the health monitor and the profilers read."""

from __future__ import annotations

import time


class WallClock:
    """Monotonic wall clock; injectable for deterministic tests."""

    def now(self) -> float:
        return time.perf_counter()
