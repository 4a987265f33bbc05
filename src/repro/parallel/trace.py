"""Per-rank virtual clocks and the event trace.

Every compute section or communication primitive executed through the
virtual machine is *charged* here: compute advances the participating
ranks' clocks, a synchronizing collective first aligns the participants to
their maximum (the laggard defines the cost — exactly how real bulk-
synchronous codes behave), then adds the collective's modeled time.

``elapsed()`` (max over clocks) is the predicted wall-clock of the run, and
the event log supports per-label breakdowns like the paper's I/O accounting
(Sec. 4.2).  :attr:`CostTracker.events` is the one record of a run: each
event keeps its participants' virtual start/end times, which is all the
Chrome-trace rank lanes (:mod:`repro.observability.cost_trace`) need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class TraceEvent:
    kind: str
    ranks: tuple[int, ...] | None  # None = all ranks
    seconds: float
    nbytes: float = 0.0
    label: str = ""
    #: per-participant virtual start/end times (aligned with the expanded
    #: rank list), recorded at charge time so the event log can be rendered
    #: as a per-rank timeline (Chrome trace) without replaying the run
    rank_starts: tuple[float, ...] | None = None
    rank_ends: tuple[float, ...] | None = None

    def participants(self, nranks: int) -> tuple[int, ...]:
        """Concrete rank list (expands the ``None`` = all-ranks shorthand)."""
        return tuple(range(nranks)) if self.ranks is None else self.ranks


class CostTracker:
    """Virtual clocks for ``nranks`` simulated ranks."""

    def __init__(self, nranks: int) -> None:
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        self.nranks = nranks
        self.clocks = np.zeros(nranks)
        self.events: list[TraceEvent] = []

    # -- charging -----------------------------------------------------------

    def charge_compute(self, ranks, seconds: float, label: str = "compute") -> None:
        """Advance the given ranks' clocks by a compute duration."""
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        idx = self._as_index(ranks)
        starts = tuple(float(t) for t in np.atleast_1d(self.clocks[idx]))
        self.clocks[idx] += seconds
        ends = tuple(t + seconds for t in starts)
        self.events.append(
            TraceEvent(
                "compute", self._key(ranks), seconds, 0.0, label,
                rank_starts=starts, rank_ends=ends,
            )
        )

    def charge_collective(
        self, ranks, seconds: float, nbytes: float = 0.0, label: str = "collective"
    ) -> None:
        """Synchronize the participants, then advance all of them."""
        idx = self._as_index(ranks)
        arrivals = tuple(float(t) for t in np.atleast_1d(self.clocks[idx]))
        sync = max(arrivals) if arrivals else 0.0
        n = len(arrivals)
        self.clocks[idx] = sync + seconds
        self.events.append(
            TraceEvent(
                "collective", self._key(ranks), seconds, nbytes, label,
                rank_starts=(sync,) * n, rank_ends=(sync + seconds,) * n,
            )
        )

    # -- queries ------------------------------------------------------------------

    def elapsed(self) -> float:
        """Predicted wall-clock so far (slowest rank)."""
        return float(np.max(self.clocks))

    def imbalance(self) -> float:
        """Relative load imbalance: (max - mean)/max (0 = perfect)."""
        mx = np.max(self.clocks)
        if mx <= 0:
            return 0.0
        return float((mx - np.mean(self.clocks)) / mx)

    def total_by_label(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for e in self.events:
            out[e.label] = out.get(e.label, 0.0) + e.seconds
        return out

    def total_bytes(self) -> float:
        return float(sum(e.nbytes for e in self.events))

    # -- helpers -------------------------------------------------------------------

    def _as_index(self, ranks):
        if ranks is None:
            return slice(None)
        return np.asarray(list(ranks), dtype=int)

    def _key(self, ranks):
        if ranks is None:
            return None
        return tuple(int(r) for r in ranks)
