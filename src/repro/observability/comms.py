"""Per-rank communication profiling for the virtual parallel machine.

The cost model (PRs before this one) predicted where parallel time *should*
go; this module measures where it *does* go in an executed run.
:func:`profile_events` folds a :class:`~repro.parallel.trace.CostTracker`'s
event log into a :class:`CommProfiler` after the run.  Using the tracker's
align-to-laggard semantics, each synchronizing collective decomposes
exactly into

* **wait** — the clock alignment each rank spends blocked until the laggard
  arrives (``sync − arrival``, from :attr:`TraceEvent.rank_arrivals`), and
* **transfer** — the modeled communication time proper (``event.seconds``);

compute charges accumulate as **compute**.  The three per-rank accumulators
reconcile *exactly* with the tracker's virtual clocks::

    compute[r] + wait[r] + transfer[r] == tracker.clocks[r]

so ``max`` over the totals is :meth:`CostTracker.elapsed` — the accounting
identity the report CLI's ``--comm`` table rests on.

Aggregation is per *phase* (the labels stamped by
:meth:`CostTracker.phase`, reusing span-label names) and per collective
*kind* (the charge label: ``allreduce``, ``halo``, ``tree``, ...).  From
these the profiler derives the Fig. 5/6 quantities from measurements
instead of the closed-form model: per-phase parallel efficiency
(compute / total rank-seconds), load imbalance ((max−mean)/max of per-rank
busy time), and the laggard rank everyone else waits for.

The profiler is plain data + arithmetic: no clocks are read and nothing is
imported from the engine, so the same log read back from an exported trace
(:func:`repro.observability.critpath.events_from_chrome`) gives the same
profile.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

if TYPE_CHECKING:
    from repro.parallel.trace import CostTracker, TraceEvent


class PhaseCommStats:
    """Accumulated communication accounting for one (phase, label) cell."""

    __slots__ = ("kind", "calls", "nbytes", "compute", "wait", "transfer")

    def __init__(self, nranks: int, kind: str) -> None:
        self.kind = kind
        self.calls = 0
        self.nbytes = 0.0
        self.compute = np.zeros(nranks)
        self.wait = np.zeros(nranks)
        self.transfer = np.zeros(nranks)

    def seconds(self) -> float:
        """Total rank-seconds accumulated in this cell."""
        return float(
            self.compute.sum() + self.wait.sum() + self.transfer.sum()
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "calls": self.calls,
            "nbytes": self.nbytes,
            "compute_s": [float(v) for v in self.compute],
            "wait_s": [float(v) for v in self.wait],
            "transfer_s": [float(v) for v in self.transfer],
        }


class CommProfiler:
    """Communication accounting of a :class:`CostTracker` event log (built
    by :func:`profile_events`).

    Parameters
    ----------
    nranks:
        Width of the per-rank accumulators (the tracker's rank count).
    """

    def __init__(self, nranks: int) -> None:
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        self.nranks = nranks
        #: per-rank totals over the whole run
        self.compute = np.zeros(nranks)
        self.wait = np.zeros(nranks)
        self.transfer = np.zeros(nranks)
        self.bytes_total = 0.0
        self.calls_total = 0
        #: fine-grained accounting keyed by (phase, charge label)
        self.cells: dict[tuple[str, str], PhaseCommStats] = {}

    def record(self, event: "TraceEvent") -> None:
        """Account one charged event."""
        ranks = list(event.participants(self.nranks))
        if any(r >= self.nranks for r in ranks):
            raise ValueError(
                f"event touches rank >= profiler width {self.nranks}"
            )
        cell = self._cell(event.phase, event.label, event.kind)
        cell.calls += 1
        self.calls_total += 1
        idx = np.asarray(ranks, dtype=int)
        if event.kind == "compute":
            cell.compute[idx] += event.seconds
            self.compute[idx] += event.seconds
            return
        waits = event.waits()
        if waits is not None:
            w = np.asarray(waits)
            cell.wait[idx] += w
            self.wait[idx] += w
        cell.transfer[idx] += event.seconds
        self.transfer[idx] += event.seconds
        cell.nbytes += event.nbytes
        self.bytes_total += event.nbytes

    # -- accounting identities -------------------------------------------------

    def totals_per_rank(self) -> np.ndarray:
        """compute + wait + transfer per rank (== tracker clocks)."""
        return self.compute + self.wait + self.transfer

    def reconcile(self, tracker: "CostTracker") -> float:
        """Max relative gap between profiled totals and the virtual clocks.

        0 (to roundoff) when the profiler saw every charge — the accounting
        identity behind the ``--comm`` table.
        """
        totals = self.totals_per_rank()
        scale = max(float(np.max(tracker.clocks)), 1e-300)
        return float(np.max(np.abs(totals - tracker.clocks)) / scale)

    # -- aggregate views -------------------------------------------------------

    def phases(self) -> list[str]:
        seen: dict[str, None] = {}
        for phase, _ in self.cells:
            seen.setdefault(phase, None)
        return list(seen)

    def by_phase(self) -> dict[str, dict[str, Any]]:
        """Per-phase totals: the measured Fig. 5/6 quantities.

        ``efficiency`` is useful-compute over total rank-seconds;
        ``imbalance`` is (max−mean)/max over per-rank busy (compute) time —
        0 when no compute was charged in the phase.
        """
        out: dict[str, dict[str, Any]] = {}
        for (phase, _), cell in self.cells.items():
            agg = out.setdefault(phase, {
                "compute": np.zeros(self.nranks),
                "wait": np.zeros(self.nranks),
                "transfer": np.zeros(self.nranks),
                "nbytes": 0.0,
                "calls": 0,
            })
            agg["compute"] = agg["compute"] + cell.compute
            agg["wait"] = agg["wait"] + cell.wait
            agg["transfer"] = agg["transfer"] + cell.transfer
            agg["nbytes"] += cell.nbytes
            # "calls" counts communication events only; compute charges are
            # already reflected in compute_s
            if cell.kind != "compute":
                agg["calls"] += cell.calls
        for phase, agg in out.items():
            compute, wait, transfer = (
                agg["compute"], agg["wait"], agg["transfer"]
            )
            busy_max = float(compute.max())
            total = float(compute.sum() + wait.sum() + transfer.sum())
            agg["compute_s"] = float(compute.sum())
            agg["wait_s"] = float(wait.sum())
            agg["transfer_s"] = float(transfer.sum())
            agg["efficiency"] = (
                float(compute.sum()) / total if total > 0 else 1.0
            )
            agg["imbalance"] = (
                (busy_max - float(compute.mean())) / busy_max
                if busy_max > 0 else 0.0
            )
            # The laggard is the rank others align to: with synchronizing
            # charges in the phase it is the one that waited least; in a
            # pure-compute phase, the most loaded rank.
            if float(wait.sum()) > 0.0:
                agg["laggard"] = int(np.argmin(wait))
            else:
                agg["laggard"] = int(np.argmax(compute + transfer))
        return out

    def by_kind(self) -> dict[str, dict[str, float]]:
        """Per collective-kind totals (calls, bytes, transfer/wait seconds)."""
        out: dict[str, dict[str, float]] = {}
        for (_, label), cell in self.cells.items():
            if cell.kind == "compute":
                continue
            agg = out.setdefault(label, {
                "calls": 0, "nbytes": 0.0, "transfer_s": 0.0, "wait_s": 0.0,
            })
            agg["calls"] += cell.calls
            agg["nbytes"] += cell.nbytes
            agg["transfer_s"] += float(cell.transfer.sum())
            agg["wait_s"] += float(cell.wait.sum())
        return out

    def wait_fraction(self) -> float:
        """Laggard-induced wait as a fraction of all rank-seconds."""
        total = float(self.totals_per_rank().sum())
        return float(self.wait.sum()) / total if total > 0 else 0.0

    def parallel_efficiency(self) -> float:
        """Whole-run measured efficiency: compute / total rank-seconds."""
        total = float(self.totals_per_rank().sum())
        return float(self.compute.sum()) / total if total > 0 else 1.0

    # -- export ----------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable dump (the ``comm.json`` artifact payload)."""
        phases = {}
        for phase, agg in self.by_phase().items():
            phases[phase or "(unphased)"] = {
                "compute_s": agg["compute_s"],
                "wait_s": agg["wait_s"],
                "transfer_s": agg["transfer_s"],
                "nbytes": agg["nbytes"],
                "calls": agg["calls"],
                "efficiency": agg["efficiency"],
                "imbalance": agg["imbalance"],
                "laggard": agg["laggard"],
            }
        return {
            "nranks": self.nranks,
            "calls": self.calls_total,
            "nbytes": self.bytes_total,
            "compute_s": [float(v) for v in self.compute],
            "wait_s": [float(v) for v in self.wait],
            "transfer_s": [float(v) for v in self.transfer],
            "wait_fraction": self.wait_fraction(),
            "parallel_efficiency": self.parallel_efficiency(),
            "by_phase": phases,
            "by_kind": self.by_kind(),
        }

    # -- internals -------------------------------------------------------------

    def _cell(self, phase: str, label: str, kind: str) -> PhaseCommStats:
        key = (phase, label)
        cell = self.cells.get(key)
        if cell is None:
            cell = self.cells[key] = PhaseCommStats(self.nranks, kind)
        return cell


def profile_events(
    events: Iterable["TraceEvent"], nranks: int
) -> CommProfiler:
    """The profile of a recorded event log — the one way a
    :class:`CommProfiler` is built."""
    profiler = CommProfiler(nranks)
    for event in events:
        profiler.record(event)
    return profiler
