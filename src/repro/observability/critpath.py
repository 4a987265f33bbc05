"""Critical-path extraction over the virtual machine's rank timelines.

In a bulk-synchronous run the predicted wall-clock is set by one chain of
dependent work: compute on some rank, a synchronizing collective whose cost
the *laggard* (last-arriving) rank defines, compute on possibly another
rank, and so on.  This module walks a :class:`~repro.parallel.trace.TraceEvent`
log backwards along exactly that chain:

1. start from the rank holding the final clock maximum;
2. walk its timeline backwards, attributing each busy segment;
3. at a synchronizing event, jump to the participant that arrived last
   (the rank whose clock defined the sync point) and continue there.

The resulting segment list covers the whole elapsed time (idle gaps on the
critical rank cannot exist: the walk always continues on the rank that was
last busy), so its per-phase totals *are* the measured critical-path
decomposition — the quantity the closed-form scaling models of
:mod:`repro.perfmodel.scaling` predict for Figs. 5-6.

The walker also runs on an exported Chrome trace: the cost-trace adapter
stamps every virtual-machine slice with ``seq``/``kind``/``phase``/``wait``
args, and :func:`events_from_chrome` reconstructs the event log from them,
so ``python -m repro.observability.report <trace> --critical-path`` needs
only the trace artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from repro.parallel.trace import CostTracker, TraceEvent


@dataclass(frozen=True)
class CriticalSegment:
    """One busy interval on the critical path."""

    rank: int
    label: str
    phase: str
    kind: str
    t_start: float
    t_end: float
    #: wait (clock-alignment) seconds contained in this segment — zero for
    #: compute and for the laggard of a synchronizing event
    wait: float = 0.0

    @property
    def seconds(self) -> float:
        return self.t_end - self.t_start


def critical_path(
    events: Sequence[TraceEvent], nranks: int
) -> list[CriticalSegment]:
    """The chain of segments that sets the run's elapsed time.

    Returns segments ordered by time (earliest first).  Events must be in
    charge order (as the tracker records them).
    """
    if nranks < 1:
        raise ValueError("nranks must be >= 1")
    # Forward replay: per-rank timeline of (event index, arrival, start, end).
    timeline: list[list[tuple[int, float, float, float]]] = [
        [] for _ in range(nranks)
    ]
    for ei, e in enumerate(events):
        ranks = e.participants(nranks)
        starts = e.rank_starts
        ends = e.rank_ends
        if starts is None or ends is None:
            continue  # legacy event without recorded times
        arrivals = e.rank_arrivals or starts
        for r, arr, t0, t1 in zip(ranks, arrivals, starts, ends):
            timeline[int(r)].append((ei, float(arr), float(t0), float(t1)))

    ends_per_rank = [
        (tl[-1][3] if tl else 0.0) for tl in timeline
    ]
    if not any(tl for tl in timeline):
        return []
    rank = int(np.argmax(ends_per_rank))
    pos = len(timeline[rank]) - 1
    segments: list[CriticalSegment] = []
    while pos >= 0:
        ei, arrival, start, end = timeline[rank][pos]
        e = events[ei]
        if e.kind == "compute":
            segments.append(
                CriticalSegment(
                    rank, e.label, e.phase, e.kind, start, end
                )
            )
            pos -= 1
            continue
        # Synchronizing event: the segment on the *laggard* covers
        # [its arrival == sync, end] with zero wait; jump there.
        ranks = e.participants(len(timeline))
        arrivals = e.rank_arrivals or ((start,) * len(ranks))
        lag_i = int(np.argmax(arrivals))
        lag_rank = int(ranks[lag_i])
        segments.append(
            CriticalSegment(
                lag_rank, e.label, e.phase, e.kind,
                float(arrivals[lag_i]), end,
            )
        )
        if lag_rank != rank:
            rank = lag_rank
            pos = _position_before(timeline[rank], ei)
        else:
            pos -= 1
    segments.reverse()
    return segments


def _position_before(
    rank_timeline: list[tuple[int, float, float, float]], event_index: int
) -> int:
    """Index of the last timeline entry charged before ``event_index``."""
    for pos in range(len(rank_timeline) - 1, -1, -1):
        if rank_timeline[pos][0] < event_index:
            return pos
    return -1


def critical_path_from_tracker(tracker: CostTracker) -> list[CriticalSegment]:
    return critical_path(tracker.events, tracker.nranks)


# -- aggregate views ----------------------------------------------------------


def phase_summary(
    segments: Iterable[CriticalSegment],
) -> dict[str, dict[str, Any]]:
    """Per-phase critical-path accounting.

    ``laggard`` is the rank carrying the most critical-path seconds of the
    phase — the rank the others effectively wait for.
    """
    out: dict[str, dict[str, Any]] = {}
    for seg in segments:
        agg = out.setdefault(seg.phase, {
            "seconds": 0.0, "compute_s": 0.0, "comm_s": 0.0,
            "segments": 0, "_rank_seconds": {},
        })
        agg["seconds"] += seg.seconds
        if seg.kind == "compute":
            agg["compute_s"] += seg.seconds
        else:
            agg["comm_s"] += seg.seconds
        agg["segments"] += 1
        rs = agg["_rank_seconds"]
        rs[seg.rank] = rs.get(seg.rank, 0.0) + seg.seconds
    for agg in out.values():
        rs = agg.pop("_rank_seconds")
        agg["laggard"] = max(rs, key=lambda r: rs[r]) if rs else -1
    return out


def measured_efficiency(tracker: CostTracker) -> dict[str, float]:
    """Whole-run measured scaling quantities from an executed tracker.

    ``efficiency`` is useful-compute rank-seconds over total rank-seconds
    (elapsed × nranks) — the measured counterpart of the Fig. 5 parallel
    efficiency; ``critical_comm_fraction`` is the share of the critical
    path spent in communication or waiting.
    """
    elapsed = tracker.elapsed()
    total = elapsed * tracker.nranks
    compute = sum(
        e.seconds * len(e.participants(tracker.nranks))
        for e in tracker.events
        if e.kind == "compute"
    )
    segments = critical_path_from_tracker(tracker)
    comm_on_path = sum(s.seconds for s in segments if s.kind != "compute")
    return {
        "elapsed_s": elapsed,
        "efficiency": compute / total if total > 0 else 1.0,
        "imbalance": tracker.imbalance(),
        "critical_comm_fraction": (
            comm_on_path / elapsed if elapsed > 0 else 0.0
        ),
    }


# -- chrome-trace reconstruction ----------------------------------------------


def events_from_chrome(
    chrome_events: Iterable[dict[str, Any]], pid: int | None = None
) -> tuple[list[TraceEvent], int]:
    """Rebuild a (event log, nranks) pair from exported VM trace slices.

    Accepts the slices written by
    :func:`repro.observability.cost_trace.chrome_events_from_cost_tracker`,
    which stamp ``args.seq`` (charge order), ``args.kind``, ``args.phase``
    and ``args.wait`` on every per-rank event.  Wait bars (``cat ==
    "wait"``) are visual only and skipped here.
    """
    groups: dict[int, dict[str, Any]] = {}
    nranks = 0
    for e in chrome_events:
        if e.get("ph") != "X":
            continue
        if pid is not None and e.get("pid") != pid:
            continue
        args = e.get("args") or {}
        if "seq" not in args or e.get("cat") == "wait":
            continue
        seq = int(args["seq"])
        rank = int(e.get("tid", 0))
        nranks = max(nranks, rank + 1)
        g = groups.setdefault(seq, {
            "label": e.get("name", ""),
            "kind": str(args.get("kind", "compute")),
            "phase": str(args.get("phase", "")),
            "nbytes": float(args.get("nbytes", 0.0)),
            "per_rank": {},
        })
        t0 = float(e.get("ts", 0.0)) / 1e6
        t1 = t0 + float(e.get("dur", 0.0)) / 1e6
        g["per_rank"][rank] = (t0, t1, float(args.get("wait", 0.0)))
    events: list[TraceEvent] = []
    for seq in sorted(groups):
        g = groups[seq]
        ranks = tuple(sorted(g["per_rank"]))
        starts = tuple(g["per_rank"][r][0] for r in ranks)
        ends = tuple(g["per_rank"][r][1] for r in ranks)
        waits = tuple(g["per_rank"][r][2] for r in ranks)
        seconds = max(
            (t1 - t0 for t0, t1, _ in g["per_rank"].values()), default=0.0
        )
        arrivals = (
            tuple(s - w for s, w in zip(starts, waits))
            if g["kind"] != "compute" else None
        )
        events.append(
            TraceEvent(
                g["kind"], ranks, seconds, g["nbytes"], g["label"],
                rank_starts=starts, rank_ends=ends,
                rank_arrivals=arrivals, phase=g["phase"],
            )
        )
    return events, nranks


# -- rendering ----------------------------------------------------------------


def render_critical_path(
    segments: Sequence[CriticalSegment], top: int | None = None
) -> str:
    """Fixed-width critical-path listing plus the per-phase summary."""
    if not segments:
        return "critical path is empty (no timed events)"
    total = segments[-1].t_end - segments[0].t_start
    lines = [
        f"{'phase':<12} {'label':<14} {'rank':>5} {'start[s]':>12} "
        f"{'end[s]':>12} {'dur[s]':>12} {'% path':>7}"
    ]
    lines.append("-" * len(lines[0]))
    shown = segments if top is None else segments[:top]
    for seg in shown:
        pct = 100.0 * seg.seconds / total if total > 0 else 0.0
        lines.append(
            f"{seg.phase or '-':<12} {seg.label:<14} {seg.rank:>5} "
            f"{seg.t_start:>12.6f} {seg.t_end:>12.6f} "
            f"{seg.seconds:>12.6f} {pct:>7.2f}"
        )
    if top is not None and len(segments) > top:
        lines.append(f"... ({len(segments) - top} more segments)")
    lines.append("")
    lines.append(
        f"{'phase':<12} {'path[s]':>12} {'compute[s]':>12} "
        f"{'comm[s]':>12} {'laggard':>8}"
    )
    lines.append("-" * len(lines[-1]))
    for phase, agg in phase_summary(segments).items():
        lines.append(
            f"{phase or '-':<12} {agg['seconds']:>12.6f} "
            f"{agg['compute_s']:>12.6f} {agg['comm_s']:>12.6f} "
            f"{agg['laggard']:>8d}"
        )
    lines.append("")
    lines.append(f"critical path: {len(segments)} segments, {total:.6f} s")
    return "\n".join(lines)
