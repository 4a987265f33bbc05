"""Chrome-trace export for the virtual machine's :class:`CostTracker`.

The simulated-rank event log records, at charge time, each participant's
virtual start/end times (:attr:`TraceEvent.rank_starts` /
:attr:`TraceEvent.rank_ends`).  This module renders that log as Chrome
``trace_event`` complete events — one timeline lane (``tid``) per simulated
rank, under a dedicated ``pid`` — so predicted rank timelines and *real*
wall-clock spans from the :class:`~repro.observability.tracer.SpanTracer`
render side by side in one ``chrome://tracing`` / Perfetto view, and
``python -m repro.observability.report <trace> --pid 2`` totals them per
label.  A rank blocked on a collective shows as the gap before it.
"""

from __future__ import annotations

from typing import Any

#: pid for simulated-rank lanes (real spans use tracer.TRACE_PID = 1)
COST_TRACE_PID = 2


def chrome_events_from_cost_tracker(tracker) -> list[dict[str, Any]]:
    """One ``"X"`` event per (event, participating rank), µs units, under
    :data:`COST_TRACE_PID`."""
    pid = COST_TRACE_PID
    events: list[dict[str, Any]] = []
    for e in tracker.events:
        ranks = e.participants(tracker.nranks)
        starts = e.rank_starts
        ends = e.rank_ends
        if starts is None or ends is None:
            # Legacy event without recorded times: place at t=0.
            starts = (0.0,) * len(ranks)
            ends = (e.seconds,) * len(ranks)
        for rank, t0, t1 in zip(ranks, starts, ends):
            events.append(
                {
                    "name": e.label,
                    "cat": e.kind,
                    "ph": "X",
                    "ts": t0 * 1e6,
                    "dur": (t1 - t0) * 1e6,
                    "pid": pid,
                    "tid": int(rank),
                    "args": {"nbytes": e.nbytes},
                }
            )
    # Name the process and lanes so the viewer reads "virtual machine".
    meta: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "virtual machine (simulated ranks)"},
        }
    ]
    for rank in range(tracker.nranks):
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": int(rank),
                "args": {"name": f"rank {rank}"},
            }
        )
    return meta + events
