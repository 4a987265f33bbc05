"""Chrome-trace export for the virtual machine's :class:`CostTracker`.

The simulated-rank event log records, at charge time, each participant's
virtual start/end times (:attr:`TraceEvent.rank_starts` /
:attr:`TraceEvent.rank_ends`).  This module renders that log as Chrome
``trace_event`` complete events — one timeline lane (``tid``) per simulated
rank, under a dedicated ``pid`` — so predicted rank timelines and *real*
wall-clock spans from the :class:`~repro.observability.tracer.SpanTracer`
render side by side in one ``chrome://tracing`` / Perfetto view.

Every slice is stamped with the args the communication observatory needs
to rebuild the event log from the trace alone (``python -m
repro.observability.report <trace> --comm`` / ``--critical-path``):

* ``seq`` — the event's charge-order index (slices of one collective share
  it, so per-event quantities like bytes are not multi-counted);
* ``kind`` / ``phase`` — the charge kind and the algorithmic phase label;
* ``wait`` — for synchronizing events, this rank's clock-alignment seconds
  (sync point − arrival), the laggard-wait half of the decomposition.

A positive wait is also rendered as its own bar (``cat="wait"``, spanning
arrival → sync) so Perfetto shows blocked time explicitly.
"""

from __future__ import annotations

from typing import Any

#: pid for simulated-rank lanes (real spans use tracer.TRACE_PID = 1)
COST_TRACE_PID = 2


def chrome_events_from_cost_tracker(tracker) -> list[dict[str, Any]]:
    """One ``"X"`` event per (event, participating rank) plus one per
    positive wait, µs units, under :data:`COST_TRACE_PID`."""
    pid = COST_TRACE_PID
    events: list[dict[str, Any]] = []
    for seq, e in enumerate(tracker.events):
        ranks = e.participants(tracker.nranks)
        starts = e.rank_starts
        ends = e.rank_ends
        if starts is None or ends is None:
            # Legacy event without recorded times: place at t=0.
            starts = (0.0,) * len(ranks)
            ends = (e.seconds,) * len(ranks)
        waits = e.waits() or (0.0,) * len(ranks)
        for rank, t0, t1, wait in zip(ranks, starts, ends, waits):
            events.append(
                {
                    "name": e.label,
                    "cat": e.kind,
                    "ph": "X",
                    "ts": t0 * 1e6,
                    "dur": (t1 - t0) * 1e6,
                    "pid": pid,
                    "tid": int(rank),
                    "args": {
                        "kind": e.kind,
                        "nbytes": e.nbytes,
                        "phase": e.phase,
                        "seq": seq,
                        "wait": wait,
                    },
                }
            )
            if wait > 0.0:
                events.append(
                    {
                        "name": f"{e.label} (wait)",
                        "cat": "wait",
                        "ph": "X",
                        "ts": (t0 - wait) * 1e6,
                        "dur": wait * 1e6,
                        "pid": pid,
                        "tid": int(rank),
                        "args": {
                            "kind": "wait",
                            "phase": e.phase,
                            "seq": seq,
                            "label": e.label,
                        },
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

