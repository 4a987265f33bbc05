"""Edge-case tests for the virtual machine's event trace (CostTracker)."""

import json

import numpy as np
import pytest

from repro.observability.cost_trace import (
    COST_TRACE_PID,
    chrome_events_from_cost_tracker,
)
from repro.observability.report import phase_breakdown
from repro.parallel.trace import CostTracker, TraceEvent


def test_zero_duration_events_are_recorded_but_free():
    t = CostTracker(3)
    t.charge_compute([0], 0.0, label="noop")
    t.charge_collective(None, 0.0, label="barrier")
    assert t.elapsed() == 0.0
    assert len(t.events) == 2
    assert t.total_by_label() == {"noop": 0.0, "barrier": 0.0}


def test_ranks_none_collective_synchronizes_all():
    t = CostTracker(4)
    t.charge_compute([2], 5.0, label="slow")
    t.charge_collective(None, 1.0, nbytes=64.0, label="allreduce")
    # the laggard (rank 2) defines the sync point for everyone
    assert np.allclose(t.clocks, 6.0)
    ev = t.events[-1]
    assert ev.ranks is None
    assert ev.participants(t.nranks) == (0, 1, 2, 3)
    assert ev.rank_starts == (5.0,) * 4
    assert ev.rank_ends == (6.0,) * 4


def test_elapsed_after_interleaved_compute_and_collectives():
    t = CostTracker(2)
    t.charge_compute([0], 2.0)            # clocks: [2, 0]
    t.charge_collective([0, 1], 1.0)      # sync to 2, +1 -> [3, 3]
    t.charge_compute([1], 4.0)            # [3, 7]
    t.charge_collective([0, 1], 0.5)      # sync to 7, +0.5 -> [7.5, 7.5]
    t.charge_compute(None, 1.0)           # [8.5, 8.5]
    assert t.elapsed() == pytest.approx(8.5)
    assert t.imbalance() == pytest.approx(0.0)


def test_negative_compute_rejected():
    t = CostTracker(1)
    with pytest.raises(ValueError):
        t.charge_compute([0], -1.0)


def test_rank_start_end_recording_per_kind():
    t = CostTracker(2)
    t.charge_compute([0, 1], 1.0, label="c")
    t.charge_compute([0], 2.0, label="extra")
    t.charge_collective([0, 1], 0.5, nbytes=8.0)
    c, extra, coll = t.events
    assert c.rank_starts == (0.0, 0.0) and c.rank_ends == (1.0, 1.0)
    assert extra.rank_starts == (1.0,) and extra.rank_ends == (3.0,)
    # the collective waits for the laggard (rank 0 busy until 3.0)
    assert coll.rank_starts == (3.0, 3.0)
    assert coll.rank_ends == (3.5, 3.5)


def test_chrome_trace_round_trip(tmp_path):
    t = CostTracker(3)
    t.charge_compute([0, 1], 1.5, label="domain")
    t.charge_collective(None, 0.5, nbytes=100.0, label="tree")
    t.charge_collective([1, 2], 0.25, label="halo")

    trace = {"traceEvents": chrome_events_from_cost_tracker(t)}
    path = tmp_path / "vm_trace.json"
    path.write_text(json.dumps(trace))
    loaded = json.loads(path.read_text())

    slices = [e for e in loaded["traceEvents"] if e["ph"] == "X"]
    # one slice per (event, participant): 2 + 3 + 2
    assert len(slices) == 7
    assert all(e["pid"] == COST_TRACE_PID for e in slices)
    # per-label totals in the trace match the tracker's accounting,
    # scaled by participant count (one lane per rank)
    by_label = {}
    for e in slices:
        by_label[e["name"]] = by_label.get(e["name"], 0.0) + e["dur"] / 1e6
    assert by_label["domain"] == pytest.approx(2 * 1.5)
    assert by_label["tree"] == pytest.approx(3 * 0.5)
    assert by_label["halo"] == pytest.approx(2 * 0.25)
    # the report CLI's aggregation accepts the exported trace: one row per
    # label (rank 2's idle time before the tree is a gap, not a row)
    breakdown = phase_breakdown(loaded["traceEvents"], pid=COST_TRACE_PID)
    assert set(breakdown) == {"domain", "tree", "halo"}
    # wall extent of the trace equals the tracker's predicted elapsed time
    t1 = max(e["ts"] + e["dur"] for e in slices)
    t0 = min(e["ts"] for e in slices)
    assert (t1 - t0) / 1e6 == pytest.approx(t.elapsed())


def test_chrome_trace_names_rank_lanes():
    t = CostTracker(2)
    t.charge_compute(None, 1.0)
    meta = [
        e for e in chrome_events_from_cost_tracker(t) if e["ph"] == "M"
    ]
    names = {e["args"]["name"] for e in meta}
    assert "rank 0" in names and "rank 1" in names


def test_legacy_event_without_times_exports_at_origin():
    t = CostTracker(2)
    t.events.append(TraceEvent("compute", (0,), 2.0, label="legacy"))
    events = [
        e for e in chrome_events_from_cost_tracker(t) if e["ph"] == "X"
    ]
    (ev,) = events
    assert ev["ts"] == 0.0
    assert ev["dur"] == pytest.approx(2e6)


def test_empty_event_log_elapsed_and_imbalance_are_zero():
    t = CostTracker(4)
    assert t.events == []
    assert t.elapsed() == 0.0
    assert t.imbalance() == 0.0
    assert t.total_by_label() == {}
    assert t.total_bytes() == 0.0


def test_single_rank_tracker_edge_cases():
    t = CostTracker(1)
    t.charge_compute([0], 2.0, label="solo")
    # a single-rank collective synchronizes trivially: no wait, no skew
    t.charge_collective([0], 0.5, nbytes=8.0, label="self")
    assert t.elapsed() == pytest.approx(2.5)
    assert t.imbalance() == 0.0
    ev = t.events[-1]
    assert ev.rank_starts == (2.0,) and ev.rank_ends == (2.5,)


def test_all_ranks_none_shorthand_in_elapsed_and_imbalance():
    t = CostTracker(3)
    t.charge_compute(None, 1.0, label="uniform")
    assert t.elapsed() == pytest.approx(1.0)
    assert t.imbalance() == 0.0
    t.charge_compute([0], 3.0, label="skew")
    # clocks [4, 1, 1]: imbalance (4 - 2)/4
    assert t.imbalance() == pytest.approx(0.5)
    ev = t.events[0]
    assert ev.ranks is None and ev.rank_starts == (0.0,) * 3


def test_collective_arrivals_decompose_wait_and_transfer():
    t = CostTracker(3)
    t.charge_compute([0], 4.0)
    t.charge_compute([1], 1.0)
    arrivals = t.clocks.copy()
    t.charge_collective(None, 0.5, nbytes=24.0, label="allreduce")
    ev = t.events[-1]
    # every participant starts at the laggard's (rank 0's) clock; the others
    # wait — the gap before the collective in their lanes
    assert ev.rank_starts == (4.0,) * 3
    waits = [start - arrival for start, arrival in zip(ev.rank_starts, arrivals)]
    assert waits == [0.0, 3.0, 4.0]
    # accounting identity per rank: compute + wait + transfer == clock
    for r, wait in enumerate(waits):
        assert arrivals[r] + wait + ev.seconds == pytest.approx(float(t.clocks[r]))
