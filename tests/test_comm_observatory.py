"""The communication & scaling observatory end to end.

Covers the tentpole contract of the comm-profiling PR:

* :func:`profile_events` decomposes every synchronizing charge into
  *wait* (clock alignment to the laggard) vs *transfer* time, and its
  per-rank totals reconcile with ``CostTracker.elapsed()`` exactly;
* the critical path walks the rank timelines and names the laggard;
* the Chrome-trace export round-trips through the ``--comm`` /
  ``--critical-path`` report views;
* ``run_parallel_ldc`` wires it all up when instrumented — including the
  ``vm.phase`` divergence invariant (green on stock LPT scheduling, FAIL
  on an artificially skewed assignment) — and stays observability-free
  when not.
"""

import json
import sys

import numpy as np
import pytest

from repro.core.ldc import LDCOptions
from repro.core.parallel_ldc import run_parallel_ldc
from repro.observability import (
    Instrumentation,
    critical_path,
    critical_path_from_tracker,
    measured_efficiency,
    profile_events,
)
from repro.observability.cost_trace import chrome_events_from_cost_tracker
from repro.observability.critpath import events_from_chrome, phase_summary
from repro.observability.health import CollectingAlertSink, HealthMonitor
from repro.parallel.scheduler import schedule_manual
from repro.parallel.trace import CostTracker
from repro.systems import dimer

LDC_OPTS = LDCOptions(ecut=5.0, domains=(2, 1, 1), buffer=2.0, tol=1e-5)


def _skewed_tracker():
    """3 ranks, phase-stamped: rank 1 is the laggard everywhere."""
    t = CostTracker(3)
    with t.phase("solve"):
        t.charge_compute([0], 1.0, label="domain")
        t.charge_compute([1], 3.0, label="domain")
        t.charge_compute([2], 2.0, label="domain")
    with t.phase("reduce"):
        t.charge_collective(None, 0.5, nbytes=300.0, label="allreduce")
    return t


def test_profiler_decomposes_wait_vs_transfer():
    t = _skewed_tracker()
    prof = profile_events(t.events, 3)
    # waits: ranks align to the laggard (rank 1 at 3.0)
    assert prof.wait.tolist() == pytest.approx([2.0, 0.0, 1.0])
    assert prof.transfer.tolist() == pytest.approx([0.5] * 3)
    assert prof.compute.tolist() == pytest.approx([1.0, 3.0, 2.0])
    assert prof.bytes_total == 300.0
    reduce = prof.by_phase()["reduce"]
    assert reduce["wait_s"] == pytest.approx(3.0)
    assert reduce["laggard"] == 1  # the rank everyone waited on
    assert prof.wait_fraction() == pytest.approx(3.0 / 10.5)


def test_reconciliation_is_exact():
    """compute + wait + transfer per rank == the virtual clocks."""
    t = CostTracker(3)
    rng = np.random.default_rng(7)
    for i in range(20):
        r = int(rng.integers(0, 3))
        t.charge_compute([r], float(rng.uniform(0.1, 2.0)), label="c")
        if i % 3 == 0:
            t.charge_collective(None, 0.1, nbytes=64.0, label="g")
        if i % 5 == 0:
            t.charge_p2p(0, 2, 0.05, nbytes=8.0)
    prof = profile_events(t.events, 3)
    np.testing.assert_allclose(prof.totals_per_rank(), t.clocks, rtol=1e-12)
    assert prof.reconcile(t) < 1e-12


def test_critical_path_identifies_laggard_chain():
    t = _skewed_tracker()
    segments = critical_path_from_tracker(t)
    # path: rank 1's 3.0 s solve, then the collective it gated
    assert [s.rank for s in segments] == [1, 1]
    assert [s.phase for s in segments] == ["solve", "reduce"]
    assert segments[0].seconds == pytest.approx(3.0)
    assert segments[-1].t_end == pytest.approx(t.elapsed())
    summary = phase_summary(segments)
    assert summary["solve"]["laggard"] == 1
    eff = measured_efficiency(t)
    assert eff["elapsed_s"] == pytest.approx(3.5)
    assert eff["efficiency"] == pytest.approx(6.0 / 10.5)


def test_critical_path_hops_between_ranks():
    t = CostTracker(2)
    t.charge_compute([0], 2.0, label="a")   # rank 0 ahead
    t.charge_collective(None, 0.1, label="g1")
    t.charge_compute([1], 3.0, label="b")   # now rank 1 gates
    t.charge_collective(None, 0.1, label="g2")
    segments = critical_path_from_tracker(t)
    assert [s.rank for s in segments] == [0, 0, 1, 1]
    assert [s.label for s in segments] == ["a", "g1", "b", "g2"]
    # the path is gapless and spans the whole run
    for prev, nxt in zip(segments, segments[1:]):
        assert nxt.t_start == pytest.approx(prev.t_end)
    assert segments[-1].t_end == pytest.approx(t.elapsed())


def test_chrome_round_trip_preserves_event_log():
    t = _skewed_tracker()
    chrome = chrome_events_from_cost_tracker(t)
    events, nranks = events_from_chrome(chrome)
    assert nranks == 3
    assert len(events) == len(t.events)
    for orig, rebuilt in zip(t.events, events):
        assert rebuilt.kind == orig.kind
        assert rebuilt.label == orig.label
        assert rebuilt.phase == orig.phase
        assert rebuilt.nbytes == orig.nbytes
        assert rebuilt.rank_starts == pytest.approx(orig.rank_starts)
        if orig.rank_arrivals is not None:
            assert rebuilt.waits() == pytest.approx(orig.waits())
    # profiling the reconstruction matches profiling the original
    assert profile_events(events, 3).to_dict() == \
        profile_events(t.events, 3).to_dict()


def test_wait_bars_are_marked():
    t = _skewed_tracker()
    bars = [
        e for e in chrome_events_from_cost_tracker(t) if e.get("cat") == "wait"
    ]
    # two ranks waited on the collective -> two wait bars
    assert len(bars) == 2
    assert all(e["name"].endswith("(wait)") for e in bars)


def test_report_comm_and_critical_path_views(tmp_path, capsys):
    from repro.observability.report import main as report_main

    t = _skewed_tracker()
    ins = Instrumentation()
    ins.attach_cost_tracker(t)
    trace = tmp_path / "trace.json"
    ins.write_trace(trace)

    assert report_main([str(trace), "--comm"]) == 0
    out = capsys.readouterr().out
    assert "solve" in out and "reduce" in out
    assert "laggard" in out and "parallel efficiency" in out

    assert report_main([str(trace), "--critical-path"]) == 0
    out = capsys.readouterr().out
    assert "critical path: 2 segments" in out

    # a spans-only trace has no VM lanes: clear error, nonzero exit
    ins2 = Instrumentation()
    with ins2.span("only.spans"):
        pass
    spans_only = tmp_path / "spans.json"
    ins2.write_trace(spans_only)
    assert report_main([str(spans_only), "--comm"]) == 1
    assert "no virtual-machine events" in capsys.readouterr().err


def test_run_parallel_ldc_profiles_and_reconciles(tmp_path):
    cfg = dimer("H", "H", 1.5, 12.0)
    ins = Instrumentation()
    res = run_parallel_ldc(cfg, LDC_OPTS, total_ranks=8, instrumentation=ins)
    prof = profile_events(res.tracker.events, res.total_ranks)
    # acceptance criterion: <1% reconciliation (identity makes it exact)
    assert prof.reconcile(res.tracker) < 1e-2
    assert prof.bytes_total > 0
    assert set(prof.by_phase()) == {"domain", "alltoall", "halo", "tree"}
    # critical path covers the whole predicted run and names laggards
    segments = critical_path(res.tracker.events, res.total_ranks)
    assert segments[-1].t_end == pytest.approx(res.predicted_seconds)
    for agg in phase_summary(segments).values():
        assert 0 <= agg["laggard"] < res.total_ranks
    # the gauges and the comm.json artifact come from the same profile
    assert ins.metrics.get("vm.parallel_efficiency").value == \
        prof.parallel_efficiency()
    paths = ins.write_artifacts(tmp_path)
    assert json.loads(paths["comm"].read_text()) == prof.to_dict()


def test_divergence_green_on_stock_fail_on_skewed_schedule():
    cfg = dimer("H", "H", 1.5, 12.0)

    hm = HealthMonitor(keep_ok=True)
    alerts = CollectingAlertSink()
    hm.add_sink(alerts)
    run_parallel_ldc(
        cfg, LDC_OPTS, total_ranks=8,
        instrumentation=Instrumentation(health=hm),
    )
    vm_recs = [r for r in hm.records if r.invariant == "model_divergence"]
    assert vm_recs and all(r.status == "ok" for r in vm_recs)
    assert not alerts.records

    hm2 = HealthMonitor(keep_ok=True)
    alerts2 = CollectingAlertSink()
    hm2.add_sink(alerts2)
    # both domains piled onto group 0: measured laggard time is ~2x the
    # balanced model -> drift ~1.0 -> FAIL
    run_parallel_ldc(
        cfg, LDC_OPTS, total_ranks=8,
        instrumentation=Instrumentation(health=hm2),
        schedule=schedule_manual([0, 0], 2),
    )
    failures = [a for a in alerts2.records if a.invariant == "model_divergence"]
    assert failures and failures[0].status == "fail"
    assert failures[0].context["phase"] == "domain"


def test_schedule_injection_validates_group_count():
    cfg = dimer("H", "H", 1.5, 12.0)
    with pytest.raises(ValueError, match="groups"):
        run_parallel_ldc(
            cfg, LDC_OPTS, total_ranks=8,
            schedule=schedule_manual([0, 0, 1], 3),
        )


def test_uninstrumented_parallel_ldc_never_enters_observability():
    """Zero-overhead contract extends to the virtual-machine driver: with
    instrumentation=None no observability code runs, the profile included."""
    cfg = dimer("H", "H", 1.5, 12.0)
    counts = {"observability": 0, "total": 0}

    def profiler(frame, event, arg):
        if event == "call":
            counts["total"] += 1
            if "observability" in frame.f_code.co_filename:
                counts["observability"] += 1

    sys.setprofile(profiler)
    try:
        res = run_parallel_ldc(cfg, LDC_OPTS, total_ranks=8)
    finally:
        sys.setprofile(None)
    assert counts["total"] > 0
    assert counts["observability"] == 0
    assert res.tracker.events  # the log is there for a later profile
