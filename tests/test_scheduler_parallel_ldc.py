"""Tests for the domain scheduler and the simulated-parallel LDC executor."""

import sys

import numpy as np
import pytest

from repro.core import LDCOptions
from repro.core.parallel_ldc import run_parallel_ldc
from repro.observability import Instrumentation, phase_breakdown
from repro.parallel.scheduler import (
    domain_cost_estimate,
    schedule_domains,
    schedule_lpt,
    schedule_manual,
    schedule_round_robin,
)
from repro.systems import dimer


# ---- scheduler ----------------------------------------------------------------

def test_cost_estimate_scaling():
    assert domain_cost_estimate(10, nu=2.0) == 100.0
    assert domain_cost_estimate(10, nu=3.0) == 1000.0


def test_lpt_beats_round_robin_on_skewed_loads():
    costs = [100, 1, 1, 1, 100, 1, 1, 1]
    rr = schedule_round_robin(costs, 2)
    lpt = schedule_lpt(costs, 2)
    assert lpt.imbalance <= rr.imbalance


def test_lpt_perfect_balance_on_equal_loads():
    s = schedule_lpt([5.0] * 8, 4)
    assert s.imbalance == pytest.approx(0.0)
    np.testing.assert_allclose(s.loads, 10.0)


def test_every_domain_assigned():
    s = schedule_lpt([3, 1, 4, 1, 5, 9, 2, 6], 3)
    assigned = sorted(sum((s.domains_in_group(g) for g in range(3)), []))
    assert assigned == list(range(8))


def test_loads_sum_preserved():
    costs = [3.0, 1.0, 4.0, 1.0, 5.0]
    s = schedule_lpt(costs, 2)
    assert s.loads.sum() == pytest.approx(sum(costs))


def test_scheduler_validation():
    with pytest.raises(ValueError):
        schedule_lpt([1.0], 0)
    with pytest.raises(ValueError):
        schedule_lpt([-1.0], 2)
    with pytest.raises(ValueError):
        schedule_domains([1, 2], 0)


def test_single_group_takes_all():
    s = schedule_domains([4, 8, 2], 1)
    assert s.domains_in_group(0) == [0, 1, 2]


# ---- parallel LDC executor --------------------------------------------------------

@pytest.fixture(scope="module")
def parallel_run():
    h2 = dimer("H", "H", 1.5, 12.0)
    opts = LDCOptions(ecut=5.0, domains=(2, 1, 1), buffer=2.0, tol=1e-5)
    return h2, opts, run_parallel_ldc(h2, opts, total_ranks=8)


def test_parallel_physics_matches_serial(parallel_run):
    from repro.core import run_ldc

    h2, opts, pr = parallel_run
    serial = run_ldc(h2, opts)
    assert pr.result.energy == pytest.approx(serial.energy, abs=1e-8)


def test_parallel_predicts_positive_time(parallel_run):
    _, _, pr = parallel_run
    assert pr.predicted_seconds > 0
    assert set(pr.breakdown) == {"domain", "alltoall", "tree", "halo"}
    assert pr.breakdown["domain"] > 0


def test_parallel_more_ranks_is_faster():
    h2 = dimer("H", "H", 1.5, 12.0)
    opts = LDCOptions(ecut=5.0, domains=(2, 1, 1), buffer=2.0, tol=1e-5)
    t2 = run_parallel_ldc(h2, opts, total_ranks=2).predicted_seconds
    t8 = run_parallel_ldc(h2, opts, total_ranks=8).predicted_seconds
    assert t8 < t2


def test_parallel_metric(parallel_run):
    h2, _, pr = parallel_run
    m = pr.atom_iterations_per_second(len(h2))
    assert m > 0


def test_parallel_validation():
    h2 = dimer("H", "H", 1.5, 12.0)
    with pytest.raises(ValueError):
        run_parallel_ldc(h2, total_ranks=0)


def test_imbalance_bounded(parallel_run):
    _, _, pr = parallel_run
    assert 0.0 <= pr.imbalance < 1.0


# ---- what the virtual machine predicts -----------------------------------------

LDC_OPTS = LDCOptions(ecut=5.0, domains=(2, 1, 1), buffer=2.0, tol=1e-5)

#: (total ranks, group of each domain) per case: stock LPT at 2, 6 and 8
#: ranks, and both H2 domains on group 0 of two (Schedule.imbalance 0.5)
CASES = {2: (2, None), 6: (6, None), 8: (8, None), "skew": (8, [0, 0])}


@pytest.fixture(scope="module")
def vm_runs():
    """One instrumented H2 run per case, made on first use."""
    h2 = dimer("H", "H", 1.5, 12.0)
    runs = {}

    def run(case):
        if case not in runs:
            ranks, groups = CASES[case]
            ins = Instrumentation()
            res = run_parallel_ldc(
                h2, LDC_OPTS, total_ranks=ranks, instrumentation=ins,
                schedule=None if groups is None else schedule_manual(groups, 2),
            )
            runs[case] = res, ins
        return runs[case]

    return run


def test_imbalance_is_the_schedule_skew(vm_runs):
    """Every pass ends in a collective over all ranks, so the clocks are
    aligned at the end: the imbalance is read off the per-group domain
    seconds, and the gauge carries the same number."""
    for case, expected in ((8, 0.0), ("skew", 0.5)):
        res, ins = vm_runs(case)
        assert res.imbalance == expected, case
        assert ins.metrics.get("vm.imbalance").value == expected
    assert res.schedule.imbalance == pytest.approx(0.5)


@pytest.mark.parametrize("case", list(CASES))
def test_breakdown_sums_to_predicted_seconds(vm_runs, case):
    res, ins = vm_runs(case)
    assert sum(res.breakdown.values()) == pytest.approx(
        res.predicted_seconds, rel=1e-12
    )
    assert ins.metrics.get("vm.predicted_seconds").value == res.predicted_seconds
    assert ins.metrics.get("vm.ranks").value == res.total_ranks
    for phase, seconds in res.breakdown.items():
        assert ins.metrics.get("vm.breakdown", phase=phase).value == seconds


def test_vm_lanes_feed_the_ordinary_report(vm_runs):
    """The rank lanes are plain pid-2 slices: per label, the report's total
    is the tracker's rank-seconds (event seconds × participants)."""
    res, ins = vm_runs(8)
    ins.attach_cost_tracker(res.tracker)
    report = phase_breakdown(ins.to_chrome_trace()["traceEvents"], pid=2)
    charged = {}
    for e in res.tracker.events:
        ranks = len(e.participants(res.total_ranks))
        charged[e.label] = charged.get(e.label, 0.0) + e.seconds * ranks
    assert set(report) == set(charged) == set(res.breakdown)
    for label, seconds in charged.items():
        assert report[label]["seconds"] == pytest.approx(seconds, rel=1e-12)


def test_schedule_injection_validates_group_count():
    cfg = dimer("H", "H", 1.5, 12.0)
    with pytest.raises(ValueError, match="groups"):
        run_parallel_ldc(
            cfg, LDC_OPTS, total_ranks=8,
            schedule=schedule_manual([0, 0, 1], 3),
        )


def test_uninstrumented_parallel_ldc_never_enters_observability():
    """Zero-overhead contract extends to the virtual-machine driver: with
    instrumentation=None no observability code runs."""
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
    assert res.tracker.events  # the log is there for attach_cost_tracker
