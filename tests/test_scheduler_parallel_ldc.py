"""Tests for the domain scheduler and the simulated-parallel LDC executor."""

import numpy as np
import pytest

from repro.core import LDCOptions
from repro.core.parallel_ldc import run_parallel_ldc
from repro.parallel.scheduler import (
    domain_cost_estimate,
    schedule_domains,
    schedule_lpt,
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
