"""Tests for the torus/tree topology cost models."""

import pytest

from repro.parallel.topology import TorusTopology, TreeTopology


# ---- torus ---------------------------------------------------------------------

def test_alltoall_grows_with_ranks():
    t = TorusTopology()
    assert t.alltoall_time(1e3, 64) > t.alltoall_time(1e3, 8)


# ---- tree ----------------------------------------------------------------------

def test_tree_depth():
    tr = TreeTopology(branching=8)
    assert tr.depth(1) == 0
    assert tr.depth(8) == 1
    assert tr.depth(64) == 2
    assert tr.depth(786_432) == 7


def test_tree_sweep_time_log_growth():
    """Doubling machine size adds only O(1) per 8× — near-flat weak scaling."""
    tr = TreeTopology(branching=8)
    t_small = tr.sweep_time(1e4, 8)
    t_huge = tr.sweep_time(1e4, 8**7)
    assert t_huge < 10 * t_small


def test_vcycle_twice_sweep():
    tr = TreeTopology()
    assert tr.vcycle_time(1e4, 64) == pytest.approx(2 * tr.sweep_time(1e4, 64))
