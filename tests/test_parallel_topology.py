"""Tests for the torus/tree topology cost models."""

import pytest

from repro.parallel.topology import TorusTopology, TreeTopology, torus_for


# ---- torus ---------------------------------------------------------------------

def test_torus_node_count():
    t = TorusTopology((4, 4, 4, 4, 2))
    assert t.nnodes == 512


def test_coordinates_roundtrip():
    t = TorusTopology((3, 4, 5))
    seen = set()
    for r in range(t.nnodes):
        c = t.coordinates(r)
        assert all(0 <= x < d for x, d in zip(c, t.dims))
        seen.add(c)
    assert len(seen) == t.nnodes


def test_coordinates_out_of_range():
    t = TorusTopology((2, 2))
    with pytest.raises(ValueError):
        t.coordinates(4)


def test_hops_wraparound():
    t = TorusTopology((8,))
    assert t.hops(0, 7) == 1  # wraps
    assert t.hops(0, 4) == 4
    assert t.hops(3, 3) == 0


def test_max_hops():
    t = TorusTopology((8, 8))
    assert t.max_hops() == 8


def test_p2p_time_monotonic_in_size():
    t = TorusTopology((8,))
    assert t.p2p_time(1e6) > t.p2p_time(1e3)


def test_allreduce_log_depth():
    t = TorusTopology((1024,))
    t1 = t.allreduce_time(1e4, 2)
    t10 = t.allreduce_time(1e4, 1024)
    # 1024 ranks = 10 doublings → 10× the 2-rank (1 level) cost
    assert t10 == pytest.approx(10 * t1, rel=1e-9)


def test_allreduce_single_rank_free():
    t = TorusTopology((4,))
    assert t.allreduce_time(1e6, 1) == 0.0


def test_alltoall_grows_with_ranks():
    t = TorusTopology((64,))
    assert t.alltoall_time(1e3, 64) > t.alltoall_time(1e3, 8)


def test_torus_for_builds_valid():
    for n in (1, 2, 16, 1024, 96 * 1024):
        t = torus_for(n)
        assert t.nnodes == n


# ---- tree ----------------------------------------------------------------------

def test_tree_depth():
    tr = TreeTopology(branching=8)
    assert tr.depth(1) == 0
    assert tr.depth(8) == 1
    assert tr.depth(64) == 2
    assert tr.depth(786_432) == 7


def test_tree_volume_geometrically_bounded():
    """The metascalability condition: total tree volume ≤ (8/7)·leaf."""
    tr = TreeTopology(branching=8)
    leaf = 1e6
    total = tr.total_volume(leaf, 8**7)
    assert total < leaf * 8.0 / 7.0 + 1e-6


def test_tree_sweep_time_log_growth():
    """Doubling machine size adds only O(1) per 8× — near-flat weak scaling."""
    tr = TreeTopology(branching=8)
    t_small = tr.sweep_time(1e4, 8)
    t_huge = tr.sweep_time(1e4, 8**7)
    assert t_huge < 10 * t_small


def test_vcycle_twice_sweep():
    tr = TreeTopology()
    assert tr.vcycle_time(1e4, 64) == pytest.approx(2 * tr.sweep_time(1e4, 64))
