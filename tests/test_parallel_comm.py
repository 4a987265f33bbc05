"""Tests for the functional simulated MPI (VirtualComm)."""

import numpy as np
import pytest

from repro.parallel.comm import VirtualComm
from repro.parallel.topology import TorusTopology
from repro.parallel.trace import CostTracker


@pytest.fixture()
def comm():
    return VirtualComm(8)


@pytest.fixture()
def traced_comm():
    tracker = CostTracker(8)
    topo = TorusTopology((8,))
    return VirtualComm(8, tracker=tracker, topology=topo), tracker


def test_size_validation():
    with pytest.raises(ValueError):
        VirtualComm(0)


def test_value_count_validation(comm):
    with pytest.raises(ValueError):
        comm.bcast([1, 2, 3])


def test_bcast(comm):
    out = comm.bcast(list(range(8)), root=3)
    assert out == [3] * 8


def test_allreduce_scalars(comm):
    out = comm.allreduce([float(i) for i in range(8)])
    assert out == [28.0] * 8


def test_allreduce_arrays(comm, rng):
    vals = [rng.random(5) for _ in range(8)]
    out = comm.allreduce(vals)
    expected = np.sum(vals, axis=0)
    for o in out:
        np.testing.assert_allclose(o, expected)


def test_allreduce_custom_op(comm):
    out = comm.allreduce(list(range(8)), op=max)
    assert out == [7] * 8


def test_reduce_root_only(comm):
    out = comm.reduce(list(range(8)), root=2)
    assert out[2] == 28
    assert all(out[r] is None for r in range(8) if r != 2)


def test_gather(comm):
    out = comm.gather([10 * r for r in range(8)], root=0)
    assert out[0] == [0, 10, 20, 30, 40, 50, 60, 70]
    assert out[5] is None


def test_allgather(comm):
    out = comm.allgather(list(range(8)))
    assert all(o == list(range(8)) for o in out)


def test_scatter(comm):
    out = comm.scatter([f"c{r}" for r in range(8)])
    assert out == [f"c{r}" for r in range(8)]


def test_alltoall_transpose(comm):
    matrix = [[(src, dst) for dst in range(8)] for src in range(8)]
    out = comm.alltoall(matrix)
    for dst in range(8):
        assert out[dst] == [(src, dst) for src in range(8)]


def test_alltoall_shape_validation(comm):
    with pytest.raises(ValueError):
        comm.alltoall([[1, 2]] * 8)


def test_split_grouping(comm):
    colors = [r % 2 for r in range(8)]
    subs = comm.split(colors)
    assert subs[0].size == 4
    assert subs[0] is subs[2]  # same color shares the object
    assert subs[0] is not subs[1]
    assert subs[1].world_ranks == [1, 3, 5, 7]


def test_split_respects_keys(comm):
    colors = [0] * 8
    keys = list(reversed(range(8)))
    subs = comm.split(colors, keys)
    assert subs[0].world_ranks == list(reversed(range(8)))


def test_split_then_collective(comm):
    """Collectives within a sub-communicator are independent per group —
    the paper's per-domain communicator pattern."""
    colors = [r // 4 for r in range(8)]
    subs = comm.split(colors)
    out0 = subs[0].allreduce([1.0] * 4)
    out1 = subs[4].allreduce([2.0] * 4)
    assert out0 == [4.0] * 4
    assert out1 == [8.0] * 4


def test_rank_in(comm):
    colors = [r % 2 for r in range(8)]
    subs = comm.split(colors)
    assert subs[1].rank_in(5) == 2  # world 5 is index 2 in [1,3,5,7]


def test_collectives_charge_tracker(traced_comm):
    comm, tracker = traced_comm
    comm.allreduce([np.ones(100) for _ in range(8)])
    assert tracker.elapsed() > 0
    labels = tracker.total_by_label()
    assert "allreduce" in labels
    # a sub-communicator from split charges the same tracker, in world ranks
    comm.split([r // 4 for r in range(8)])[4].barrier()
    assert tracker.events[-1].label == "barrier"
    assert tracker.events[-1].ranks == (4, 5, 6, 7)


def test_bcast_synchronizes_clocks(traced_comm):
    comm, tracker = traced_comm
    tracker.charge_compute([0], 5.0)  # rank 0 is the laggard
    comm.barrier()
    # all ranks now at >= 5.0
    assert tracker.clocks.min() >= 5.0


class _Payload:
    """An opaque object with no special sizing rule."""


def test_nbytes_pins_payload_sizing():
    """Pin the _nbytes contract: None is free, dataclasses sum their
    fields, strings/bytes are length-sized, opaque objects hit the
    documented fallback."""
    import dataclasses

    from repro.parallel.comm import _OPAQUE_OBJECT_BYTES, _nbytes

    @dataclasses.dataclass
    class Slab:
        data: np.ndarray
        tag: int
        note: str

    assert _nbytes(None) == 0.0
    assert _nbytes(3) == 8.0
    assert _nbytes(2.5) == 8.0
    assert _nbytes(1 + 2j) == 8.0
    assert _nbytes(np.zeros((4, 5))) == 4 * 5 * 8
    assert _nbytes(b"abcd") == 4.0
    assert _nbytes("héllo") == float(len("héllo".encode("utf-8")))
    assert _nbytes([np.zeros(3), 1.0, None]) == 3 * 8 + 8.0
    # dict payloads size keys AND values ("a"/"b" are 1 UTF-8 byte each)
    assert _nbytes({"a": np.zeros(2), "b": None}) == 18.0
    slab = Slab(data=np.zeros(10), tag=7, note="xy")
    assert _nbytes(slab) == 80.0 + 8.0 + 2.0
    # the dataclass *class* (not an instance) is still opaque
    assert _nbytes(Slab) == _OPAQUE_OBJECT_BYTES
    assert _nbytes(_Payload()) == _OPAQUE_OBJECT_BYTES


def test_nbytes_dict_keys_are_sized():
    """Regression: dict payloads must charge the wire cost of the *keys*
    too — a halo exchange keyed by (large) neighbor tags is not free."""
    from repro.parallel.comm import _nbytes

    values = {"north": np.zeros(4), "south": np.zeros(4)}
    keys_only = float(len(b"north") + len(b"south"))
    assert _nbytes(values) == keys_only + 2 * 4 * 8
    # integer keys are sized like any other scalar (8 bytes each)
    assert _nbytes({0: None, 1: None}) == 16.0
    assert _nbytes({}) == 0.0


def test_reduce_none_entries_cost_nothing():
    """reduce() leaves None on non-root ranks; a second collective over
    that list must not charge phantom bytes for them."""
    from repro.parallel.comm import _nbytes

    comm = VirtualComm(4)
    reduced = comm.reduce([1.0, 2.0, 3.0, 4.0], root=2)
    assert reduced == [None, None, 10.0, None]
    assert _nbytes(reduced) == 8.0


@pytest.mark.parametrize("kind", ["bcast", "reduce", "gather", "scatter",
                                  "allreduce"])
def test_collectives_reject_bad_roots_and_incongruent_payloads(kind):
    """A negative root 'works' through Python indexing and ``np.add``
    broadcasts mismatched shapes: both are a ValueError up front, on the
    world communicator and on a sub-communicator from ``split``."""
    world = VirtualComm(8)
    comm = world.split([0] * 4 + [1] * 4)[0]
    for c in (world, comm):
        call = getattr(c, kind)
        if kind != "allreduce":
            for root in (-1, c.size):
                with pytest.raises(ValueError, match=f"root={root}"):
                    call([1.0] * c.size, root=root)
        if kind in ("reduce", "allreduce"):
            values = [np.zeros(4)] * (c.size - 2) + [np.zeros(4),
                                                    np.zeros((2, 2))]
            with pytest.raises(ValueError, match=rf"rank {c.size - 1} holds \(2, 2\)"):
                call(values)
            mixed = [1.0, np.float64(2.0), 3, 4.0] * (c.size // 4)
            assert call(mixed)[0] == sum(mixed)
