"""The runtime sanitizer layer: SPMD emulation diagnostics, the
VirtualComm schedule observer, the numerics tripwires in the real drivers
(armed through ``Instrumentation(numerics=...)``), and the contract of the
disabled path: no frame of ``repro/sanitize`` is entered.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

from repro.core.ldc import LDCOptions, make_global_grid, run_ldc
from repro.dft.scf import SCFOptions, run_scf
from repro.observability import Instrumentation
from repro.observe import OFF
from repro.parallel.comm import VirtualComm
from repro.sanitize import (
    CollectiveMismatchError,
    CollectiveScheduleSanitizer,
    DeadlockError,
    NumericsError,
    NumericsSanitizer,
    Sanitizers,
    run_spmd,
)
from repro.systems import dimer

LDC_OPTS = LDCOptions(ecut=4.0, tol=1e-3, max_iter=3, domains=(1, 1, 1))
SCF_OPTS = SCFOptions(ecut=4.0, tol=1e-3, max_iter=4)


def h2():
    return dimer("H", "H", 1.5, 12.0)


# -- SPMD emulation ----------------------------------------------------------


def test_spmd_happy_path_collectives_and_p2p():
    def fn(comm, rank):
        seen = comm.bcast(rank * 10.0, root=2)
        total = comm.allreduce(1.0)
        if rank == 0:
            comm.send(1, "payload")
            got = None
        else:
            got = comm.recv(0) if rank == 1 else None
        return seen, total, got

    results = run_spmd(fn, 3)
    assert results == [
        (20.0, 3.0, None), (20.0, 3.0, "payload"), (20.0, 3.0, None)
    ]


def test_spmd_divergence_names_both_ranks_and_sites():
    """The acceptance case: seeded rank-divergence becomes an immediate
    diagnostic naming the divergent ranks, not a silent hang."""

    def fn(comm, rank):
        if rank == 0:
            return comm.bcast(1.0, root=0)
        return comm.allreduce(1.0)

    with pytest.raises(CollectiveMismatchError) as exc:
        run_spmd(fn, 2, timeout=5.0)
    msg = str(exc.value)
    assert "schedule divergence" in msg
    assert "bcast" in msg and "allreduce" in msg
    assert "rank 0" in msg and "rank 1" in msg
    assert "test_sanitize.py" in msg  # call sites point at user code


def test_spmd_skipped_collective_becomes_deadlock_diagnostic():
    def fn(comm, rank):
        if rank == 1:
            return None  # skips the collective entirely
        return comm.allreduce(float(rank))

    with pytest.raises(DeadlockError) as exc:
        run_spmd(fn, 3, timeout=0.3)
    msg = str(exc.value)
    assert "deadlock" in msg
    assert "rank(s) [1]" in msg
    assert "already returned without entering" in msg


def test_spmd_unmatched_recv_becomes_deadlock_diagnostic():
    def fn(comm, rank):
        if rank == 1:
            return comm.recv(0)  # rank 0 never sends
        return None

    with pytest.raises(DeadlockError) as exc:
        run_spmd(fn, 2, timeout=0.3)
    assert "unmatched point-to-point pair" in str(exc.value)


def test_spmd_split_creates_working_subcommunicators():
    def fn(comm, rank):
        sub = comm.split(rank % 2)
        return sub.allreduce(float(rank)), sub.size

    results = run_spmd(fn, 4)
    # colors {0: ranks 0+2, 1: ranks 1+3}
    assert results == [(2.0, 2), (4.0, 2), (2.0, 2), (4.0, 2)]


def test_spmd_incongruent_payloads_name_the_odd_rank():
    # same nbytes class (32 B) so the schedule signature matches; the
    # shape congruence check is what must catch the divergent rank
    def fn(comm, rank):
        value = np.zeros((2, 2) if rank == 2 else 4)
        return comm.allreduce(value)

    with pytest.raises(CollectiveMismatchError) as exc:
        run_spmd(fn, 3)
    msg = str(exc.value)
    assert "incongruent payloads" in msg
    assert "rank 2" in msg and "ndarray(2, 2)" in msg


# -- VirtualComm schedule observer -------------------------------------------


def test_virtualcomm_observer_checks_root_bounds():
    san = CollectiveScheduleSanitizer()
    comm = Sanitizers(collective=san).wrap_comm(VirtualComm(4))
    comm.bcast([1, 2, 3, 4], root=3)  # fine
    with pytest.raises(CollectiveMismatchError) as exc:
        comm.bcast([1, 2, 3, 4], root=-1)
    assert "root=-1" in str(exc.value)
    assert san.ledger[0].kind == "bcast"


def test_virtualcomm_observer_checks_payload_congruence():
    comm = VirtualComm(3, sanitizer=CollectiveScheduleSanitizer())
    values = [np.zeros(4), np.zeros(4), np.zeros((2, 2))]
    with pytest.raises(CollectiveMismatchError) as exc:
        comm.allreduce(values)
    msg = str(exc.value)
    assert "rank 2" in msg and "ndarray(2, 2)" in msg


def test_virtualcomm_observer_propagates_through_split():
    san = CollectiveScheduleSanitizer()
    comm = VirtualComm(4, sanitizer=san)
    subs = comm.split([0, 0, 1, 1])
    sub = subs[0]
    assert sub.sanitizer is san
    sub.barrier()
    assert [e.kind for e in san.ledger] == ["split", "barrier"]


# -- a clean run under every sanitizer ------------------------------------------


def test_parallel_ldc_run_passes_under_full_sanitizers():
    """A two-domain LDC solve with every sanitizer armed: a clean run
    stays clean (no false positives) and the checkpoints fire."""
    san = Sanitizers.all()
    result = run_ldc(
        h2(),
        LDCOptions(ecut=4.0, tol=1e-3, max_iter=3, domains=(2, 1, 1)),
        instrumentation=Instrumentation(numerics=san.numerics),
    )
    assert np.isfinite(result.energy)
    assert san.numerics.checks > 0


# -- numerics tripwires in the real drivers ----------------------------------


def test_nan_in_density_update_is_caught_in_run_ldc():
    cfg = h2()
    grid = make_global_grid(cfg, LDC_OPTS)
    rho0 = np.full(grid.shape, 0.01)
    rho0[0, 0, 0] = np.nan
    armed = Instrumentation(numerics=NumericsSanitizer())
    with pytest.raises(NumericsError) as exc:
        run_ldc(cfg, LDC_OPTS, rho0=rho0, instrumentation=armed)
    msg = str(exc.value)
    assert "'rho0'" in msg and "ldc.init" in msg
    assert "NaN/Inf" in msg


def test_nan_in_density_update_is_caught_in_run_scf():
    cfg = h2()
    armed = Instrumentation(numerics=NumericsSanitizer())
    ok = run_scf(cfg, SCF_OPTS, instrumentation=armed)  # clean run passes
    assert ok.iterations > 0 and armed.numerics.checks > 0
    rho0 = np.full_like(ok.density, 0.01)
    rho0[0, 0, 0] = np.inf
    with pytest.raises(NumericsError):
        run_scf(cfg, SCF_OPTS, rho0=rho0, instrumentation=armed)


def test_numerics_collect_mode_records_instead_of_raising():
    san = NumericsSanitizer(mode="collect")
    san.check("rho", np.array([1.0, np.nan]), where="test")
    san.check("psi", np.ones(4, dtype=np.float32), expect_dtype=np.float64)
    assert len(san.events) == 2
    assert "dtype demotion" in san.events[1]


def test_numerics_demotion_rules():
    san = NumericsSanitizer()
    with pytest.raises(NumericsError):
        san.check("psi", np.ones(2, dtype=np.float64),
                  expect_dtype=np.complex128)
    san.check("rho", np.ones(2, dtype=np.float64), expect_dtype=np.float32)
    san.check("n", np.ones(2, dtype=np.int64), expect_dtype=np.int64)


# -- spec parsing -------------------------------------------------------------


def test_from_spec_off_values_return_none():
    for spec in ("", "0", "off", "none", "false", "  OFF  "):
        assert Sanitizers.from_spec(spec) is None


def test_from_spec_all_and_subsets():
    full = Sanitizers.from_spec("1")
    assert full.collective and full.numerics
    subset = Sanitizers.from_spec("numerics")
    assert subset.collective is None
    assert subset.numerics is not None
    with pytest.raises(ValueError):
        Sanitizers.from_spec("collective,typo")
    # the race sanitizer went with the thread fan-out it guarded
    with pytest.raises(ValueError, match="unknown sanitizer.*race"):
        Sanitizers.from_spec("race")
    assert not hasattr(full, "race")


# -- the zero-overhead contract ----------------------------------------------


def _count_sanitize_calls(fn):
    """Calls entering ``repro/sanitize`` modules during ``fn()``."""
    needle = os.sep + "sanitize" + os.sep
    counts = {"sanitize": 0, "total": 0}

    def profiler(frame, event, arg):
        if event == "call":
            counts["total"] += 1
            if needle in frame.f_code.co_filename:
                counts["sanitize"] += 1

    sys.setprofile(profiler)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return counts, result


def test_disabled_path_executes_zero_sanitizer_code():
    # OFF, not None: off whatever REPRO_SANITIZE the surrounding CI job
    # exported
    cfg = h2()
    counts, result = _count_sanitize_calls(
        lambda: run_ldc(cfg, LDC_OPTS, instrumentation=OFF)
    )
    assert counts["total"] > 0  # the profiler actually saw the run
    assert counts["sanitize"] == 0
    counts, _ = _count_sanitize_calls(
        lambda: run_scf(cfg, SCF_OPTS, instrumentation=OFF)
    )
    assert counts["sanitize"] == 0
    assert result.iterations > 0


def test_enabled_path_does_enter_sanitizer_code():
    """Sanity check that the counter would catch regressions."""
    cfg = h2()
    armed = Instrumentation(numerics=NumericsSanitizer())
    counts, _ = _count_sanitize_calls(
        lambda: run_ldc(cfg, LDC_OPTS, instrumentation=armed)
    )
    assert counts["sanitize"] > 0
    assert armed.numerics.checks > 0
