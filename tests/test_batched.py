"""Tests for the domain-batched BLAS3 path: shape-class grouping, stacked
kernel parity against the per-domain path, telemetry/FLOP attribution of
``ldc.batched_solve`` spans, and the ``batch_domains`` option plumbing."""

import numpy as np
import pytest

from repro.core import LDCOptions, run_ldc
from repro.core.batched import (
    ENV_FLAG,
    batching_enabled,
    group_shape_classes,
)
from repro.dft.basis import PlaneWaveBasis
from repro.dft.eigensolver import solve_all_band, solve_all_band_batched
from repro.dft.grid import RealSpaceGrid
from repro.dft.hamiltonian import BatchedHamiltonian, Hamiltonian
from repro.observability import Instrumentation
from repro.observability.costattr import estimate_event_flops
from repro.systems.configuration import Configuration

OPTS = dict(ecut=4.0, domains=(2, 1, 1), buffer=2.0, tol=1e-6, max_iter=30)


def h4_chain(shift: float = 0.0) -> Configuration:
    return Configuration(
        symbols=["H", "H", "H", "H"],
        positions=np.array(
            [
                [2.0, 2.5, 2.5],
                [3.5, 2.5, 2.5],
                [6.0 + shift, 2.5, 2.5],
                [7.5, 2.5, 2.5],
            ]
        ),
        cell=np.array([10.0, 5.0, 5.0]),
    )


# -- one transform library ------------------------------------------------------


def test_scipy_fft_namespace_matches_numpy_transforms():
    """The stacked kernels used to transform through ``scipy.fft``; they now
    call the ``np.fft`` 1-D stage transforms the per-domain kernels use.
    SciPy's build of pocketfft is the oracle: same result to rounding on
    every stage axis, written through ``out=`` or in place."""
    scipy_fft = pytest.importorskip("scipy.fft")
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 6, 5, 7)) + 1j * rng.standard_normal(
        (4, 6, 5, 7)
    )
    for axis in (1, 2, 3):
        for ours, oracle in ((np.fft.ifft, scipy_fft.ifft),
                             (np.fft.fft, scipy_fft.fft)):
            ref = oracle(a, axis=axis)
            out = np.empty_like(a)
            assert ours(a, axis=axis, out=out) is out
            assert np.abs(out - ref).max() <= 1e-13
            inplace = a.copy()
            ours(inplace, axis=axis, out=inplace)
            assert np.abs(inplace - ref).max() <= 1e-13


# -- option plumbing ----------------------------------------------------------


def test_batch_domains_requires_all_band_solver():
    with pytest.raises(ValueError, match="all_band"):
        LDCOptions(**OPTS, eigensolver="direct", batch_domains=True)


def test_batching_enabled_resolution(monkeypatch):
    monkeypatch.delenv(ENV_FLAG, raising=False)
    assert not batching_enabled(LDCOptions(**OPTS))
    assert batching_enabled(LDCOptions(**OPTS, batch_domains=True))
    monkeypatch.setenv(ENV_FLAG, "1")
    assert batching_enabled(LDCOptions(**OPTS))
    # explicit False beats the environment
    assert not batching_enabled(LDCOptions(**OPTS, batch_domains=False))
    # env-resolved requests fall back silently for non-all_band solvers
    assert not batching_enabled(LDCOptions(**OPTS, eigensolver="direct"))
    # ... and for an explicitly configured thread fan-out; in-code
    # batch_domains=True still wins over ldc_workers
    assert not batching_enabled(LDCOptions(**OPTS, ldc_workers=4))
    assert batching_enabled(
        LDCOptions(**OPTS, ldc_workers=4, batch_domains=True)
    )


# -- shape-class grouping -----------------------------------------------------


def test_shape_classes_group_equal_domains():
    r = run_ldc(h4_chain(), LDCOptions(**OPTS))
    classes = group_shape_classes(list(r.states))
    assert len(classes) == 1
    assert classes[0].members == [0, 1]
    key = classes[0].key
    assert key.npw == r.states[0].basis.npw
    assert key.nband == r.states[0].nband


def test_shape_classes_split_on_band_count():
    # shift=1.2 migrates an atom: domains end with different band counts
    r = run_ldc(h4_chain(shift=1.2), LDCOptions(**OPTS))
    nbands = {s.nband for s in r.states}
    assert len(nbands) == 2
    classes = group_shape_classes(list(r.states))
    assert len(classes) == 2
    assert sorted(m for c in classes for m in c.members) == [0, 1]


# -- stacked kernel parity ----------------------------------------------------


def _toy_problem(nd: int, nband: int = 3, nproj: int = 2, seed: int = 5):
    grid = RealSpaceGrid([6.0, 5.0, 5.0], (10, 9, 9))
    basis = PlaneWaveBasis(grid, ecut=4.0)
    rng = np.random.default_rng(seed)
    v_eff = rng.standard_normal((nd,) + grid.shape)
    b = rng.standard_normal((nd, basis.npw, nproj)) + 1j * rng.standard_normal(
        (nd, basis.npw, nproj)
    )
    d = rng.standard_normal((nd, nproj))
    psi = rng.standard_normal((nd, basis.npw, nband)) + 1j * (
        rng.standard_normal((nd, basis.npw, nband))
    )
    return basis, v_eff, b, d, psi


def test_batched_apply_matches_per_domain_apply():
    basis, v_eff, b, d, psi = _toy_problem(nd=3)
    bham = BatchedHamiltonian(basis, v_eff, b, d)
    out = bham.apply(psi)
    for i in range(3):
        # the serial Hamiltonian applies the nonlocal term through
        # NonlocalProjectors; reproduce its arithmetic directly here
        ham = Hamiltonian(basis, v_eff[i])
        ref = ham.apply(psi[i])
        ref += b[i] @ (d[i][:, None] * (b[i].conj().T @ psi[i]))
        assert np.abs(out[i] - ref).max() <= 1e-12


def test_batched_solver_matches_serial_solver():
    basis, v_eff, b, d, psi = _toy_problem(nd=3)
    # make the potentials tamer so both solvers converge quickly
    v_eff = 0.1 * v_eff
    bham = BatchedHamiltonian(basis, v_eff, b, d)
    batched = solve_all_band_batched(bham, psi, max_iter=40, tol=1e-8)
    for i in range(3):
        ham = Hamiltonian(basis, v_eff[i])
        ham_b, ham_d = b[i], d[i]

        class _VNL:
            nproj = ham_b.shape[1]

            @staticmethod
            def apply(block):
                return ham_b @ (ham_d[:, None] * (ham_b.conj().T @ block))

        ham.vnl = _VNL()
        serial = solve_all_band(ham, psi[i], max_iter=40, tol=1e-8)
        assert batched[i].iterations == serial.iterations
        assert np.abs(
            batched[i].eigenvalues - serial.eigenvalues
        ).max() <= 1e-10


def test_batched_run_matches_serial_run():
    cfg = h4_chain()
    serial = run_ldc(cfg, LDCOptions(**OPTS))
    batched = run_ldc(cfg, LDCOptions(**OPTS, batch_domains=True))
    assert serial.converged and batched.converged
    assert abs(batched.energy - serial.energy) <= 1e-10
    assert abs(batched.mu - serial.mu) <= 1e-10
    assert np.abs(batched.density - serial.density).max() <= 1e-10


def test_mixed_shape_classes_still_match_serial():
    cfg = h4_chain(shift=1.2)  # two classes: nband differs across domains
    serial = run_ldc(cfg, LDCOptions(**OPTS))
    batched = run_ldc(cfg, LDCOptions(**OPTS, batch_domains=True))
    assert serial.converged and batched.converged
    assert abs(batched.energy - serial.energy) <= 1e-10
    assert np.abs(batched.density - serial.density).max() <= 1e-10


# -- telemetry & FLOP attribution ---------------------------------------------


def test_batched_pass_emits_spans_and_counters():
    ins = Instrumentation()
    run_ldc(
        h4_chain(), LDCOptions(**OPTS, batch_domains=True),
        instrumentation=ins,
    )
    assert ins.tracer.count("ldc.batched_solve") > 0
    solves = ins.metrics.get("eigensolver.solves", solver="all_band")
    assert solves is not None and solves.value > 0
    span = next(
        s for s in ins.tracer.spans() if s.name == "ldc.batched_solve"
    )
    for key in ("n_domains", "npw", "nband", "nproj", "grid_points",
                "cg_iterations"):
        assert key in span.attrs
    assert span.attrs["n_domains"] == 2


def test_batched_span_flop_attribution():
    ins = Instrumentation()
    run_ldc(
        h4_chain(), LDCOptions(**OPTS, batch_domains=True),
        instrumentation=ins,
    )
    span = next(
        s for s in ins.tracer.spans() if s.name == "ldc.batched_solve"
    )
    flops = estimate_event_flops("ldc.batched_solve", span.attrs)
    assert flops is not None and flops > 0
    # a 2-domain class must cost more than one domain's worth of the same
    # iterations but less than naively double-counting the iteration terms
    single = estimate_event_flops(
        "ldc.domain_solve", dict(span.attrs, n_domains=1)
    )
    assert single is not None and single < flops < 2 * single
    # the span names the staged transform's line counts; without them the
    # estimator falls back to crediting dense 3-D transforms
    dense = dict(span.attrs)
    assert len(dense.pop("fft_stages")) == 3
    assert estimate_event_flops("ldc.batched_solve", dense) > flops
