"""Tests for the domain-solve seam: shape-class grouping, the lockstep
solver against the dense oracle, bit-identity between stack widths,
telemetry/FLOP attribution of ``ldc.domain_solve`` spans, and the
``batch_domains`` option plumbing."""

import numpy as np
import pytest

from repro.core import LDCOptions, LDCWorkspace, run_ldc
from repro.core.batched import group_shape_classes
from repro.dft.basis import PlaneWaveBasis
from repro.dft.eigensolver import (
    lobpcg_work_shape,
    solve_all_band,
    solve_all_band_batched,
    solve_direct,
)
from repro.dft.grid import RealSpaceGrid
from repro.dft.hamiltonian import BatchedHamiltonian, Hamiltonian
from repro.observability import Instrumentation
from repro.observability.costattr import estimate_event_flops
from repro.dft.pseudopotential import NonlocalProjectors, local_potential
from repro.systems import dimer
from repro.systems.configuration import Configuration
from repro.systems.lialloy import lial_nanoparticle

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


def test_batch_domains_with_reference_solver_runs_per_domain():
    """``batch_domains`` only sets the all-band stack width; the reference
    solvers run per domain whatever it says (no option conflict to raise)."""
    opts = dict(OPTS, eigensolver="direct", max_iter=4)
    ins = Instrumentation()
    wide = run_ldc(h4_chain(), LDCOptions(**opts, batch_domains=True),
                   instrumentation=ins)
    one = run_ldc(h4_chain(), LDCOptions(**opts, batch_domains=False))
    assert wide.energy == one.energy
    spans = [s for s in ins.tracer.spans() if s.name == "ldc.domain_solve"]
    assert spans and all(s.attrs["n_domains"] == 1 for s in spans)
    assert {s.attrs["domain"] for s in spans} == {0, 1}


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


def _well_problem(nband: int = 4):
    """Three Gaussian wells of growing depth on one basis: the deeper the
    well, the more LOBPCG iterations its slot needs."""
    grid = RealSpaceGrid([6.0, 5.0, 5.0], (10, 9, 9))
    basis = PlaneWaveBasis(grid, ecut=4.0)
    r2 = grid.min_image_distance(np.array([3.0, 2.5, 2.5])) ** 2
    v_eff = np.stack([-depth * np.exp(-r2 / 1.5) for depth in (0.2, 1.5, 6.0)])
    psi = np.stack([basis.random_orbitals(nband, seed=11 + i)
                    for i in range(3)])
    return basis, v_eff, psi


@pytest.mark.parametrize("width", [1, 3])
def test_lockstep_solver_matches_direct_eigenvalues(width):
    """The one all-band solver against the dense oracle, at both stack
    widths, with slots that retire at different iterations."""
    basis, v_eff, psi = _well_problem()
    nband = psi.shape[2]
    results = []
    for lo in range(0, 3, width):
        bham = BatchedHamiltonian(basis, v_eff[lo:lo + width], None, None)
        results += solve_all_band_batched(
            bham, psi[lo:lo + width], max_iter=200, tol=1e-9
        )
    assert len({res.iterations for res in results}) == 3
    for res, v in zip(results, v_eff):
        ref = solve_direct(Hamiltonian(basis, v), nband)
        assert res.converged and res.residual_norm < 1e-9
        assert np.abs(res.eigenvalues - ref.eigenvalues).max() <= 1e-10


def test_lockstep_solver_reports_a_slot_that_ran_out_of_iterations():
    basis, v_eff, psi = _well_problem()
    bham = BatchedHamiltonian(basis, v_eff, None, None)
    full = solve_all_band_batched(bham, psi, max_iter=200, tol=1e-9)
    cap = sorted(res.iterations for res in full)[1]
    capped = solve_all_band_batched(bham, psi, max_iter=cap, tol=1e-9)
    for res, ref in zip(capped, full):
        if ref.iterations <= cap:  # retired in time: the very same result
            assert res.converged and res.iterations == ref.iterations
            assert np.array_equal(res.eigenvalues, ref.eigenvalues)
        else:
            assert not res.converged and res.iterations == cap
            assert np.isfinite(res.residual_norm)
            assert res.residual_norm >= 1e-9
            assert np.all(np.isfinite(res.eigenvalues))
    assert sum(not res.converged for res in capped) == 1


def test_solve_all_band_is_the_width_one_lockstep_solve():
    """``solve_all_band(Hamiltonian)`` and a stack-of-one
    ``solve_all_band_batched`` call return the identical ``EigenResult``."""
    cfg = dimer("Si", "C", 3.3, 8.0)
    grid = RealSpaceGrid(cfg.cell, (12, 12, 12))
    basis = PlaneWaveBasis(grid, ecut=4.0)
    vnl = NonlocalProjectors(basis, cfg)
    assert vnl.nproj > 0
    v = local_potential(grid, cfg)
    psi0 = basis.random_orbitals(6, seed=3)
    densities = np.full((2, psi0.shape[1]) + grid.shape, np.nan)
    one = solve_all_band(
        Hamiltonian(basis, v, vnl), psi0, max_iter=40, tol=1e-8,
        band_densities=densities[0],
    )
    (stacked,) = solve_all_band_batched(
        BatchedHamiltonian(basis, v[None], vnl.b[None], vnl.d[None]),
        psi0[None], max_iter=40, tol=1e-8, band_densities=densities[1:],
    )
    assert one.iterations == stacked.iterations
    assert one.converged == stacked.converged
    assert one.residual_norm == stacked.residual_norm
    assert np.array_equal(one.eigenvalues, stacked.eigenvalues)
    assert np.array_equal(one.orbitals, stacked.orbitals)
    assert np.array_equal(densities[0], densities[1])


@pytest.mark.parametrize("max_iter", [200, 3])
def test_band_densities_do_not_depend_on_the_stack_width(max_iter):
    """Width 1 ≡ width 3, ``==``, on densities, eigenvalues and iteration
    counts, with slots that retire at different iterations (each retirement
    transforms through the shared basis work block while the others are
    still iterating) or all at once when
    the iterations run out; and every density is |to_grid(orbitals)|²."""
    basis, v_eff, psi = _well_problem()
    nd, _, nband = psi.shape
    shape = (nd, nband) + basis.grid.shape
    wide = np.full(shape, np.nan)
    results = solve_all_band_batched(
        BatchedHamiltonian(basis, v_eff, None, None), psi,
        max_iter=max_iter, tol=1e-9, band_densities=wide,
    )
    assert len({res.iterations for res in results}) == (
        3 if max_iter == 200 else 1
    )
    for d, res in enumerate(results):
        narrow = np.full(shape[1:], np.nan)
        one = solve_all_band(
            Hamiltonian(basis, v_eff[d]), psi[d], max_iter=max_iter,
            tol=1e-9, band_densities=narrow,
        )
        assert np.array_equal(wide[d], narrow)
        assert np.array_equal(res.eigenvalues, one.eigenvalues)
        assert res.iterations == one.iterations
        expect = np.abs(basis.to_grid(res.orbitals)) ** 2
        assert np.abs(wide[d] - expect).max() <= 1e-13


def test_retiring_domains_keep_the_bits_of_their_stack_of_one_solves():
    """A stack whose first slot converges well before the others — its
    retirement moves the slots behind it down the lent workspace, then the
    next one's does — with nonlocal projectors and one NaN-filled
    workspace: every domain's orbitals, eigenvalues,
    residual and densities are ``==`` those of its own stack-of-one solve
    in its own workspace."""
    basis, _, _ = _well_problem()
    rng = np.random.default_rng(9)
    r2 = basis.grid.min_image_distance(np.array([3.0, 2.5, 2.5])) ** 2
    v_eff = np.stack([-depth * np.exp(-r2 / 1.5) for depth in (6.0, 0.2, 1.5)])
    nd, nband, nproj = 3, 5, 3
    b = 0.1 * (rng.standard_normal((nd, basis.npw, nproj))
               + 1j * rng.standard_normal((nd, basis.npw, nproj)))
    d = rng.standard_normal((nd, nproj))
    psi = np.stack([basis.random_orbitals(nband, seed=11 + i)
                    for i in range(nd)])
    shape = (nd, nband) + basis.grid.shape

    def solve(lo, hi):
        n = hi - lo
        densities = np.full((n,) + shape[1:], np.nan)
        results = solve_all_band_batched(
            BatchedHamiltonian(basis, v_eff[lo:hi], b[lo:hi], d[lo:hi]),
            list(psi[lo:hi]), max_iter=200, tol=1e-9,
            band_densities=densities,
            work=np.full(lobpcg_work_shape(n, basis.npw, nband), np.nan,
                         dtype=complex),
        )
        return results, densities

    stacked, wide = solve(0, nd)
    counts = [res.iterations for res in stacked]
    # the first slot is done three or more iterations before the others
    assert counts[0] + 3 <= min(counts[1:]) and counts[1] != counts[2]
    for slot, res in enumerate(stacked):
        (one,), narrow = solve(slot, slot + 1)
        assert res.converged and res.iterations == one.iterations
        assert res.residual_norm == one.residual_norm
        assert np.array_equal(res.eigenvalues, one.eigenvalues)
        assert np.array_equal(res.orbitals, one.orbitals)
        assert np.array_equal(wide[slot], narrow[0])


LIAL_OPTS = dict(
    ecut=3.0, domains=(2, 2, 1), buffer=2.0, tol=1e-5, max_iter=40,
    kt=0.02, extra_bands=4,
)


def _lial_frames():
    frames = []
    for shift in (0.0, 0.02):
        cfg = lial_nanoparticle(4, cell=[13.0, 13.0, 9.0])
        cfg.positions[:, 0] += shift * np.arange(len(cfg.symbols))
        frames.append(cfg)
    return frames


@pytest.mark.parametrize(
    "opts, frames",
    [(OPTS, [h4_chain(), h4_chain(0.05)]), (LIAL_OPTS, _lial_frames())],
    ids=["h4_chain", "li4al4_2x2x1"],
)
def test_stack_width_one_and_n_are_bit_identical(opts, frames):
    """Parity by construction: ``batch_domains`` only changes how many
    domains share a kernel call, never a bit of the result — over a cold
    and a warm workspace step, forces included."""
    runs = {}
    for wide in (False, True):
        ws = LDCWorkspace()
        runs[wide] = [
            run_ldc(cfg, LDCOptions(**opts, batch_domains=wide),
                    workspace=ws, compute_forces=True)
            for cfg in frames
        ]
        assert ws.warm_domains > 0
    for one, stacked in zip(runs[False], runs[True]):
        assert stacked.energy == one.energy
        assert stacked.iterations == one.iterations
        assert stacked.eig_iterations == one.eig_iterations
        assert np.array_equal(stacked.forces, one.forces)
        assert np.array_equal(stacked.density, one.density)


def test_batched_run_matches_serial_run():
    cfg = h4_chain()
    serial = run_ldc(cfg, LDCOptions(**OPTS, batch_domains=False))
    batched = run_ldc(cfg, LDCOptions(**OPTS, batch_domains=True))
    assert serial.converged and batched.converged
    assert abs(batched.energy - serial.energy) <= 1e-10
    assert abs(batched.mu - serial.mu) <= 1e-10
    assert np.abs(batched.density - serial.density).max() <= 1e-10


def test_mixed_shape_classes_still_match_serial():
    cfg = h4_chain(shift=1.2)  # two classes: nband differs across domains
    serial = run_ldc(cfg, LDCOptions(**OPTS, batch_domains=False))
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
    assert ins.tracer.count("ldc.domain_solve") > 0
    solves = ins.metrics.get("eigensolver.solves", solver="all_band")
    assert solves is not None and solves.value > 0
    span = next(
        s for s in ins.tracer.spans() if s.name == "ldc.domain_solve"
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
        s for s in ins.tracer.spans() if s.name == "ldc.domain_solve"
    )
    flops = estimate_event_flops("ldc.domain_solve", span.attrs)
    assert flops is not None and flops > 0
    # a 2-domain class must cost more than one domain's worth of the same
    # iterations but less than naively double-counting the iteration terms
    single = estimate_event_flops(
        "ldc.domain_solve", dict(span.attrs, n_domains=1)
    )
    assert single is not None and single < flops < 2 * single
    # traces written before the one seam named the stacked span differently
    assert estimate_event_flops("ldc.batched_solve", span.attrs) == flops
    # the span names the staged transform's line counts; without them the
    # estimator falls back to crediting dense 3-D transforms
    dense = dict(span.attrs)
    assert len(dense.pop("fft_stages")) == 3
    assert estimate_event_flops("ldc.domain_solve", dense) > flops
