"""Tests: iterative eigensolvers must agree with dense diagonalization."""

import gc
import sys
import tracemalloc

import numpy as np
import pytest

from repro.dft.basis import PlaneWaveBasis
from repro.dft.eigensolver import (
    lobpcg_work_shape,
    solve_all_band,
    solve_all_band_batched,
    solve_band_by_band,
    solve_direct,
)
from repro.dft.grid import RealSpaceGrid
from repro.dft.hamiltonian import BatchedHamiltonian, Hamiltonian
from repro.dft.pseudopotential import NonlocalProjectors, local_potential
from repro.systems import dimer


@pytest.fixture(scope="module")
def problem():
    grid = RealSpaceGrid([10.0, 10.0, 10.0], [16, 16, 16])
    cfg = dimer("Si", "C", 3.3, 10.0)
    basis = PlaneWaveBasis(grid, ecut=5.0)
    v = local_potential(grid, cfg)
    nl = NonlocalProjectors(basis, cfg)
    ham = Hamiltonian(basis, v, nl)
    ref = solve_direct(ham, 6)
    return ham, ref


def test_direct_eigenpairs_satisfy_equation(problem):
    ham, ref = problem
    for n in range(len(ref.eigenvalues)):
        hpsi = ham.apply(ref.orbitals[:, n])
        np.testing.assert_allclose(
            hpsi, ref.eigenvalues[n] * ref.orbitals[:, n], atol=1e-8
        )


def test_direct_orthonormal(problem):
    _, ref = problem
    s = ref.orbitals.conj().T @ ref.orbitals
    np.testing.assert_allclose(s, np.eye(s.shape[0]), atol=1e-10)


def test_direct_eigenvalues_ascending(problem):
    _, ref = problem
    assert np.all(np.diff(ref.eigenvalues) >= -1e-12)


def test_direct_too_many_bands(problem):
    ham, _ = problem
    with pytest.raises(ValueError):
        solve_direct(ham, ham.basis.npw + 1)


def test_all_band_matches_direct(problem):
    ham, ref = problem
    psi0 = ham.basis.random_orbitals(6, seed=11)
    res = solve_all_band(ham, psi0, max_iter=200, tol=1e-9)
    assert res.converged
    np.testing.assert_allclose(res.eigenvalues, ref.eigenvalues, atol=1e-6)


def test_all_band_orthonormal(problem):
    ham, _ = problem
    res = solve_all_band(ham, ham.basis.random_orbitals(5, seed=3), max_iter=100)
    s = res.orbitals.conj().T @ res.orbitals
    np.testing.assert_allclose(s, np.eye(5), atol=1e-8)


def test_band_by_band_matches_direct(problem):
    ham, ref = problem
    psi0 = ham.basis.random_orbitals(4, seed=7)
    res = solve_band_by_band(ham, psi0, tol=1e-8, outer_sweeps=30)
    np.testing.assert_allclose(res.eigenvalues, ref.eigenvalues[:4], atol=1e-5)


def test_blas2_blas3_solver_paths_agree(problem):
    """The paper's claim: the algebraic transformation changes speed, not
    results — both solvers find the same spectrum."""
    ham, _ = problem
    psi0 = ham.basis.random_orbitals(4, seed=13)
    res2 = solve_band_by_band(ham, psi0.copy(), tol=1e-8, outer_sweeps=30)
    res3 = solve_all_band(ham, psi0.copy(), max_iter=200, tol=1e-9)
    np.testing.assert_allclose(res2.eigenvalues, res3.eigenvalues[:4], atol=1e-5)


def test_all_band_free_electron():
    """On V = 0 the solver must recover G²/2 exactly."""
    grid = RealSpaceGrid([8.0, 8.0, 8.0], [12, 12, 12])
    basis = PlaneWaveBasis(grid, ecut=3.0)
    ham = Hamiltonian(basis, np.zeros(grid.shape))
    res = solve_all_band(ham, basis.random_orbitals(3, seed=0), max_iter=100, tol=1e-10)
    exact = np.sort(0.5 * basis.g2)[:3]
    np.testing.assert_allclose(res.eigenvalues, exact, atol=1e-7)


# -- band densities formed inside the solve --------------------------------------


def _count_to_grid(monkeypatch):
    """Record the solvers' own ``to_grid`` calls (``H·ψ`` transforms through
    ``to_grid_batch``): the shape of each block and whether it went into
    the basis work block."""
    calls = []
    original = PlaneWaveBasis.to_grid

    def counted(self, coeffs, **kwargs):
        out = kwargs.get("out")
        pooled = out is not None and np.shares_memory(out, self.work_block(1))
        calls.append((np.shape(coeffs), pooled))
        return original(self, coeffs, **kwargs)

    monkeypatch.setattr(PlaneWaveBasis, "to_grid", counted)
    return calls


def _row_blocks(basis, nband):
    """What one retirement transforms: the block's columns, a row block at
    a time, each into the basis work block."""
    step = basis.block_rows
    return [
        ((basis.npw, min(step, nband - a)), True) for a in range(0, nband, step)
    ]


def _assert_densities_match_orbitals(ham, res, out):
    expect = np.abs(ham.basis.to_grid(res.orbitals)) ** 2
    assert np.abs(out - expect).max() <= 1e-14
    norms = out.sum(axis=(1, 2, 3)) * ham.basis.grid.dv
    np.testing.assert_allclose(norms, 1.0, atol=1e-10)


def _rotated_eigenvectors(ref, nband):
    """A start inside the converged subspace, mixed by a unitary: the
    solve retires it at its first residual check."""
    rng = np.random.default_rng(2)
    mix, _ = np.linalg.qr(
        rng.standard_normal((nband, nband))
        + 1j * rng.standard_normal((nband, nband))
    )
    return ref.orbitals[:, :nband] @ mix


@pytest.mark.parametrize("retires", ["first_check", "later"])
def test_all_band_densities_match_orbitals_whenever_the_block_retires(
    problem, monkeypatch, retires
):
    """|ψ_n|² of the returned block is formed one way: the Ritz vectors
    transformed a row block at a time into the basis work block when the
    block retires — at its first residual check (no iteration ran) or
    after X moved — and never from the fields of an ``H·X``."""
    full, ref = problem
    nband = 5
    basis = PlaneWaveBasis(full.basis.grid, full.basis.ecut)
    basis.block_rows = 2  # three row blocks, the last one ragged
    ham = Hamiltonian(basis, full.v_eff, full.vnl)
    if retires == "first_check":
        psi0 = _rotated_eigenvectors(ref, nband)
    else:
        psi0 = basis.random_orbitals(nband, seed=11)
    out = np.full((nband,) + basis.grid.shape, np.nan)
    calls = _count_to_grid(monkeypatch)
    res = solve_all_band(ham, psi0, max_iter=200, tol=1e-9, band_densities=out)
    monkeypatch.undo()
    assert res.converged
    assert calls == _row_blocks(basis, nband) and len(calls) == 3
    assert (res.iterations == 1) == (retires == "first_check")
    _assert_densities_match_orbitals(ham, res, out)


@pytest.mark.parametrize("width", [1, 3])
def test_all_band_densities_match_orbitals_at_either_stack_width(problem, width):
    """One operator with nonlocal projectors, three starts: one retires at
    the first residual check, one converges while the others iterate, one
    runs out of ``max_iter`` — each domain's densities are those of the
    orbitals it returned, solved alone or as one stack."""
    ham, ref = problem
    nband, max_iter = 5, 20
    basis = ham.basis
    loose = solve_all_band(
        ham, basis.random_orbitals(nband, seed=3), max_iter=200, tol=1e-7
    )
    starts = [
        _rotated_eigenvectors(ref, nband),
        loose.orbitals,
        basis.random_orbitals(nband, seed=11),
    ]
    out = np.full((3, nband) + basis.grid.shape, np.nan)
    if width == 1:
        results = [
            solve_all_band(ham, psi0, max_iter, 1e-9, band_densities=out[i])
            for i, psi0 in enumerate(starts)
        ]
    else:
        stack = BatchedHamiltonian(
            basis, np.stack(3 * [ham.v_eff]),
            np.stack(3 * [ham.vnl.b]), np.stack(3 * [ham.vnl.d]),
        )
        results = solve_all_band_batched(
            stack, starts, max_iter, 1e-9, band_densities=out
        )
    first, middle, last = (res.iterations for res in results)
    assert first == 1 and 3 <= middle < max_iter == last
    assert [res.converged for res in results] == [True, True, False]
    for res, densities in zip(results, out):
        _assert_densities_match_orbitals(ham, res, densities)


def test_all_band_densities_of_a_block_that_ran_out_of_iterations(problem):
    ham, _ = problem
    out = np.empty((3,) + ham.basis.grid.shape)
    res = solve_all_band(
        ham, ham.basis.random_orbitals(3, seed=1), max_iter=3, tol=1e-16,
        band_densities=out,
    )
    assert not res.converged
    _assert_densities_match_orbitals(ham, res, out)


def test_reference_solver_densities_match_orbitals(problem, monkeypatch):
    """``direct`` and ``band_by_band`` fill ``band_densities`` the way the
    all-band solver does — their returned block through the basis work
    block — and no solver transforms anything it was not asked for."""
    ham, _ = problem
    out = np.empty((4,) + ham.basis.grid.shape)
    psi0 = ham.basis.random_orbitals(4, seed=7)
    calls = _count_to_grid(monkeypatch)
    direct = solve_direct(ham, 4, out)
    assert calls == _row_blocks(ham.basis, 4)
    monkeypatch.undo()
    _assert_densities_match_orbitals(ham, direct, out)
    calls = _count_to_grid(monkeypatch)
    res = solve_band_by_band(
        ham, psi0, tol=1e-8, outer_sweeps=6, band_densities=out
    )
    assert calls == _row_blocks(ham.basis, 4)
    del calls[:]
    solve_band_by_band(ham, psi0, outer_sweeps=1)
    solve_all_band(ham, psi0, max_iter=2)
    solve_direct(ham, 4)
    assert not calls
    monkeypatch.undo()
    _assert_densities_match_orbitals(ham, res, out)


def test_all_band_iterations_reported(problem):
    ham, _ = problem
    res = solve_all_band(ham, ham.basis.random_orbitals(3, seed=1), max_iter=5, tol=1e-16)
    assert res.iterations == 5
    assert not res.converged
    assert res.residual_norm > 0


# -- the iteration's memory: a lent workspace, nothing of block size allocated ----


class _CountingStack(BatchedHamiltonian):
    """Counts the solver's iterations: it preconditions once in each."""

    preconditioned = 0

    def precondition(self, *args, **kwargs):
        self.preconditioned += 1
        return super().precondition(*args, **kwargs)


def _warm_stack_of_three(nband=10):
    """Three wells of different depth with random projectors on a
    630-plane-wave basis, started a loose solve away from convergence; one
    ``(3, npw, nband)`` block is 0.3 MB — above the fixed 128 KiB cast
    buffers NumPy's iterator may allocate, which are no block."""
    grid = RealSpaceGrid([12.0, 12.0, 9.6], (20, 20, 16))
    basis = PlaneWaveBasis(grid, ecut=4.5)
    rng = np.random.default_rng(4)
    r2 = grid.min_image_distance(np.array([6.0, 6.0, 4.8])) ** 2
    v_eff = np.stack([-depth * np.exp(-r2 / 4.0) for depth in (0.3, 0.8, 2.0)])
    b = 0.05 * (
        rng.standard_normal((3, basis.npw, 3))
        + 1j * rng.standard_normal((3, basis.npw, 3))
    )
    d = rng.standard_normal((3, 3))
    cold = np.stack([basis.random_orbitals(nband, seed=i) for i in range(3)])
    loose = solve_all_band_batched(
        BatchedHamiltonian(basis, v_eff, b, d), cold, max_iter=200, tol=1e-3
    )
    warm = np.stack([res.orbitals for res in loose])
    return basis, (v_eff, b, d), warm


def test_warm_lockstep_iteration_allocates_nothing_of_block_size():
    """With ``work`` lent, no NumPy call of an iteration allocates as much
    as one ``(n_domains, npw, nband)`` block — every rotation, residual,
    projection and ``H·ψ`` writes into the workspace; what an iteration
    still allocates is per-domain (QR, the ``allclose`` check, a retiring
    domain's result) — and workspace plus everything the solve allocates
    stays under 14 blocks (26 before the workspace, with ``hstack`` /
    ``np.stack`` / the zero pad and fresh products).  The workspace is
    handed over full of NaN: nothing is read before written."""
    basis, stack, warm = _warm_stack_of_three()
    nd, npw, nband = warm.shape
    block = warm.nbytes
    assert block > 2 * 128 * 1024
    work = np.full(lobpcg_work_shape(nd, npw, nband), np.nan, dtype=complex)
    densities = np.empty((nd, nband) + basis.grid.shape)
    assert work.nbytes == 9 * block

    def solve(bham):
        return solve_all_band_batched(
            bham, warm, max_iter=60, tol=1e-8, band_densities=densities,
            work=work,
        )

    # (a) the largest allocation of any one C-level call, by iteration
    bham = _CountingStack(basis, *stack)
    largest: dict[int, int] = {}
    entry = [0]

    def profile(frame, event, arg):
        if event == "c_call":
            tracemalloc.reset_peak()
            entry[0] = tracemalloc.get_traced_memory()[0]
        elif event in ("c_return", "c_exception"):
            grown = tracemalloc.get_traced_memory()[1] - entry[0]
            it = bham.preconditioned
            largest[it] = max(largest.get(it, 0), grown)

    gc.collect()
    tracemalloc.start()
    sys.setprofile(profile)
    try:
        results = solve(bham)
    finally:
        sys.setprofile(None)
        tracemalloc.stop()
    assert all(res.converged for res in results)
    assert min(res.iterations for res in results) >= 3
    assert set(largest) == set(range(bham.preconditioned + 1))
    # from the first preconditioning on (set-up is index 0)
    assert max(v for it, v in largest.items() if it >= 1) < block

    # (b) the solve's footprint: the workspace plus its allocation peak
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        again = solve(BatchedHamiltonian(basis, *stack))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert work.nbytes + peak <= 14 * block
    # and a solve that allocates its own workspace gives the same bits
    own = solve_all_band_batched(
        BatchedHamiltonian(basis, *stack), warm, max_iter=60, tol=1e-8
    )
    for a, b, c in zip(results, again, own):
        assert a.iterations == b.iterations == c.iterations
        assert np.array_equal(a.orbitals, b.orbitals)
        assert np.array_equal(a.orbitals, c.orbitals)
        assert np.array_equal(a.eigenvalues, c.eigenvalues)
