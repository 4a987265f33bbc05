"""The staged (pruned) plane-wave transforms and the row-blocked ``H·ψ``.

The dense 3-D ``np.fft.ifftn/fftn`` on the zero-padded sphere — the
transform the staged code replaced — is the oracle here: pruning skips
lines that are identically zero, so the two must agree to rounding on any
grid.  Also pinned: adjointness, the ``out=`` forms, and that a warm apply
— and a warm eigensolve followed by the caller's band densities —
allocates nothing of grid size.
"""

import copy
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.dft.basis import FIELD_BLOCK_BYTES, PlaneWaveBasis
from repro.dft.eigensolver import solve_all_band_batched
from repro.dft.grid import RealSpaceGrid
from repro.dft.hamiltonian import BatchedHamiltonian, Hamiltonian
from tests.oracles.reference import basis_miller

COMMON = dict(max_examples=40, deadline=None)
TOL = 1e-13


def make_basis(lengths, shape, grid_factor, block_rows=None):
    """A basis whose sphere radius is ``1/grid_factor`` of the tightest
    axis's Nyquist frequency: 2.0 is the exact-density grid the drivers
    use, 1.0 puts plane waves on the (even-size) Nyquist line."""
    grid = RealSpaceGrid(lengths, shape)
    gmax = np.pi * min(n / l for n, l in zip(shape, lengths)) / grid_factor
    basis = PlaneWaveBasis(grid, 0.5 * gmax * gmax * (1.0 + 1e-9))
    if block_rows is not None:
        basis.block_rows = block_rows  # before the first transform sizes the pool
    return basis


def dense_to_grid(basis, rows):
    """Oracle: zero-pad ``(nrows, npw)`` rows to the grid, one dense ifftn."""
    grid = basis.grid
    spread = np.zeros((rows.shape[0], grid.npoints), dtype=complex)
    spread[:, basis.indices] = rows
    return np.fft.ifftn(
        spread.reshape((-1,) + grid.shape), axes=(1, 2, 3)
    ) * (grid.npoints / np.sqrt(grid.volume))


def dense_from_grid(basis, fields):
    grid = basis.grid
    spectra = np.fft.fftn(fields, axes=(1, 2, 3)).reshape(fields.shape[0], -1)
    return spectra[:, basis.indices] * (np.sqrt(grid.volume) / grid.npoints)


def rel_err(got, ref):
    return np.abs(got - ref).max() / max(np.abs(ref).max(), 1.0)


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(**COMMON)
# every x-plane occupied (one plane run, no empty plane), on odd sizes and
# on an even x axis with its Nyquist plane; and two runs on odd sizes
@example(shape=(7, 9, 11), lengths=(9.0, 5.0, 5.0), grid_factor=1.0, nd=2,
         nband=3, block_rows=3, seed=1)
@example(shape=(8, 11, 9), lengths=(9.0, 5.0, 5.0), grid_factor=1.0, nd=1,
         nband=5, block_rows=4, seed=2)
@example(shape=(11, 7, 9), lengths=(9.0, 7.0, 9.0), grid_factor=2.0, nd=4,
         nband=2, block_rows=3, seed=3)
@given(
    shape=st.tuples(*[st.integers(5, 12)] * 3),
    lengths=st.tuples(*[st.floats(5.0, 9.0)] * 3),
    grid_factor=st.sampled_from([1.0, 1.5, 2.0]),
    nd=st.sampled_from([1, 2, 4]),
    nband=st.integers(1, 10),
    block_rows=st.sampled_from([1, 3, 4, 16]),
    seed=st.integers(0, 10_000),
)
def test_staged_transforms_match_dense_oracle(
    shape, lengths, grid_factor, nd, nband, block_rows, seed
):
    basis = make_basis(lengths, shape, grid_factor, block_rows)
    grid = basis.grid
    rng = np.random.default_rng(seed)
    nrows = nd * nband  # 1..40 rows: one block, several, a ragged last one
    # the y pass's x-plane runs: one or two, covering exactly the occupied
    # planes, the empty runs the rest
    runs = basis._plane_runs
    assert 1 <= len(runs) <= 2
    occupied = np.concatenate([np.arange(a, b) for _, a, b in runs])
    assert np.array_equal(occupied, basis._planes)
    empty = [np.arange(a, b) for a, b in basis._empty_runs]
    assert sorted(np.concatenate([occupied, *empty])) == list(range(shape[0]))

    coeffs = complex_normal(rng, (nrows, basis.npw))
    ref_fields = dense_to_grid(basis, coeffs)
    assert rel_err(basis.to_grid(coeffs.T), ref_fields) <= TOL
    assert rel_err(basis.to_grid(coeffs[0]), ref_fields[0]) <= TOL
    stack = coeffs.reshape(nd, nband, basis.npw).transpose(0, 2, 1)
    got = basis.to_grid_batch(stack)
    assert got.shape == (nd, nband) + grid.shape
    assert rel_err(got.reshape(ref_fields.shape), ref_fields) <= TOL

    fields = complex_normal(rng, (nrows,) + grid.shape)
    kept = fields.copy()
    ref_coeffs = dense_from_grid(basis, fields)
    assert rel_err(basis.from_grid(fields).T, ref_coeffs) <= TOL
    assert rel_err(basis.from_grid(fields[0]), ref_coeffs[0]) <= TOL
    stacked_fields = fields.reshape((nd, nband) + grid.shape)
    got = basis.from_grid_batch(stacked_fields)
    assert got.shape == (nd, basis.npw, nband)
    assert rel_err(
        got.transpose(0, 2, 1).reshape(nrows, basis.npw), ref_coeffs
    ) <= TOL
    assert np.array_equal(fields, kept)  # input kept unless given up

    # the ``out=`` forms: a contiguous ``out``, a row-slice of a larger
    # array, rows that end in a ragged block — same numbers, written where
    # asked, nothing outside touched
    out = np.empty_like(ref_fields)
    assert basis.to_grid(coeffs.T, out=out) is out
    assert rel_err(out, ref_fields) <= TOL
    big = np.full((nrows + 3,) + grid.shape, 7.0 + 0j)
    got = basis.to_grid(coeffs.T, out=big[2:-1])
    assert np.shares_memory(got, big) and rel_err(got, ref_fields) <= TOL
    assert np.all(big[:2] == 7.0) and np.all(big[-1] == 7.0)
    one = np.empty(grid.shape, dtype=complex)
    basis.to_grid(coeffs[0], out=one)
    assert rel_err(one, ref_fields[0]) <= TOL
    basis.to_grid_batch(
        stack, out=big[1:-2].reshape((nd, nband) + grid.shape)
    )
    assert rel_err(big[1:-2], ref_fields) <= TOL

    wide = np.full((basis.npw, nrows + 2), 7.0 + 0j)
    got = basis.from_grid(fields, out=wide[:, 1:-1])  # strided columns
    assert np.shares_memory(got, wide) and rel_err(got.T, ref_coeffs) <= TOL
    assert np.all(wide[:, 0] == 7.0) and np.all(wide[:, -1] == 7.0)
    vec = np.empty(basis.npw, dtype=complex)
    basis.from_grid(fields[0], out=vec)
    assert rel_err(vec, ref_coeffs[0]) <= TOL
    stack_out = np.empty((nd, basis.npw, nband), dtype=complex)
    basis.from_grid_batch(stacked_fields, out=stack_out)
    assert rel_err(
        stack_out.transpose(0, 2, 1).reshape(nrows, basis.npw), ref_coeffs
    ) <= TOL
    assert np.array_equal(fields, kept)
    # given up, the fields are scratch: same coefficients, nothing allocated
    # for the x pass
    got = basis.from_grid(fields, overwrite_fields=True)
    assert rel_err(got.T, ref_coeffs) <= TOL
    assert not np.array_equal(fields, kept)
    fields = kept
    with pytest.raises(ValueError, match="out must be"):
        basis.to_grid(
            coeffs.T, out=np.empty((nrows + 1,) + grid.shape, dtype=complex)
        )
    with pytest.raises(ValueError, match="out must be"):
        basis.from_grid(fields, out=np.empty((basis.npw, nrows)))

    # adjointness: <from_grid f, c> = <f, to_grid c> dv, summed over rows
    lhs = np.vdot(basis.from_grid(fields).T, coeffs)
    rhs = np.vdot(fields, basis.to_grid(coeffs.T)) * grid.dv
    assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)


def test_nyquist_and_odd_axes_are_really_covered():
    """The matrix above is only as good as its corners: at grid_factor 1
    the sphere holds the even axis's Nyquist index and every x-plane, at
    grid_factor 2 only the planes m = -2..2 and a disc of columns remain."""
    full = make_basis((8.0, 8.0, 8.0), (8, 9, 10), 1.0)
    assert 4 in np.unravel_index(full.indices, full.grid.shape)[0]
    assert np.any(basis_miller(full)[:, 0] == -4)
    assert full.stage_lines[1][0] == 8 * 10  # no x-plane pruned
    # one plane run, the whole x axis: the y pass writes all of ``out``
    assert full._plane_runs == [(0, 0, 8)] and full._empty_runs == []
    odd = make_basis((9.0, 5.0, 5.0), (7, 9, 11), 1.0)
    assert odd._plane_runs == [(0, 0, 7)] and odd._empty_runs == []

    half = make_basis((8.0, 8.0, 8.0), (8, 9, 10), 2.0)
    (zl, _), (yl, _), (xl, _) = half.stage_lines
    assert zl < 8 * 9 / 4 and yl == 5 * 10 and xl == 9 * 10
    # m = 0..2 and m = -2..-1: two runs around the empty middle
    assert half._plane_runs == [(0, 0, 3), (3, 6, 8)]
    assert half._empty_runs == [(3, 6)]


def test_block_rows_follow_the_grid():
    small = make_basis((6.0, 5.0, 5.0), (10, 9, 9), 2.0)
    assert small.block_rows == FIELD_BLOCK_BYTES // (16 * 10 * 9 * 9)
    huge = make_basis((30.0, 30.0, 30.0), (48, 48, 48), 2.0)
    assert huge.block_rows == 1


# -- the row-blocked apply ----------------------------------------------------


def lial_domain_problem(nd=4, nband=21, seed=3):
    """The benchmark's LiAl domain shape: 22×22×28 at ecut=3."""
    grid = RealSpaceGrid([12.0, 12.0, 16.0], (22, 22, 28))
    basis = PlaneWaveBasis(grid, ecut=3.0)
    rng = np.random.default_rng(seed)
    v_eff = rng.standard_normal((nd,) + grid.shape)
    psi = complex_normal(rng, (nd, basis.npw, nband))
    return basis, v_eff, psi


def dense_local_apply(basis, v_eff, psi):
    """Kinetic + local term through the dense oracle transforms."""
    fields = dense_to_grid(basis, psi.T)
    return (
        0.5 * basis.g2[:, None] * psi
        + dense_from_grid(basis, fields * v_eff).T
    )


def test_blocked_apply_matches_dense_oracle_serial_and_stacked():
    basis, v_eff, psi = lial_domain_problem()
    assert psi.shape[2] > basis.block_rows  # several blocks, ragged last
    assert psi.shape[2] % basis.block_rows  # blocks straddle domains
    stacked = BatchedHamiltonian(basis, v_eff)
    out = stacked.apply(psi)
    for d in range(psi.shape[0]):
        ref = dense_local_apply(basis, v_eff[d], psi[d])
        serial = Hamiltonian(basis, v_eff[d]).apply(psi[d])
        assert rel_err(serial, ref) <= TOL
        assert rel_err(out[d], ref) <= TOL
    # a retired-domain subset uses the subset's potentials
    sub = stacked.apply(psi[[1, 3]], domains=[1, 3])
    assert rel_err(sub, out[[1, 3]]) <= TOL


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stacked_apply_peaks_below_one_full_copy():
    """A warm apply allocates no array of grid size at all, serial or
    stacked: every stage writes through ``out=`` into the pool, so the
    traced peak is the coefficient-side results only — below *one row's* field, where the
    dense path held three full ``(rows × grid)`` copies and the staged one
    a block per stage."""
    basis, v_eff, psi = lial_domain_problem(nd=2, nband=3)
    nd, npw, nband = psi.shape
    assert nd * nband > basis.block_rows  # two blocks, the last one ragged
    assert nband % basis.block_rows  # the first straddles both domains
    one_field = basis.grid.npoints * 16
    ham = Hamiltonian(basis, v_eff[0])
    bham = BatchedHamiltonian(basis, v_eff)
    for apply, arg in ((ham.apply, psi[0]), (bham.apply, psi)):
        apply(arg)  # warm: the pool is allocated once
        peak = traced_peak(lambda: apply(arg))
        assert peak < one_field
        assert peak <= 4.5 * arg.size * 16  # a few (npw, nband) blocks


def test_warm_solve_with_band_densities_allocates_nothing_of_grid_size():
    """The solver returns orbitals; the caller forms |ψ|² from them through
    the basis work block a row block at a time, straight into its real
    per-band buffer (the LDC seam) or accumulated into one real field
    (the global map of ``tests/oracles/``).  A warm solve plus per-band densities peaks where the
    solve alone does — its coefficient-side algebra — to within less than
    one band's real field, and the occupied form allocates one band's real
    field (plus NumPy's fixed iterator buffers), not ``nband`` of them."""
    basis, v_eff, psi = lial_domain_problem(nd=2, nband=6)
    nd, npw, nband = psi.shape
    assert nband > basis.block_rows  # several row blocks per domain
    one_density = basis.grid.npoints * 8
    psi0 = np.stack([basis.random_orbitals(nband, seed=d) for d in range(nd)])
    bham = BatchedHamiltonian(basis, 0.2 * v_eff)
    densities = np.empty((nd, nband) + basis.grid.shape)
    rho = np.zeros(basis.grid.shape)
    occupations = np.linspace(2.0, 0.0, nband)

    def solve():
        return solve_all_band_batched(bham, psi0, max_iter=6, tol=1e-12)

    def solve_and_form():
        for out, res in zip(densities, solve()):
            basis.densities(res.orbitals, out)

    results = solve()  # warm: the pool exists
    assert not any(res.converged for res in results)  # ran every sweep
    solve_and_form()
    plain = traced_peak(solve)
    with_densities = traced_peak(solve_and_form)
    assert abs(with_densities - plain) < one_density
    occupied = traced_peak(
        lambda: basis.densities(results[0].orbitals, rho, occupations)
    )
    assert one_density <= occupied < 2 * one_density


def test_copied_basis_gets_its_own_empty_pool():
    """Drivers' results are deep-copied (and could be pickled): the pool
    must not travel."""
    basis, _, psi = lial_domain_problem(nd=1, nband=3)
    fields = basis.to_grid(psi[0])
    basis.to_grid_batch(psi)
    assert basis._pool
    for clone in (copy.deepcopy(basis), pickle.loads(pickle.dumps(basis))):
        assert clone._pool == {}
        assert np.array_equal(clone.to_grid(psi[0]), fields)
        assert not any(
            np.shares_memory(a, b)
            for a in clone._pool.values() for b in basis._pool.values()
        )
