"""The global half of an LDC step against its dense formulations.

Multigrid Poisson, the local pseudopotential and its forces, XC and Ewald
run as slice / half-grid / blocked arithmetic through buffers they own
(DESIGN.md §19 "The global half").  The forms they replaced — ``np.roll``
stencils with boolean-mask updates, the full complex ``ifftn``, a dense
``e^{-iG·R}`` per atom, one Python iteration per Ewald image — are the
oracles here: bit-equal where the arithmetic is unchanged, to round-off
where only the summation order moved.  The allocation pins state what each
layer may take above what it returns.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.constants import get_species
from repro.dft import ewald as ewald_module
from repro.dft import pseudopotential, xc
from repro.dft.ewald import EwaldStructure, ewald
from repro.dft.forces import local_forces
from repro.dft.grid import RealSpaceGrid
from repro.dft.pseudopotential import (
    local_potential,
    local_potential_ft,
    structure_factors,
)
from repro.dft.scf import harris_foulkes_energy, initial_density
from repro.multigrid import (
    MultigridPoisson,
    full_weighting_restrict,
    trilinear_prolong,
)
from repro.multigrid.fmg import fmg_solve
from repro.observe import OFF
from repro.multigrid.stencils import (
    laplacian_periodic,
    redblack_gauss_seidel,
    residual,
)
from repro.systems.configuration import Configuration
from repro.systems.lialloy import lial_nanoparticle

MB = 1e6
#: odd, even and mixed non-cubic grids; the even axes carry Nyquist planes
GRIDS = {
    "odd": ([7.0, 8.0, 9.0], (9, 11, 15)),
    "even": ([7.0, 8.0, 9.0], (10, 12, 14)),
    "mixed": ([9.0, 11.0, 14.0], (12, 9, 14)),
    "even-last-odd": ([5.0, 5.0, 6.0], (8, 8, 9)),
}
SYMBOLS = ["Li", "Al", "H", "O", "Li", "Al", "H", "H"]


def traced_peak(call) -> int:
    """Bytes ``call`` allocates above what is live when it starts."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module", params=list(GRIDS))
def scene(request):
    """A grid, eight atoms of four species anywhere in its cell, and a
    density with content in every Fourier component, Nyquist included."""
    lengths, shape = GRIDS[request.param]
    grid = RealSpaceGrid(lengths, shape)
    rng = np.random.default_rng(3)
    config = Configuration(
        SYMBOLS, rng.uniform(0.0, 1.0, (len(SYMBOLS), 3)) * grid.lengths,
        grid.lengths,
    )
    return grid, config, rng.random(grid.shape)


@pytest.fixture(scope="module")
def cold():
    """The cold e2e workload's global grid, a rattled Li₄Al₄ on it and the
    density its first Poisson solve sees."""
    config = lial_nanoparticle(4, cell=[16.0, 16.0, 16.0])
    config.positions += 0.15 * np.random.default_rng(7).standard_normal(
        config.positions.shape
    )
    grid = RealSpaceGrid(config.cell, (28, 28, 28))
    return grid, config, initial_density(grid, config)


# ---- local pseudopotential: half grid against the complex transform ---------

def local_potential_dense(grid, config):
    """Σ_s ṽ_s S_s on the full grid, complex inverse transform, real part."""
    vg = np.zeros(grid.shape, dtype=complex)
    for symbol, sf in structure_factors(grid, config).items():
        sp = get_species(symbol)
        vg += local_potential_ft(grid.g2(), sp.zval, sp.rc_loc) * sf
    return grid.ifft(vg / grid.volume).real


def local_forces_dense(grid, config, rho):
    """Re Σ_G iG ρ̃*(G) ṽ(G) e^{-iG·R} with a dense phase per atom."""
    rho_g = grid.fft(rho).ravel()
    gv = grid.g_vectors().reshape(-1, 3)
    forces = np.zeros((config.natoms, 3))
    for i, symbol in enumerate(config.symbols):
        sp = get_species(symbol)
        vg = local_potential_ft(grid.g2().ravel(), sp.zval, sp.rc_loc)
        phase = np.exp(-1j * gv @ config.positions[i])
        forces[i] = np.real(gv.T @ (1j * np.conj(rho_g) * vg * phase))
    return forces


def test_half_grid_local_potential_matches_complex_transform(scene):
    grid, config, _ = scene
    dense = local_potential_dense(grid, config)
    got = local_potential(grid, config)
    assert got.dtype == np.float64 and got.shape == grid.shape
    assert np.abs(got - dense).max() <= 1e-13 * np.abs(dense).max()


def test_half_grid_local_forces_match_dense_phases(scene):
    grid, config, rho = scene
    dense = local_forces_dense(grid, config, rho)
    assert np.abs(dense).max() > 0.5  # the Nyquist planes carry weight here
    assert np.abs(local_forces(grid, config, rho) - dense).max() <= 1e-12


def test_local_forces_are_the_gradient_of_the_local_energy(scene):
    """−d/dR ∫ρ v_loc at fixed ρ by central differences: the force needs no
    SCF, no reference implementation and no assumption about which sign a
    Nyquist component carries to be checked."""
    grid, config, rho = scene
    forces = local_forces(grid, config, rho)
    step = 1e-4

    def energy(atom, axis, shift):
        moved = config.copy()
        moved.positions[atom, axis] += shift
        return grid.inner(rho, local_potential(grid, moved))

    for atom, axis in [(0, 0), (1, 1), (2, 2), (3, 0), (7, 1)]:
        slope = (
            energy(atom, axis, step) - energy(atom, axis, -step)
        ) / (2.0 * step)
        assert forces[atom, axis] == pytest.approx(-slope, rel=1e-6, abs=1e-8)


def test_species_table_is_cached_on_the_grid(scene):
    grid, _, _ = scene
    first = pseudopotential.local_potential_half(grid, "Al")
    assert pseudopotential.local_potential_half(grid, "Al") is first
    assert first.shape == grid.shape[:2] + (grid.shape[2] // 2 + 1,)
    sp = get_species("Al")
    assert np.array_equal(
        first, local_potential_ft(grid.g2_half(), sp.zval, sp.rc_loc)
    )
    assert np.array_equal(
        grid.g2_half(), grid.g2()[:, :, : grid.shape[2] // 2 + 1]
    )


def test_structure_factor_blocks_do_not_change_the_potential(scene, monkeypatch):
    grid, config, _ = scene
    whole = local_potential(grid, config)
    monkeypatch.setattr(pseudopotential, "PHASE_BLOCK_BYTES", 1)  # one atom
    assert np.abs(local_potential(grid, config) - whole).max() <= (
        1e-14 * np.abs(whole).max()
    )


# ---- Ewald: image blocks against one iteration per image ---------------------

def ewald_per_shift(positions, charges, cell, structure):
    """The real- and reciprocal-space sums with one Python iteration per
    image shift and ``np.add.at`` force accumulation."""
    n, eta = len(positions), structure.eta
    rcut = (np.sqrt(-np.log(1e-10)) + 1.0) / eta
    volume = float(np.prod(cell))
    energy, forces = 0.0, np.zeros((n, 3))
    diff = positions[:, None, :] - positions[None, :, :]
    qq = charges[:, None] * charges[None, :]
    for shift in structure.shifts:
        d = diff + shift
        r2 = np.sum(d * d, axis=-1)
        if not shift.any():
            np.fill_diagonal(r2, np.inf)
        mask = r2 <= rcut * rcut
        if not mask.any():
            continue
        r = np.sqrt(r2[mask])
        erfc_r = ewald_module.erfc(eta * r)
        energy += 0.5 * float(np.sum(qq[mask] * (erfc_r / r)))
        coef = qq[mask] * (
            erfc_r / r2[mask]
            + 2.0 * eta / np.sqrt(np.pi) * np.exp(-(eta * r) ** 2) / r
        ) / r
        np.add.at(forces, np.nonzero(mask)[0], d[mask] * coef[:, None])
    gs = structure.gs
    g2 = np.sum(gs * gs, axis=1)
    phase = gs @ positions.T
    sg = (charges[None, :] * np.exp(1j * phase)).sum(axis=1)
    weight = np.exp(-g2 / (4.0 * eta * eta)) / g2
    energy += (2.0 * np.pi / volume) * float(np.sum(weight * np.abs(sg) ** 2))
    imag_part = np.imag(np.exp(1j * phase) * np.conj(sg)[:, None])
    forces += charges[:, None] * (4.0 * np.pi / volume) * np.einsum(
        "g,gx,gn->nx", weight, gs, imag_part
    )
    energy -= eta / np.sqrt(np.pi) * float(np.sum(charges**2))
    energy -= np.pi / (2.0 * volume * eta * eta) * float(np.sum(charges)) ** 2
    return energy, forces


@pytest.fixture(scope="module", params=["lial", "random"])
def charges(request):
    if request.param == "lial":
        config = lial_nanoparticle(4, cell=[16.0, 16.0, 16.0])
        return config.wrapped_positions(), config.zvals, config.cell
    rng = np.random.default_rng(5)
    cell = np.array([7.0, 9.0, 11.0])
    return rng.uniform(0, 1, (13, 3)) * cell, rng.uniform(0.5, 3, 13), cell


def test_blocked_ewald_matches_the_per_shift_loop(charges, monkeypatch):
    positions, q, cell = charges
    structure = EwaldStructure.build(cell, len(positions))
    e_ref, f_ref = ewald_per_shift(positions, q, cell, structure)
    results = {}
    # one shift per block, a few, the default, everything at once
    for budget in (1, 1 << 13, ewald_module.IMAGE_BLOCK_BYTES, 1 << 30):
        monkeypatch.setattr(ewald_module, "IMAGE_BLOCK_BYTES", budget)
        results[budget] = ewald(positions, q, cell, structure=structure)
    scale = np.abs(f_ref).max()
    for energy, forces in results.values():
        assert abs(energy - e_ref) <= 1e-13 * abs(e_ref)
        assert np.abs(forces - f_ref).max() <= 1e-13 * scale
    # with or without the precomputed structure: the same sums
    monkeypatch.undo()
    e_plain, f_plain = ewald(positions, q, cell)
    e_struct, f_struct = results[ewald_module.IMAGE_BLOCK_BYTES]
    assert e_plain == e_struct and np.array_equal(f_plain, f_struct)


def test_ewald_block_is_bounded_by_its_budget(charges):
    """Nothing of size n_images × natoms² is built: the real-space sum's
    peak stays near the block budget whatever the number of images."""
    positions, q, cell = charges
    structure = EwaldStructure.build(cell, len(positions))
    images = len(structure.shifts) * len(positions) ** 2
    assert 64 * images > 4 * ewald_module.IMAGE_BLOCK_BYTES
    peak = traced_peak(lambda: ewald(positions, q, cell, structure=structure))
    assert peak <= 3 * ewald_module.IMAGE_BLOCK_BYTES


# ---- multigrid: slice kernels against their np.roll forms --------------------

def roll_laplacian(field, spacing):
    out = np.zeros_like(field, dtype=float)
    for axis in range(3):
        out += (
            np.roll(field, 1, axis=axis) + np.roll(field, -1, axis=axis)
            - 2.0 * field
        ) / spacing[axis] ** 2
    return out


def roll_gauss_seidel(field, rhs, spacing, sweeps):
    inv_h2 = 1.0 / spacing**2
    diag = -2.0 * np.sum(inv_h2)
    i, j, k = np.indices(field.shape)
    parity = (i + j + k) % 2
    u = field.copy()
    for _ in range(sweeps):
        for color in (0, 1):
            neigh = np.zeros_like(u)
            for axis in range(3):
                neigh += inv_h2[axis] * (
                    np.roll(u, 1, axis=axis) + np.roll(u, -1, axis=axis)
                )
            mask = parity == color
            u[mask] = (rhs[mask] - neigh[mask]) / diag
    return u


def roll_restrict(fine):
    out = fine
    for axis in range(3):
        out = (
            0.25 * np.roll(out, 1, axis=axis) + 0.5 * out
            + 0.25 * np.roll(out, -1, axis=axis)
        )
    return out[::2, ::2, ::2].copy()


def roll_prolong(coarse):
    out = np.zeros(tuple(2 * n for n in coarse.shape))
    out[::2, ::2, ::2] = coarse
    for axis in range(3):
        odd, even = [slice(None)] * 3, [slice(None)] * 3
        odd[axis], even[axis] = slice(1, None, 2), slice(0, None, 2)
        shifted = np.roll(out[tuple(even)], -1, axis=axis)
        out[tuple(odd)] = 0.5 * (out[tuple(even)] + shifted)
    return out


class RollMultigrid:
    """The V-cycle driver on the ``np.roll`` forms, allocating as it goes."""

    def __init__(self, grid, sweeps=2):
        self.hierarchy = MultigridPoisson(grid).hierarchy
        self.sweeps = sweeps
        self.cycles = 0

    def solve(self, rho, v0=None, tol=1e-8, max_cycles=30):
        rhs = -4.0 * np.pi * (rho - float(np.mean(rho)))
        u = np.zeros_like(rhs) if v0 is None else v0 - float(np.mean(v0))
        rhs_norm = float(np.linalg.norm(rhs)) or 1.0
        for self.cycles in range(1, max_cycles + 1):
            u = self.vcycle(u, rhs, 0)
            u -= float(np.mean(u))
            r = rhs - roll_laplacian(u, self.hierarchy.spacing(0))
            if float(np.linalg.norm(r)) / rhs_norm < tol:
                break
        return u

    def vcycle(self, u, rhs, level):
        spacing = self.hierarchy.spacing(level)
        if level == self.hierarchy.nlevels - 1:
            return self.coarse(rhs, spacing)
        u = roll_gauss_seidel(u, rhs, spacing, self.sweeps)
        coarse = roll_restrict(rhs - roll_laplacian(u, spacing))
        coarse -= float(np.mean(coarse))
        u = u + roll_prolong(
            self.vcycle(np.zeros_like(coarse), coarse, level + 1)
        )
        return roll_gauss_seidel(u, rhs, spacing, self.sweeps)

    @staticmethod
    def coarse(rhs, spacing):
        eig = np.zeros(rhs.shape)
        for axis in range(3):
            k = np.fft.fftfreq(rhs.shape[axis]) * 2.0 * np.pi
            lam = (2.0 * np.cos(k) - 2.0) / spacing[axis] ** 2
            sl = [None, None, None]
            sl[axis] = slice(None)
            eig = eig + lam[tuple(sl)]
        rhs_hat = np.fft.fftn(rhs - float(np.mean(rhs)))
        u_hat = np.zeros_like(rhs_hat)
        nz = np.abs(eig) > 1e-14
        u_hat[nz] = rhs_hat[nz] / eig[nz]
        return np.fft.ifftn(u_hat).real


@pytest.mark.parametrize(
    "shape, lengths",
    [((4, 4, 4), (3.0, 3.1, 2.9)), ((8, 12, 20), (5.0, 7.0, 9.0)),
     ((14, 14, 14), (16.0, 16.0, 16.0)), ((28, 28, 28), (16.0, 16.0, 16.0))],
    ids=lambda value: "x".join(map(str, value)) if isinstance(
        value[0], int) else None,
)
def test_slice_kernels_equal_their_roll_forms(shape, lengths):
    rng = np.random.default_rng(sum(shape))
    field, rhs = rng.standard_normal(shape), rng.standard_normal(shape)
    spacing = np.array(lengths) / np.array(shape)
    assert np.array_equal(
        laplacian_periodic(field, spacing), roll_laplacian(field, spacing)
    )
    assert np.array_equal(
        residual(field, rhs, spacing), rhs - roll_laplacian(field, spacing)
    )
    assert np.array_equal(
        redblack_gauss_seidel(field, rhs, spacing, 3),
        roll_gauss_seidel(field, rhs, spacing, 3),
    )
    assert np.array_equal(full_weighting_restrict(field), roll_restrict(field))
    assert np.array_equal(trilinear_prolong(field), roll_prolong(field))


def test_multigrid_solve_equals_the_roll_vcycle_on_the_cold_density(cold):
    grid, _, rho = cold
    reference, solver = RollMultigrid(grid), MultigridPoisson(grid)
    v_ref = reference.solve(rho)
    v = solver.solve(rho)
    assert solver.last_stats.converged
    assert solver.last_stats.cycles == reference.cycles >= 3
    assert np.array_equal(v, v_ref)
    # a warm start, as every pass after the first is
    bumped = rho * (1.0 + 0.01 * np.cos(np.arange(28) * 2 * np.pi / 28))
    v_ref = reference.solve(bumped, v0=v_ref)
    assert np.array_equal(solver.solve(bumped, v0=v), v_ref)
    assert solver.last_stats.cycles == reference.cycles
    # the buffers carry nothing from one solve into the next
    assert np.array_equal(solver.solve(rho), v)
    # and full multigrid drives the same levels from outside
    assert np.isfinite(fmg_solve(grid, rho)).all()
    assert np.array_equal(solver.solve(rho), v)


#: what NumPy's ufunc iterator takes for a call on views strided along a
#: leading axis: up to three 8192-element buffers, whatever the array size
NUMPY_ITERATOR_BYTES = 3 * 8192 * 8


@pytest.mark.parametrize("points", [28, 56])
def test_second_multigrid_solve_allocates_only_its_result(cold, points):
    """The levels are built by the first solve; after it a solve takes the
    potential it returns and nothing else that grows with the grid."""
    grid = RealSpaceGrid(cold[0].lengths, (points,) * 3)
    rho = np.random.default_rng(points).random(grid.shape)
    solver = MultigridPoisson(grid)
    assert not solver.levels
    # OFF: an armed numerics checkpoint allocates its own finite-mask
    first = traced_peak(
        lambda: solver.solve(rho, max_cycles=2, instrumentation=OFF)
    )
    fine = 8 * grid.npoints
    owned = sum(
        array.nbytes for level in solver.levels
        for array in vars(level).values() if isinstance(array, np.ndarray)
    )
    assert 4 * fine <= owned <= first
    again = traced_peak(
        lambda: solver.solve(rho, max_cycles=2, instrumentation=OFF)
    )
    assert again <= fine + NUMPY_ITERATOR_BYTES + 16_384


# ---- XC and the energy expression --------------------------------------------

def test_blocked_lda_xc_equals_the_whole_array_evaluation(cold):
    _, _, rho = cold
    rho = rho.copy()
    rho[:2] = 0.0  # vacuum, both sides of the floor
    rho[2, :3] = xc.RHO_FLOOR * np.array([0.5, 1.0, 2.0])[:, None]
    assert rho.size % xc.XC_BLOCK  # a ragged last block
    ex, vx = xc.lda_exchange(rho)
    ec, vc = xc.lda_correlation(rho)
    eps, v = xc.lda_xc(rho)
    assert np.array_equal(eps, ex + ec) and np.array_equal(v, vx + vc)
    # a non-contiguous argument is the same function
    eps_t, v_t = xc.lda_xc(rho.T)
    assert np.array_equal(eps_t, eps.T) and np.array_equal(v_t, v.T)


def test_energy_expression_is_the_integrals_it_names(cold):
    grid, _, rho = cold
    rng = np.random.default_rng(11)
    vh, exc, vxc = (rng.standard_normal(grid.shape) for _ in range(3))
    parts = harris_foulkes_energy(grid, rho, vh, exc, vxc, -3.0, 0.5, -0.01)
    assert parts["hartree"] == pytest.approx(
        0.5 * grid.integrate(rho * vh), rel=1e-13)
    assert parts["double_count"] == pytest.approx(
        grid.integrate(rho * (vh + vxc)), rel=1e-13)
    assert parts["xc"] == pytest.approx(grid.integrate(rho * exc), rel=1e-13)
    assert parts["total"] == (
        -3.0 - parts["double_count"] + parts["hartree"] + parts["xc"] + 0.5
        - 0.01
    )


# ---- what each layer may allocate at 28³ --------------------------------------

def test_global_layers_allocate_within_their_budgets(cold):
    grid, config, rho = cold
    array = 8 * grid.npoints
    local_potential(grid, config)  # the species tables are built once
    assert traced_peak(lambda: xc.lda_xc(rho)) <= 3 * array
    assert traced_peak(lambda: local_potential(grid, config)) <= 1.0 * MB
    assert traced_peak(lambda: local_forces(grid, config, rho)) <= 1.0 * MB
    rng = np.random.default_rng(0)
    fields = [rng.standard_normal(grid.shape) for _ in range(3)]
    assert traced_peak(
        lambda: harris_foulkes_energy(grid, rho, *fields, 0.0, 0.0, 0.0)
    ) <= 0.1 * array
