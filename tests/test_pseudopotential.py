"""Tests for local pseudopotentials and Kleinman–Bylander projectors."""

import numpy as np
import pytest

from repro.constants import get_species
from repro.dft.basis import PlaneWaveBasis
from repro.dft.grid import RealSpaceGrid
from repro.dft.pseudopotential import (
    NonlocalProjectors,
    local_potential,
    local_potential_ft,
    structure_factors,
)
from repro.systems import Configuration, dimer


@pytest.fixture()
def grid():
    return RealSpaceGrid([12.0, 12.0, 12.0], [24, 24, 24])


def test_local_ft_g0_is_alpha():
    out = local_potential_ft(np.array([0.0]), zval=3.0, rc=1.2)
    assert out[0] == pytest.approx(2 * np.pi * 3.0 * 1.2**2)


def test_local_ft_matches_coulomb_at_small_g():
    """For G rc << 1 the FT approaches -4πZ/G²."""
    g2 = np.array([1e-4])
    out = local_potential_ft(g2, zval=2.0, rc=0.5)
    assert out[0] == pytest.approx(-4 * np.pi * 2.0 / 1e-4, rel=1e-3)


def test_local_potential_realspace_shape(grid):
    """V_loc(r) ≈ -Z erf(r/(√2 rc))/r + const near an isolated atom."""
    cfg = Configuration(["H"], [grid.lengths / 2], grid.lengths)
    v = local_potential(grid, cfg)
    sp = get_species("H")
    r = grid.min_image_distance(grid.lengths / 2)
    from scipy.special import erf

    with np.errstate(divide="ignore", invalid="ignore"):
        v_exact = np.where(
            r > 1e-9,
            -sp.zval * erf(r / (np.sqrt(2) * sp.rc_loc)) / r,
            -sp.zval * np.sqrt(2 / np.pi) / sp.rc_loc,
        )
    mask = (r > 0.5) & (r < 4.0)
    diff = (v - v_exact)[mask]
    # agreement up to the (nearly constant) periodic-image offset
    assert diff.std() < 5e-3


def test_local_potential_attractive_at_nucleus(grid):
    cfg = Configuration(["O"], [grid.lengths / 2], grid.lengths)
    v = local_potential(grid, cfg)
    center_idx = tuple(s // 2 for s in grid.shape)
    assert v[center_idx] < -1.0
    assert v[center_idx] == v.min()


def test_local_potential_additive(grid):
    a = Configuration(["H"], [[3.0, 6.0, 6.0]], grid.lengths)
    b = Configuration(["H"], [[9.0, 6.0, 6.0]], grid.lengths)
    ab = Configuration(["H", "H"], [[3.0, 6.0, 6.0], [9.0, 6.0, 6.0]], grid.lengths)
    np.testing.assert_allclose(
        local_potential(grid, ab),
        local_potential(grid, a) + local_potential(grid, b),
        atol=1e-10,
    )


def test_structure_factor_g0_counts_atoms(grid):
    cfg = dimer("H", "H", 2.0, 12.0)
    sf = structure_factors(grid, cfg)
    assert sf["H"][0, 0, 0] == pytest.approx(2.0)


def test_structure_factors_match_dense_evaluation(rng):
    """Per-axis phase products vs e^{-iG·R} on every grid point (≤1e-12),
    two species, non-cubic odd/even grid."""
    grid = RealSpaceGrid([9.0, 11.0, 14.0], [9, 12, 14])
    symbols = ["Li", "Al", "Li", "Al", "Al"]
    cfg = Configuration(
        symbols, rng.uniform(0.0, 1.0, size=(5, 3)) * grid.lengths, grid.lengths
    )
    sf = structure_factors(grid, cfg)
    gv = grid.g_vectors().reshape(-1, 3)
    assert set(sf) == {"Li", "Al"}
    for symbol, got in sf.items():
        pos = cfg.positions[[s == symbol for s in symbols]]
        dense = np.exp(-1j * gv @ pos.T).sum(axis=1).reshape(grid.shape)
        assert np.abs(got - dense).max() <= 1e-12


def test_projectors_normalized(grid):
    cfg = Configuration(["Al"], [grid.lengths / 2], grid.lengths)
    basis = PlaneWaveBasis(grid, ecut=12.0)
    nl = NonlocalProjectors(basis, cfg)
    assert nl.nproj == 1
    norm = np.linalg.norm(nl.b[:, 0])
    # Gaussian projector should be ~normalized once the basis resolves it
    assert norm == pytest.approx(1.0, rel=0.05)


def test_hydrogen_has_no_projector(grid):
    cfg = Configuration(["H"], [grid.lengths / 2], grid.lengths)
    basis = PlaneWaveBasis(grid, ecut=8.0)
    nl = NonlocalProjectors(basis, cfg)
    assert nl.nproj == 0
    psi = basis.random_orbitals(2)
    np.testing.assert_array_equal(nl.apply(psi), 0.0)
    assert nl.energy(psi, np.array([2.0, 2.0])) == 0.0


def test_apply_matches_dense(grid):
    cfg = dimer("Al", "Si", 4.0, 12.0)
    basis = PlaneWaveBasis(grid, ecut=6.0)
    nl = NonlocalProjectors(basis, cfg)
    assert nl.nproj == 2
    psi = basis.random_orbitals(3, seed=2)
    np.testing.assert_allclose(nl.apply(psi), nl.dense() @ psi, atol=1e-10)


def test_energy_matches_expectation(grid):
    cfg = dimer("Al", "Al", 4.0, 12.0)
    basis = PlaneWaveBasis(grid, ecut=6.0)
    nl = NonlocalProjectors(basis, cfg)
    psi = basis.random_orbitals(2, seed=5)
    occ = np.array([2.0, 1.0])
    expect = sum(
        occ[n] * np.real(np.vdot(psi[:, n], nl.apply(psi[:, n : n + 1])[:, 0]))
        for n in range(2)
    )
    assert nl.energy(psi, occ) == pytest.approx(expect, rel=1e-10)


def test_nonlocal_energy_positive_for_positive_d(grid):
    """D > 0 projectors give nonnegative nonlocal energy."""
    cfg = dimer("Al", "Al", 4.0, 12.0)
    basis = PlaneWaveBasis(grid, ecut=6.0)
    nl = NonlocalProjectors(basis, cfg)
    psi = basis.random_orbitals(3, seed=8)
    assert nl.energy(psi, np.array([2.0, 2.0, 2.0])) >= 0.0


def test_projector_translation_phase(grid):
    """Moving the atom multiplies the projector column by a phase — overlap
    magnitudes with any fixed ψ built from the same shift are invariant."""
    basis = PlaneWaveBasis(grid, ecut=6.0)
    c1 = Configuration(["Al"], [[3.0, 3.0, 3.0]], grid.lengths)
    c2 = Configuration(["Al"], [[5.0, 4.0, 3.5]], grid.lengths)
    n1 = NonlocalProjectors(basis, c1)
    n2 = NonlocalProjectors(basis, c2)
    np.testing.assert_allclose(
        np.abs(n1.b[:, 0]), np.abs(n2.b[:, 0]), atol=1e-12
    )
