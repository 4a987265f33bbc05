"""Tests for the plane-wave basis."""

import numpy as np
import pytest

from repro.dft.basis import PlaneWaveBasis
from tests.oracles.reference import (
    basis_miller,
    density_from_orbitals,
    grid_g2,
    grid_g_vectors,
)


@pytest.fixture()
def basis(small_grid):
    return PlaneWaveBasis(small_grid, ecut=5.0)


def test_cutoff_respected(basis):
    assert np.all(0.5 * basis.g2 <= basis.ecut + 1e-12)


def test_npw_reasonable(basis):
    # Continuum estimate: N ≈ Ω (2 Ecut)^{3/2} / (6 π²)
    est = basis.grid.volume * (2 * basis.ecut) ** 1.5 / (6 * np.pi**2)
    assert 0.5 * est < basis.npw < 2.0 * est


def test_invalid_cutoff(small_grid):
    with pytest.raises(ValueError):
        PlaneWaveBasis(small_grid, -1.0)


def test_to_grid_normalization(basis):
    """Unit coefficient vector → unit-norm orbital on the grid."""
    c = np.zeros(basis.npw, dtype=complex)
    c[3] = 1.0
    field = basis.to_grid(c)
    norm = basis.grid.integrate(np.abs(field) ** 2)
    assert norm == pytest.approx(1.0, rel=1e-10)


def test_roundtrip(basis, rng):
    c = rng.normal(size=(basis.npw, 3)) + 1j * rng.normal(size=(basis.npw, 3))
    back = basis.from_grid(basis.to_grid(c))
    np.testing.assert_allclose(back, c, atol=1e-10)


def test_from_grid_adjoint(basis, rng):
    """<to_grid(c), f>_grid = <c, from_grid(f)>_pw (adjointness)."""
    c = rng.normal(size=basis.npw) + 1j * rng.normal(size=basis.npw)
    f = rng.normal(size=basis.grid.shape) + 1j * rng.normal(size=basis.grid.shape)
    lhs = np.sum(np.conj(basis.to_grid(c)) * f) * basis.grid.dv
    rhs = np.vdot(c, basis.from_grid(f))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_random_orbitals_orthonormal(basis):
    psi = basis.random_orbitals(5, seed=3)
    s = psi.conj().T @ psi
    np.testing.assert_allclose(s, np.eye(5), atol=1e-10)


def test_density_normalization(basis):
    psi = basis.random_orbitals(4, seed=1)
    occ = np.array([2.0, 2.0, 1.0, 0.0])
    rho = density_from_orbitals(basis, psi, occ)
    assert rho.min() >= -1e-12
    assert basis.grid.integrate(rho) == pytest.approx(5.0, rel=1e-9)


def test_density_occupation_mismatch(basis):
    psi = basis.random_orbitals(4)
    with pytest.raises(ValueError):
        density_from_orbitals(basis, psi, np.array([2.0, 2.0]))


def test_miller_indices_consistent(basis):
    """G vectors reconstructed from Miller indices match stored G vectors."""
    recon = 2 * np.pi * basis_miller(basis) / basis.grid.lengths[None, :]
    np.testing.assert_allclose(recon, basis.g_vectors, atol=1e-10)


def test_gamma_point_included(basis):
    assert np.any(np.all(basis_miller(basis) == 0, axis=1))


@pytest.mark.parametrize("shape", [(16, 16, 16), (9, 12, 11)])
def test_basis_caches_no_full_grid_g_table(shape):
    """The sphere and the per-plane-wave G tables are built per axis:
    nothing is left cached on the grid, and the tables are the bits the
    dense oracles give."""
    from repro.dft.grid import RealSpaceGrid

    grid = RealSpaceGrid([8.0, 9.0, 7.5], shape)
    basis = PlaneWaveBasis(grid, ecut=4.0)
    assert grid._g_cache == {}
    g2 = grid_g2(grid)
    assert np.array_equal(
        basis.indices, np.flatnonzero(0.5 * g2.ravel() <= basis.ecut)
    )
    assert np.array_equal(basis.g2, g2.ravel()[basis.indices])
    assert np.array_equal(
        basis.g_vectors, grid_g_vectors(grid).reshape(-1, 3)[basis.indices]
    )
