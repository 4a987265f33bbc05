"""Edge-case and robustness tests across the DFT substrate."""

import numpy as np
import pytest

from repro.dft.basis import PlaneWaveBasis
from repro.dft.grid import RealSpaceGrid
from repro.dft.hamiltonian import Hamiltonian
from repro.dft.hartree import hartree_potential
from repro.dft.occupations import find_chemical_potential, fermi_occupations
from repro.dft.pseudopotential import NonlocalProjectors, local_potential
from repro.dft.scf import SCFOptions, run_scf
from repro.systems import Configuration, dimer
from tests.oracles.reference import hamiltonian_dense


def test_charged_cell_forbidden_by_occupation_capacity():
    """More electrons than band capacity must raise, not wrap."""
    with pytest.raises(ValueError):
        find_chemical_potential(np.array([0.0, 1.0]), 10.0, kt=0.01)


def test_occupations_extreme_temperatures():
    eigs = np.linspace(-1, 1, 10)
    hot = fermi_occupations(eigs, 0.0, kt=10.0)
    # at very high T, all states approach equal (half) filling
    assert np.all(np.abs(hot - 1.0) < 0.1)
    cold = fermi_occupations(eigs, 0.0, kt=1e-8)
    assert set(np.round(cold, 6)) <= {0.0, 2.0, 1.0}


def test_single_atom_scf():
    cfg = Configuration(["H"], [[6.0, 6.0, 6.0]], [12.0, 12.0, 12.0])
    res = run_scf(cfg, SCFOptions(ecut=6.0, extra_bands=2, tol=1e-6))
    assert res.converged
    assert res.grid.integrate(res.density) == pytest.approx(1.0, rel=1e-9)
    # odd electron count: half-filled HOMO
    assert res.states[0].occupations[0] == pytest.approx(1.0, abs=0.05)


def test_heavy_species_scf():
    """Se (6 valence electrons) exercises the deeper pseudopotential."""
    cfg = Configuration(["Se"], [[7.0, 7.0, 7.0]], [14.0, 14.0, 14.0])
    res = run_scf(cfg, SCFOptions(ecut=5.0, extra_bands=4, tol=1e-5, max_iter=80))
    assert res.converged
    assert res.energy < 0


def test_anisotropic_cell_scf():
    cfg = dimer("H", "H", 1.5, 12.0)
    cfg.cell = np.array([14.0, 11.0, 12.0])
    res = run_scf(cfg, SCFOptions(ecut=5.0, tol=1e-5))
    assert res.converged


def test_hartree_of_point_like_density_is_positive_at_center():
    grid = RealSpaceGrid([10.0, 10.0, 10.0], [20, 20, 20])
    r = grid.min_image_distance(grid.lengths / 2)
    rho = np.exp(-((r / 0.8) ** 2))
    v = hartree_potential(grid, rho)
    center = tuple(s // 2 for s in grid.shape)
    assert v[center] == v.max()


def test_local_potential_periodic_images_match_wrapped_atom():
    grid = RealSpaceGrid([10.0, 10.0, 10.0], [20, 20, 20])
    a = Configuration(["O"], [[0.5, 5.0, 5.0]], grid.lengths)
    b = Configuration(["O"], [[10.5, 5.0, 5.0]], grid.lengths)  # wraps to 0.5
    np.testing.assert_allclose(
        local_potential(grid, a), local_potential(grid, b), atol=1e-10
    )


def test_hamiltonian_with_many_projectors():
    grid = RealSpaceGrid([12.0, 12.0, 12.0], [16, 16, 16])
    syms = ["Al"] * 6
    rng = np.random.default_rng(0)
    pos = rng.uniform(2, 10, size=(6, 3))
    cfg = Configuration(syms, pos, grid.lengths)
    basis = PlaneWaveBasis(grid, 4.0)
    nl = NonlocalProjectors(basis, cfg)
    assert nl.nproj == 6
    ham = Hamiltonian(basis, local_potential(grid, cfg), nl)
    h = hamiltonian_dense(ham)
    np.testing.assert_allclose(h, h.conj().T, atol=1e-10)


def test_scf_max_iter_respected():
    cfg = dimer("H", "H", 1.5, 12.0)
    res = run_scf(cfg, SCFOptions(ecut=5.0, tol=1e-14, max_iter=3))
    assert res.iterations == 3
    assert not res.converged
    assert np.isfinite(res.energy)


def test_scf_zero_temperature():
    cfg = dimer("H", "H", 1.5, 12.0)
    res = run_scf(cfg, SCFOptions(ecut=5.0, kt=0.0, tol=1e-5))
    assert res.converged
    assert res.components["entropy_term"] == 0.0
    np.testing.assert_allclose(
        np.sort(res.states[0].occupations)[::-1][:1], [2.0]
    )


def test_basis_cutoff_monotone():
    grid = RealSpaceGrid([10.0, 10.0, 10.0], [20, 20, 20])
    sizes = [PlaneWaveBasis(grid, e).npw for e in (2.0, 4.0, 8.0)]
    assert sizes[0] < sizes[1] < sizes[2]


def test_grid_spacing_consistency():
    grid = RealSpaceGrid([9.0, 12.0, 15.0], [18, 24, 30])
    np.testing.assert_allclose(grid.spacing, 0.5)
    assert grid.dv == pytest.approx(0.125)
