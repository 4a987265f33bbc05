"""Tests for Hellmann–Feynman forces."""

import numpy as np
import pytest

from repro.dft.forces import forces_from_scf, local_forces
from repro.dft.pseudopotential import NonlocalProjectors
from repro.dft.scf import SCFOptions, run_scf
from repro.systems import dimer, water_molecule
from tests.oracles.global_scf import hellmann_feynman_forces, nonlocal_forces


def test_h2_forces_antisymmetric(h2_config, h2_scf):
    f = forces_from_scf(h2_config, h2_scf)
    np.testing.assert_allclose(f[0], -f[1], atol=1e-6)


def test_h2_forces_along_axis(h2_config, h2_scf):
    f = forces_from_scf(h2_config, h2_scf)
    # dimer is along x: y, z components vanish
    np.testing.assert_allclose(f[:, 1:], 0.0, atol=1e-6)


def test_compressed_dimer_repels():
    cfg = dimer("H", "H", 0.8, 12.0)
    opts = SCFOptions(ecut=8.0, extra_bands=3, tol=1e-8, eig_tol=1e-9)
    res = run_scf(cfg, opts)
    f = forces_from_scf(cfg, res)
    # atom 0 at smaller x: pushed in -x; atom 1 pushed in +x
    assert f[0, 0] < 0 < f[1, 0]


def test_stretched_dimer_attracts():
    cfg = dimer("H", "H", 2.6, 12.0)
    opts = SCFOptions(ecut=8.0, extra_bands=3, tol=1e-8, eig_tol=1e-9)
    res = run_scf(cfg, opts)
    f = forces_from_scf(cfg, res)
    assert f[0, 0] > 0 > f[1, 0]


def test_force_matches_finite_difference():
    """The decisive validation: F = -dE/dR at self-consistency."""
    opts = SCFOptions(ecut=8.0, extra_bands=3, tol=1e-9, eig_tol=1e-9)
    base = dimer("H", "H", 1.5, 12.0)
    res = run_scf(base, opts)
    f = forces_from_scf(base, res)
    h = 1e-3
    p = base.copy()
    p.positions[1, 0] += h
    m = base.copy()
    m.positions[1, 0] -= h
    fd = -(run_scf(p, opts).energy - run_scf(m, opts).energy) / (2 * h)
    assert f[1, 0] == pytest.approx(fd, abs=5e-5)


def test_nonlocal_force_finite_difference():
    """Same FD check on a species with a nonlocal projector (Li)."""
    opts = SCFOptions(ecut=6.0, extra_bands=3, tol=1e-9, eig_tol=1e-9)
    base = dimer("Li", "Li", 4.0, 14.0)
    res = run_scf(base, opts)
    f = forces_from_scf(base, res)
    h = 2e-3
    p = base.copy()
    p.positions[1, 0] += h
    m = base.copy()
    m.positions[1, 0] -= h
    fd = -(run_scf(p, opts).energy - run_scf(m, opts).energy) / (2 * h)
    assert f[1, 0] == pytest.approx(fd, abs=2e-4)


def test_local_forces_zero_for_uniform_density(h2_config):
    from repro.dft.grid import RealSpaceGrid

    grid = RealSpaceGrid.for_cutoff(h2_config.cell, 6.0)
    rho = np.full(grid.shape, 0.01)
    f = local_forces(grid, h2_config, rho)
    np.testing.assert_allclose(f, 0.0, atol=1e-10)


def test_nonlocal_forces_no_projectors(h2_config, h2_scf):
    (state,) = h2_scf.states
    nl = NonlocalProjectors(state.basis, h2_config)
    f = nonlocal_forces(
        state.basis, h2_config, nl, state.psi, state.occupations
    )
    np.testing.assert_array_equal(f, 0.0)  # H has no nonlocal channel


def test_total_force_zero(h2_config, h2_scf):
    """Momentum conservation: Σ_I F_I = 0."""
    f = forces_from_scf(h2_config, h2_scf)
    np.testing.assert_allclose(f.sum(axis=0), 0.0, atol=1e-6)


@pytest.mark.parametrize("system", ["h2", "water"])
def test_the_one_assembly_equals_the_hellmann_feynman_sum(system):
    """``forces_from_scf`` is the LDC assembly on the one whole-cell
    domain; written out term by term (local + every projector + Ewald) on
    the same state it is the same number."""
    if system == "h2":
        config = dimer("H", "H", 1.4, 12.0)
    else:
        config = water_molecule(center=(6.0, 6.0, 6.0), cell=(12.0, 12.0, 12.0))
    res = run_scf(config, SCFOptions(ecut=5.0, tol=1e-6))
    (state,) = res.states
    reference = hellmann_feynman_forces(
        config, state.basis, res.density, state.psi, state.occupations
    )
    assert np.abs(forces_from_scf(config, res) - reference).max() <= 1e-12
