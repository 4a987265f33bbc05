"""Unit tests for the DC energy assembly and DC force modules."""

import numpy as np
import pytest

import repro.core.ldc as ldc_module
from repro.core import LDCOptions, run_ldc
from repro.core.energy import dc_band_energy, dc_total_energy
from repro.core.forces import ldc_forces, nonlocal_forces_dc
from repro.dft.grid import RealSpaceGrid
from repro.dft.scf import SCFOptions, harris_foulkes_energy, potential_terms
from repro.systems import dimer


# ---- band-energy assembly --------------------------------------------------------

def test_dc_band_energy_single_domain():
    eigs = [np.array([-1.0, 0.5])]
    occs = [np.array([2.0, 0.0])]
    w = [np.array([1.0, 1.0])]
    assert dc_band_energy(eigs, occs, w) == pytest.approx(-2.0)


def test_dc_band_energy_weights_scale():
    eigs = [np.array([-1.0])]
    occs = [np.array([2.0])]
    assert dc_band_energy(eigs, occs, [np.array([0.5])]) == pytest.approx(-1.0)


def test_dc_band_energy_multiple_domains_additive():
    eigs = [np.array([-1.0]), np.array([-2.0])]
    occs = [np.array([2.0]), np.array([2.0])]
    w = [np.array([1.0]), np.array([1.0])]
    assert dc_band_energy(eigs, occs, w) == pytest.approx(-6.0)


def test_dc_total_energy_components():
    grid = RealSpaceGrid([4.0, 4.0, 4.0], [8, 8, 8])
    rho = np.full(grid.shape, 0.1)
    vh = np.zeros(grid.shape)
    exc = np.full(grid.shape, -0.15)
    vxc = np.full(grid.shape, -0.2)
    comps = dc_total_energy(
        potential_terms(grid, rho, vh, exc, vxc),
        band_energy=-3.0, e_ewald=1.0,
        all_eigs=np.array([-1.5]), all_weights=np.array([1.0]),
        mu=0.0, kt=0.0,
    )
    # double counting = ∫ρ vxc = 0.1 · (-0.2) · 64 = -1.28
    assert comps["double_count"] == pytest.approx(-1.28)
    # E_xc = ∫ρ ε_xc, from the pass's own ε_xc: 0.1 · (-0.15) · 64
    assert comps["xc"] == pytest.approx(-0.96)
    assert comps["total"] == pytest.approx(
        -3.0 - (-1.28) + comps["hartree"] + comps["xc"] + 1.0
    )
    assert comps["entropy_term"] == 0.0


@pytest.mark.parametrize("layout", ["ldc", "whole_cell"])
def test_pass_components_are_harris_foulkes_of_the_pass_fields(
    layout, monkeypatch
):
    """A pass reduces its fields to scalars before the domain solves and
    drops them; the components it reports are still ``==``
    ``harris_foulkes_energy`` applied to those very arrays — the V_H,
    ε_xc and v_xc of the pass's input density, which the spies keep."""
    last = {}  # the latest pass's fields
    xc, hartree = ldc_module.lda_xc, ldc_module.hartree_potential

    def xc_spy(rho):
        last["rho"] = rho
        last["exc"], last["vxc"] = xc(rho)
        return last["exc"], last["vxc"]

    def hartree_spy(grid, rho):
        last["vh"] = hartree(grid, rho)
        return last["vh"]

    monkeypatch.setattr(ldc_module, "lda_xc", xc_spy)
    monkeypatch.setattr(ldc_module, "hartree_potential", hartree_spy)
    cfg = dimer("H", "H", 1.5, 10.0)
    opts = LDCOptions(ecut=4.0, domains=(2, 1, 1), buffer=2.0, tol=1e-4)
    if layout == "whole_cell":
        opts = SCFOptions(ecut=4.0, tol=1e-4)
    result = run_ldc(cfg, opts)
    comps = result.components
    assert np.array_equal(last["rho"], result.input_density)
    parts = harris_foulkes_energy(
        potential_terms(
            result.grid, last["rho"], last["vh"], last["exc"], last["vxc"]
        ),
        comps["band"], comps["ewald"], comps["entropy_term"],
    )
    assert parts == comps
    assert comps["total"] == result.energy


# ---- DC forces -------------------------------------------------------------------

@pytest.fixture(scope="module")
def lial_ldc():
    cfg = dimer("Li", "Al", 4.5, 14.0)
    opts = LDCOptions(ecut=5.0, domains=(2, 1, 1), buffer=2.5, tol=1e-6,
                      extra_bands=6)
    return cfg, run_ldc(cfg, opts)


def test_nonlocal_dc_forces_shape(lial_ldc):
    cfg, result = lial_ldc
    f = nonlocal_forces_dc(cfg, result)
    assert f.shape == (2, 3)
    assert np.all(np.isfinite(f))


def test_ldc_total_forces_momentum(lial_ldc):
    cfg, result = lial_ldc
    f = ldc_forces(cfg, result)
    # translational invariance (approximate for DC, tight for a dimer)
    np.testing.assert_allclose(f.sum(axis=0), 0.0, atol=2e-2)


def test_ldc_forces_match_fd_loosely(lial_ldc):
    """DC forces approximate -dE/dR within the DC truncation error."""
    cfg, result = lial_ldc
    f = ldc_forces(cfg, result)
    opts = LDCOptions(ecut=5.0, domains=(2, 1, 1), buffer=2.5, tol=1e-7,
                      extra_bands=6)
    h = 5e-3
    p = cfg.copy()
    p.positions[1, 0] += h
    m = cfg.copy()
    m.positions[1, 0] -= h
    fd = -(run_ldc(p, opts).energy - run_ldc(m, opts).energy) / (2 * h)
    assert f[1, 0] == pytest.approx(fd, abs=2e-2)


def test_each_atom_owned_by_one_domain(lial_ldc):
    cfg, result = lial_ldc
    decomp = result.decomposition
    owners = [decomp.owner_domain(cfg.positions[i]) for i in range(len(cfg))]
    assert all(0 <= o < decomp.ndomains for o in owners)
