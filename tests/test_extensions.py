"""Tests for the extension modules: the μ search, FMG, halo exchange, the
DC parameter advisor, and the campaign planner."""

import numpy as np
import pytest

from repro.core.advisor import recommend_parameters
from repro.core.domains import DomainDecomposition
from repro.dft.grid import RealSpaceGrid
from repro.dft.occupations import fermi_occupations, find_chemical_potential
from repro.multigrid.fmg import fmg_solve, fmg_then_polish
from repro.multigrid.stencils import residual
from repro.parallel.comm import VirtualComm
from repro.parallel.halo import exchange_halos, halo_bytes_per_domain
from repro.perfmodel.campaign import (
    PAPER_PRODUCTION,
    CampaignSpec,
    plan_campaign,
)


# ---- the occupation rule ------------------------------------------------------

def test_find_mu_conserves_electrons():
    rng = np.random.default_rng(0)
    eigs = np.sort(rng.normal(size=30))
    ne = 17.0
    mu = find_chemical_potential(eigs, ne, 0.05)
    total = float(fermi_occupations(eigs, mu, 0.05).sum())
    assert total == pytest.approx(ne, abs=1e-9)


def test_find_mu_capacity_check():
    with pytest.raises(ValueError):
        find_chemical_potential(np.array([0.0]), 5.0, 0.01)


def test_scf_unknown_smearing_raises():
    """Fermi–Dirac is the one occupation rule: ``SCFOptions`` has no
    smearing selector to set, whatever the scheme named."""
    from repro.dft.scf import SCFOptions

    for scheme in ("fermi", "gaussian", "bogus"):
        with pytest.raises(TypeError, match="smearing"):
            SCFOptions(ecut=5.0, smearing=scheme)


# ---- FMG -----------------------------------------------------------------------

def test_fmg_reaches_small_residual():
    grid = RealSpaceGrid([10.0, 10.0, 10.0], [32, 32, 32])
    r = grid.min_image_distance(grid.lengths / 2)
    rho = np.exp(-0.5 * (r / 1.5) ** 2)
    u = fmg_solve(grid, rho, vcycles_per_level=2)
    rhs = -4 * np.pi * (rho - rho.mean())
    rel = np.linalg.norm(residual(u, rhs, grid.spacing)) / np.linalg.norm(rhs)
    # FMG with 2 cycles/level reaches well below 1% relative residual
    assert rel < 1e-2


def test_fmg_polish_matches_vcycle_solution():
    from repro.multigrid.poisson import MultigridPoisson

    grid = RealSpaceGrid([8.0, 8.0, 8.0], [16, 16, 16])
    rng = np.random.default_rng(1)
    rho = rng.random(grid.shape)
    u_fmg = fmg_then_polish(grid, rho, tol=1e-9)
    u_v = MultigridPoisson(grid).solve(rho, tol=1e-9)
    np.testing.assert_allclose(u_fmg, u_v, atol=1e-6)


def test_fmg_zero_mean():
    grid = RealSpaceGrid([8.0, 8.0, 8.0], [16, 16, 16])
    rho = np.random.default_rng(2).random(grid.shape)
    u = fmg_solve(grid, rho)
    assert abs(u.mean()) < 1e-12


# ---- halo exchange ----------------------------------------------------------------

def test_halo_exchange_reconstructs_extended_blocks(rng):
    grid = RealSpaceGrid([8.0, 8.0, 8.0], [16, 16, 16])
    decomp = DomainDecomposition(grid, (2, 2, 1), buffer_thickness=1.0)
    field = rng.random(grid.shape)
    cores = [d.core_extract(field) for d in decomp.domains]
    comm = VirtualComm(decomp.ndomains)
    extended = exchange_halos(comm, decomp, cores)
    for dom, ext in zip(decomp.domains, extended):
        np.testing.assert_allclose(ext, dom.extract(field), atol=1e-14)


def test_halo_exchange_rank_count_validation(rng):
    grid = RealSpaceGrid([8.0, 8.0, 8.0], [16, 16, 16])
    decomp = DomainDecomposition(grid, (2, 1, 1), 1.0)
    with pytest.raises(ValueError):
        exchange_halos(VirtualComm(3), decomp, [np.zeros((8, 16, 16))] * 3)


def test_halo_bytes_shrink_with_buffer():
    grid = RealSpaceGrid([8.0, 8.0, 8.0], [16, 16, 16])
    thin = DomainDecomposition(grid, (2, 2, 2), 0.5)
    thick = DomainDecomposition(grid, (2, 2, 2), 2.0)
    assert halo_bytes_per_domain(thin) < halo_bytes_per_domain(thick)
    assert halo_bytes_per_domain(DomainDecomposition(grid, (2, 2, 2), 0.0)) == 0.0


def test_halo_exchange_charges_communication(rng):
    from repro.parallel.topology import TorusTopology
    from repro.parallel.trace import CostTracker

    grid = RealSpaceGrid([8.0, 8.0, 8.0], [16, 16, 16])
    decomp = DomainDecomposition(grid, (2, 1, 1), 1.0)
    tracker = CostTracker(2)
    comm = VirtualComm(2, tracker=tracker, topology=TorusTopology((2,)))
    cores = [d.core_extract(rng.random(grid.shape)) for d in decomp.domains]
    exchange_halos(comm, decomp, cores)
    assert tracker.elapsed() > 0


# ---- advisor -----------------------------------------------------------------------

def test_advisor_recovers_planted_decay():
    lam, amp = 1.5, 0.2
    bs = np.array([0.5, 1.0, 1.5, 2.0])
    errs = amp * np.exp(-bs / lam)
    rec = recommend_parameters(bs, errs, tolerance=1e-4, nu=2.0)
    assert rec.decay_length == pytest.approx(lam, rel=1e-6)
    # recommended buffer satisfies the tolerance by construction
    assert rec.predicted_error <= 1e-4 * (1 + 1e-9)
    assert rec.optimal_core_length == pytest.approx(2 * rec.recommended_buffer)


def test_advisor_clamps_to_probed_range():
    bs = np.array([1.0, 2.0, 3.0])
    errs = 1e-6 * np.exp(-bs)  # already far below tolerance
    rec = recommend_parameters(bs, errs, tolerance=1e-3)
    assert rec.recommended_buffer >= 1.0


def test_advisor_validation():
    with pytest.raises(ValueError):
        recommend_parameters([1.0, 2.0], [0.1, 0.2], tolerance=-1.0)


def test_advisor_crossover_reported():
    bs = np.array([1.0, 2.0, 3.0])
    errs = 0.1 * np.exp(-bs / 1.2)
    rec = recommend_parameters(bs, errs, 1e-3, number_density=0.005)
    assert rec.crossover_atoms is not None and rec.crossover_atoms > 0
    assert "recommend" in rec.summary()


# ---- campaign ------------------------------------------------------------------------

def test_paper_production_identities():
    spec = PAPER_PRODUCTION
    assert spec.scf_per_step == pytest.approx(6.11, abs=0.01)
    assert spec.simulated_ps == pytest.approx(5.116, abs=0.001)


def test_campaign_plan_sane():
    plan = plan_campaign(PAPER_PRODUCTION)
    assert plan.seconds_per_scf > 0
    assert plan.total_hours > 1.0
    assert plan.io_seconds_per_session < 60.0


def test_campaign_scales_with_scf_count():
    small = plan_campaign(CampaignSpec(16_661, 1_000, 6_110))
    big = plan_campaign(PAPER_PRODUCTION)
    assert big.total_hours > 10 * small.total_hours

