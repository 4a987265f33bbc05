"""Tests for the extension modules: the μ search, the DC parameter advisor,
and the campaign planner."""

import numpy as np
import pytest

from repro.core.advisor import recommend_parameters
from repro.dft.occupations import fermi_occupations, find_chemical_potential
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

