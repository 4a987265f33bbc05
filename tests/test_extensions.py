"""Tests for the extension modules: the μ search and the campaign
planner."""

import numpy as np
import pytest

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

