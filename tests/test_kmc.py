"""Tests for the hydrogen-on-demand kinetic Monte Carlo engine."""

import numpy as np
import pytest

from repro.constants import KB_EV
from repro.reactive.analysis import arrhenius_fit, rate_with_error
from repro.reactive.kmc import KMCOptions, run_kmc
from repro.systems import lial_nanoparticle


@pytest.fixture(scope="module")
def particle():
    return lial_nanoparticle(30)


def _run(particle, **kw):
    defaults = dict(temperature=1500.0, max_time=5e-8, seed=1)
    defaults.update(kw)
    return run_kmc(particle, KMCOptions(**defaults))


def test_kmc_produces_hydrogen(particle):
    res = _run(particle)
    assert res.total_h2 > 0
    assert res.final_time > 0


def test_h2_counts_monotone(particle):
    res = _run(particle)
    assert np.all(np.diff(res.h2_counts) >= 0)


def test_times_monotone(particle):
    res = _run(particle)
    assert np.all(np.diff(res.times) >= 0)


def test_deterministic_given_seed(particle):
    a = _run(particle, seed=3)
    b = _run(particle, seed=3)
    assert a.total_h2 == b.total_h2
    np.testing.assert_allclose(a.times, b.times)


def test_rate_increases_with_temperature(particle):
    rates = [
        _run(particle, temperature=t, seed=5).production_rate()
        for t in (300.0, 600.0, 1500.0)
    ]
    assert rates[0] < rates[1] < rates[2]


def test_ph_rises_with_li_dissolution(particle):
    res = _run(particle, max_time=2e-7)
    if res.dissolved_li > 0:
        assert res.ph_history[-1] > res.ph_history[0]


def test_pure_al_is_orders_of_magnitude_slower(particle):
    """Ref. 47 baseline: pure Al reacts far slower than LiAl."""
    lial = _run(particle, temperature=300.0, max_time=1e-7, seed=7)
    pure = _run(particle, temperature=300.0, max_time=1e-7, seed=7, pure_al=True)
    # At 300 K the barrier gap (0.068 vs 0.40 eV) is a factor ~4e5 in rate
    assert pure.total_h2 * 100 < max(lial.total_h2, 1)


def test_paper_rate_at_300k(particle):
    """Fig. 9(a): ≈ 1.04·10⁹ H₂/s per LiAl pair at 300 K (rate-limited by
    dissociation; recombination pairs two H* per H₂, halving the through
    rate — accept the order of magnitude and the Arrhenius slope)."""
    runs = [
        _run(particle, temperature=300.0, max_time=2e-8, seed=s)
        for s in range(4)
    ]
    mean, _ = rate_with_error(runs)
    per_pair = mean / runs[0].n_pairs
    assert 1e8 < per_pair < 5e9


def test_arrhenius_recovers_designed_barrier(particle):
    """Fitting rates at the paper's three temperatures must recover
    E_a ≈ 0.068 eV."""
    temps = [300.0, 600.0, 1500.0]
    rates = []
    for t in temps:
        runs = [
            _run(particle, temperature=t, max_time=2e-8, seed=s)
            for s in range(3)
        ]
        rates.append(rate_with_error(runs)[0])
    fit = arrhenius_fit(temps, rates)
    assert fit.activation_ev == pytest.approx(0.068, abs=0.025)
    assert fit.r_squared > 0.95


def test_empty_particle_is_safe():
    from repro.systems import Configuration

    empty = Configuration(["O"], [[5.0, 5.0, 5.0]], [10.0, 10.0, 10.0])
    res = run_kmc(empty, KMCOptions(max_time=1e-9))
    assert res.total_h2 == 0


def test_event_budget_respected(particle, monkeypatch):
    from repro.reactive import kmc

    monkeypatch.setattr(kmc, "MAX_EVENTS", 50)
    res = _run(particle, max_time=1.0)
    total_events = sum(res.events.values())
    assert total_events <= 50


# ---- analysis helpers -----------------------------------------------------------

def test_arrhenius_fit_exact():
    temps = np.array([300.0, 500.0, 900.0, 1500.0])
    ea, a = 0.1, 1e10
    rates = a * np.exp(-ea / (KB_EV * temps))
    fit = arrhenius_fit(temps, rates)
    assert fit.activation_ev == pytest.approx(ea, rel=1e-9)
    assert fit.prefactor == pytest.approx(a, rel=1e-6)
    assert fit.r_squared == pytest.approx(1.0)


def test_arrhenius_fit_validation():
    with pytest.raises(ValueError):
        arrhenius_fit([300.0], [1.0])
    with pytest.raises(ValueError):
        arrhenius_fit([300.0, 600.0], [1.0, -1.0])
