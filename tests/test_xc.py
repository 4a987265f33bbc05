"""Tests for the LDA (PZ81) exchange-correlation functional."""

import numpy as np
import pytest

from repro.dft.xc import (
    RHO_FLOOR,
    lda_correlation,
    lda_exchange,
    lda_xc,
)


def test_exchange_known_value():
    """ε_x(ρ=1) = -(3/4)(3/π)^{1/3} ≈ -0.73856."""
    eps, _ = lda_exchange(np.array([1.0]))
    assert eps[0] == pytest.approx(-0.738558766, rel=1e-6)


def test_exchange_potential_relation():
    """v_x = (4/3) ε_x for LDA exchange."""
    rho = np.array([0.1, 1.0, 5.0])
    eps, v = lda_exchange(rho)
    np.testing.assert_allclose(v, 4.0 / 3.0 * eps)


def test_correlation_negative():
    rho = np.logspace(-3, 1, 20)
    eps, v = lda_correlation(rho)
    assert np.all(eps < 0)
    assert np.all(v < 0)


def test_correlation_branches_nearly_continuous():
    """PZ81 branches join at rs = 1 up to the parametrization's own small
    (~3·10⁻⁵ Ha) published mismatch."""
    rho_rs1 = 3.0 / (4.0 * np.pi)  # rs = 1
    eps_m, _ = lda_correlation(np.array([rho_rs1 * (1 + 1e-8)]))
    eps_p, _ = lda_correlation(np.array([rho_rs1 * (1 - 1e-8)]))
    assert eps_m[0] == pytest.approx(eps_p[0], abs=1e-4)


def test_correlation_high_density_limit():
    """For rs → 0 the PZ log term dominates: ε_c → A ln rs + B."""
    rho = 3.0 / (4.0 * np.pi * (0.01) ** 3)  # rs = 0.01
    eps, _ = lda_correlation(np.array([rho]))
    expected = 0.0311 * np.log(0.01) - 0.048 + 0.0020 * 0.01 * np.log(0.01) - 0.0116 * 0.01
    assert eps[0] == pytest.approx(expected, rel=1e-10)


def test_vacuum_is_zero():
    eps, v = lda_xc(np.zeros(5))
    np.testing.assert_array_equal(eps, 0.0)
    np.testing.assert_array_equal(v, 0.0)


def test_potential_from_energy_derivative():
    """v_xc must equal d(ρ ε_xc)/dρ — check by finite differences."""
    for rho0 in (0.05, 0.3, 2.0):
        h = rho0 * 1e-6
        e_p, _ = lda_xc(np.array([rho0 + h]))
        e_m, _ = lda_xc(np.array([rho0 - h]))
        f_p = (rho0 + h) * e_p[0]
        f_m = (rho0 - h) * e_m[0]
        _, v = lda_xc(np.array([rho0]))
        assert v[0] == pytest.approx((f_p - f_m) / (2 * h), rel=1e-5)


def test_monotonic_exchange():
    """|ε_x| grows with density."""
    rho = np.array([0.1, 1.0, 10.0])
    eps, _ = lda_exchange(rho)
    assert eps[0] > eps[1] > eps[2]


def test_floor_consistency():
    eps, v = lda_xc(np.array([RHO_FLOOR / 10]))
    assert eps[0] == 0.0 and v[0] == 0.0
