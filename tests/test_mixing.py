"""Tests for density mixing (Pulay/DIIS)."""

import numpy as np
import pytest

from repro.dft.mixing import PulayMixer, renormalize


def test_pulay_first_step_is_linear(rng):
    rho_in = rng.random((4, 4, 4))
    rho_out = rng.random((4, 4, 4))
    p = PulayMixer(alpha=0.3)
    np.testing.assert_allclose(
        p.mix(rho_in, rho_out), rho_in + 0.3 * (rho_out - rho_in)
    )


def test_pulay_history_validation():
    with pytest.raises(ValueError):
        PulayMixer(history=1)


def test_pulay_solves_linear_problem_fast():
    """For a linear fixed-point map, DIIS converges much faster than naive
    linear mixing."""
    rng = np.random.default_rng(3)
    n = 24
    a = rng.normal(size=(n, n))
    a = 0.45 * a / np.abs(np.linalg.eigvals(a)).max()  # spectral radius < 1
    b = rng.normal(size=n)
    fixed = np.linalg.solve(np.eye(n) - a, b)

    def sweep(mix, iters):
        x = np.zeros(n)
        for _ in range(iters):
            out = a @ x + b
            x = mix(x, out)
        return np.linalg.norm(x - fixed)

    err_pulay = sweep(PulayMixer(alpha=0.5, history=8).mix, 12)
    err_linear = sweep(lambda x, out: x + 0.5 * (out - x), 12)
    assert err_pulay < err_linear * 0.1


def test_pulay_reset(rng):
    p = PulayMixer(alpha=0.3)
    for _ in range(2):
        p.mix(rng.random((2, 2, 2)), rng.random((2, 2, 2)))
    assert p.pairs == 1
    p.reset()
    assert p.pairs == 0 and p._resid is None


def test_pulay_finite_output(rng):
    p = PulayMixer(alpha=0.8)
    for _ in range(4):
        out = p.mix(rng.random((3, 3, 3)), rng.random((3, 3, 3)))
    assert np.all(np.isfinite(out))


def test_pulay_history_window(rng):
    p = PulayMixer(alpha=0.3, history=3)
    for _ in range(6):
        p.mix(rng.random((2, 2, 2)), rng.random((2, 2, 2)))
    assert p.pairs == 2  # three iterates


def test_renormalize():
    rho = np.full((4, 4, 4), 2.0)
    out = renormalize(rho, 8.0, dv=0.5)
    assert np.sum(out) * 0.5 == pytest.approx(8.0)


def test_renormalize_zero_raises():
    with pytest.raises(ValueError):
        renormalize(np.zeros((2, 2, 2)), 4.0, 1.0)
