"""Tests for the reciprocal-space Hartree solver."""

import numpy as np
import pytest

from repro.dft.grid import RealSpaceGrid
from repro.dft.hartree import hartree_energy, hartree_potential


@pytest.fixture()
def grid():
    return RealSpaceGrid([14.0, 14.0, 14.0], [30, 30, 30])


def test_poisson_equation_satisfied(grid, rng):
    rho = rng.random(grid.shape)
    v = hartree_potential(grid, rho)
    # check spectrally: ∇²V = -4π (ρ - ρ̄)
    lap = grid.ifft(-grid.g2() * grid.fft(v)).real
    rhs = -4 * np.pi * (rho - rho.mean())
    np.testing.assert_allclose(lap, rhs, atol=1e-9)


def test_zero_mean_potential(grid, rng):
    rho = rng.random(grid.shape)
    v = hartree_potential(grid, rho)
    assert abs(v.mean()) < 1e-12


def test_gaussian_charge_analytic(grid):
    """V of a Gaussian charge: q erf(r/(√2σ))/r (large box limit)."""
    sigma = 0.8
    center = grid.lengths / 2
    r = grid.min_image_distance(center)
    rho = np.exp(-0.5 * (r / sigma) ** 2) / ((2 * np.pi) ** 1.5 * sigma**3)
    q = grid.integrate(rho)
    v = hartree_potential(grid, rho)
    from scipy.special import erf

    with np.errstate(divide="ignore", invalid="ignore"):
        v_exact = np.where(r > 1e-9, q * erf(r / (np.sqrt(2) * sigma)) / r,
                           q * np.sqrt(2 / np.pi) / sigma)
    # compare at mid-range points where periodic images are negligible-ish;
    # both carry the same periodic correction so compare differences
    mask = (r > 1.0) & (r < 4.0)
    diff = (v - v_exact)[mask]
    # periodic image correction is nearly constant in the interior
    assert diff.std() < 2e-2 * np.abs(v_exact[mask]).max()


def test_hartree_energy_positive(grid, rng):
    rho = rng.random(grid.shape)
    assert hartree_energy(grid, rho) > 0


def test_hartree_energy_scales_quadratically(grid, rng):
    rho = rng.random(grid.shape)
    e1 = hartree_energy(grid, rho)
    e2 = hartree_energy(grid, 2 * rho)
    assert e2 == pytest.approx(4 * e1, rel=1e-10)


def test_hartree_linearity(grid, rng):
    r1 = rng.random(grid.shape)
    r2 = rng.random(grid.shape)
    v1 = hartree_potential(grid, r1)
    v2 = hartree_potential(grid, r2)
    v12 = hartree_potential(grid, r1 + r2)
    np.testing.assert_allclose(v12, v1 + v2, atol=1e-10)


def test_uniform_density_zero_potential(grid):
    v = hartree_potential(grid, np.full(grid.shape, 0.3))
    np.testing.assert_allclose(v, 0.0, atol=1e-12)


def complex_transform_oracle(grid, rho):
    """The formula ``hartree_potential`` used before it took the real
    transforms: full complex ``fftn``, ``4π ρ̃/G²`` on the whole grid."""
    rho_g = grid.fft(rho)
    g2 = grid.g2()
    vg = np.zeros_like(rho_g)
    nonzero = g2 > 0
    vg[nonzero] = 4.0 * np.pi * rho_g[nonzero] / g2[nonzero]
    return grid.ifft(vg).real


@pytest.mark.parametrize(
    "shape", [(30, 30, 30), (15, 9, 7), (12, 15, 10), (9, 16, 21), (4, 2, 3)]
)
def test_real_transform_solve_matches_the_complex_oracle(shape, rng):
    """Odd and even sizes on every axis (the even-size Nyquist plane sits
    at the end of the half grid): equal to 1e-13 relative, zero mean, and
    a real array that owns its memory — no view pinning a complex buffer."""
    grid = RealSpaceGrid([14.0, 11.0, 9.0], shape)
    rho = rng.random(grid.shape)
    v = hartree_potential(grid, rho)
    ref = complex_transform_oracle(grid, rho)
    assert np.abs(v - ref).max() <= 1e-13 * np.abs(ref).max()
    assert abs(grid.integrate(v)) <= 1e-12 * np.abs(ref).max() * grid.volume
    assert v.dtype == np.float64 and v.shape == grid.shape
    assert v.base is None and v.flags.c_contiguous
    kernel = grid.coulomb_kernel()
    assert kernel is grid.coulomb_kernel()  # cached beside g2()
    assert kernel.shape == shape[:2] + (shape[2] // 2 + 1,)
    assert kernel[0, 0, 0] == 0.0
