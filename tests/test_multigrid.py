"""Tests for the real-space multigrid Poisson solver (GSLF global half)."""

import numpy as np
import pytest

from repro.dft.grid import RealSpaceGrid
from repro.dft.hartree import hartree_potential
from repro.multigrid import GridHierarchy, MultigridPoisson
from repro.multigrid.stencils import (
    gauss_seidel_sweeps,
    laplacian_into,
    residual_into,
    squared_spacings,
)
from repro.multigrid.transfer import prolong_into, restrict_into


@pytest.fixture()
def grid():
    return RealSpaceGrid([10.0, 10.0, 10.0], [32, 32, 32])


def buffers(shape, n):
    """``n`` uninitialised float arrays of ``shape`` for the kernels'
    ``out`` and scratch arguments."""
    return [np.empty(shape) for _ in range(n)]


def residual_norm(v, rhs, spacing):
    """‖rhs − ∇²v‖ with the solver's own stencil."""
    h2 = squared_spacings(spacing)[0]
    return np.linalg.norm(residual_into(v, rhs, h2, *buffers(v.shape, 3)))


# ---- stencils ----------------------------------------------------------------

def test_laplacian_of_constant_is_zero():
    f = np.full((8, 8, 8), 3.14)
    lap = laplacian_into(f, squared_spacings([1.0] * 3)[0], *buffers(f.shape, 3))
    np.testing.assert_allclose(lap, 0.0, atol=1e-12)


def test_laplacian_plane_wave_eigenvalue():
    """The 7-point stencil has eigenvalue (2cos(kh)-2)/h² on e^{ikx}."""
    n, L = 16, 8.0
    h = L / n
    x = np.arange(n) * h
    k = 2 * np.pi / L
    f = np.cos(k * x)[:, None, None] * np.ones((1, n, n))
    lap = laplacian_into(f, squared_spacings([h] * 3)[0], *buffers(f.shape, 3))
    lam = (2 * np.cos(k * h) - 2) / h**2
    np.testing.assert_allclose(lap, lam * f, atol=1e-10)


def test_smoothers_reduce_residual():
    rng = np.random.default_rng(0)
    rhs = rng.normal(size=(16, 16, 16))
    rhs -= rhs.mean()
    spacing = [0.5, 0.5, 0.5]
    u = np.zeros_like(rhs)
    r0 = residual_norm(u, rhs, spacing)
    inv_h2 = squared_spacings(spacing)[1]
    gauss_seidel_sweeps(u, rhs, inv_h2, 10, *buffers(u.shape, 2))
    assert residual_norm(u, rhs, spacing) < r0


# ---- transfers -----------------------------------------------------------------

def test_restrict_constant():
    f = np.full((8, 8, 8), 2.5)
    c = restrict_into(f, np.empty((4, 4, 4)), np.empty(f.size))
    assert c.shape == (4, 4, 4)
    np.testing.assert_allclose(c, 2.5, atol=1e-12)


def test_prolong_constant():
    c = np.full((4, 4, 4), 1.5)
    f = prolong_into(c, np.empty((8, 8, 8)), np.empty(6 * c.size))
    assert f.shape == (8, 8, 8)
    np.testing.assert_allclose(f, 1.5, atol=1e-12)


def test_restrict_odd_shape_raises():
    with pytest.raises(ValueError):
        restrict_into(np.zeros((7, 8, 8)), np.empty((3, 4, 4)), np.empty(448))


def test_prolong_injects_coarse_points():
    rng = np.random.default_rng(1)
    c = rng.normal(size=(4, 4, 4))
    f = prolong_into(c, np.empty((8, 8, 8)), np.empty(6 * c.size))
    np.testing.assert_allclose(f[::2, ::2, ::2], c, atol=1e-12)


def test_prolong_linear_exactness():
    """Trilinear prolongation reproduces a periodic linear-in-sin field at
    midpoints to second order (sanity of the interpolation stencil)."""
    n = 8
    x = np.arange(n) / n
    c = np.sin(2 * np.pi * x)[:, None, None] * np.ones((1, n, n))
    f = prolong_into(c, np.empty((2 * n,) * 3), np.empty(6 * c.size))
    xf = np.arange(2 * n) / (2 * n)
    exact = np.sin(2 * np.pi * xf)[:, None, None] * np.ones((1, 2 * n, 2 * n))
    # linear interpolation error ≤ (kh)²/8 ≈ 0.077 for k = 2π/L, h = L/8
    assert np.abs(f - exact).max() < 0.08


def test_transfer_adjointness():
    """<R f, c>_coarse = <f, P c>_fine / 8 (standard scaling relation)."""
    rng = np.random.default_rng(2)
    f = rng.normal(size=(8, 8, 8))
    c = rng.normal(size=(4, 4, 4))
    lhs = np.sum(restrict_into(f, np.empty(c.shape), np.empty(f.size)) * c)
    rhs = np.sum(f * prolong_into(c, np.empty(f.shape), np.empty(6 * c.size))) / 8.0
    assert lhs == pytest.approx(rhs, rel=1e-10)


# ---- hierarchy ------------------------------------------------------------------

def test_hierarchy_levels():
    h = GridHierarchy([8.0, 8.0, 8.0], (32, 32, 32), min_size=4)
    assert h.shapes[0] == (32, 32, 32)
    assert h.shapes[-1] == (4, 4, 4)
    assert h.nlevels == 4


def test_hierarchy_volume_geometric():
    h = GridHierarchy([8.0] * 3, (32, 32, 32))
    vols = [int(np.prod(shape)) for shape in h.shapes]
    for a, b in zip(vols, vols[1:]):
        assert a == 8 * b
    # total work bounded by 8/7 of finest
    assert sum(vols) < (8 / 7) * vols[0] * 1.01


def test_hierarchy_too_small_raises():
    with pytest.raises(ValueError):
        GridHierarchy([1.0] * 3, (2, 2, 2), min_size=4)


# ---- V-cycle solver ---------------------------------------------------------------

def test_vcycle_converges(grid):
    rng = np.random.default_rng(3)
    rho = rng.random(grid.shape)
    mg = MultigridPoisson(grid)
    v = mg.solve(rho, tol=1e-9)
    assert mg.last_stats.converged
    rhs = -4 * np.pi * (rho - rho.mean())
    rel = residual_norm(v, rhs, grid.spacing) / np.linalg.norm(rhs)
    assert rel < 1e-8


def test_vcycle_convergence_rate(grid):
    """Textbook multigrid: ~order-of-magnitude residual drop per V-cycle."""
    rng = np.random.default_rng(4)
    rho = rng.random(grid.shape)
    mg = MultigridPoisson(grid)
    mg.solve(rho, tol=1e-12, max_cycles=8)
    norms = mg.last_stats.residual_norms
    # geometric-mean contraction factor per cycle
    factor = (norms[-1] / norms[0]) ** (1.0 / (len(norms) - 1))
    assert factor < 0.25


def test_vcycle_matches_fft_solution(grid):
    """FD multigrid ↔ spectral solutions agree to discretization error."""
    # use a smooth density so the h² error is small
    r = grid.min_image_distance(grid.lengths / 2)
    rho = np.exp(-0.5 * (r / 1.5) ** 2)
    mg = MultigridPoisson(grid)
    v_mg = mg.solve(rho, tol=1e-10)
    v_fft = hartree_potential(grid, rho)
    scale = np.abs(v_fft).max()
    assert np.abs((v_mg - v_mg.mean()) - (v_fft - v_fft.mean())).max() < 0.02 * scale


def test_warm_start_reduces_cycles(grid):
    rng = np.random.default_rng(5)
    rho = rng.random(grid.shape)
    mg = MultigridPoisson(grid)
    v = mg.solve(rho, tol=1e-9)
    cold = mg.last_stats.cycles
    mg.solve(rho, v0=v, tol=1e-9)
    warm = mg.last_stats.cycles
    assert warm < cold


def test_anisotropic_grid():
    g = RealSpaceGrid([8.0, 12.0, 16.0], [16, 16, 32])
    rng = np.random.default_rng(6)
    rho = rng.random(g.shape)
    mg = MultigridPoisson(g)
    v = mg.solve(rho, tol=1e-8, max_cycles=60)
    rhs = -4 * np.pi * (rho - rho.mean())
    rel = residual_norm(v, rhs, g.spacing) / np.linalg.norm(rhs)
    assert rel < 1e-7
