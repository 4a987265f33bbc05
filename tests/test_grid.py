"""Tests for the real-space grid and FFT conventions."""

import numpy as np
import pytest

from repro.dft.grid import RealSpaceGrid, _next_fast_size
from tests.oracles.reference import grid_fft, grid_g2, grid_g_vectors, grid_ifft


def test_basic_properties(small_grid):
    g = small_grid
    assert g.volume == pytest.approx(9.0 * 10.0 * 11.0)
    assert g.npoints == 12**3
    assert g.dv == pytest.approx(g.volume / g.npoints)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        RealSpaceGrid([1, -1, 1], [8, 8, 8])
    with pytest.raises(ValueError):
        RealSpaceGrid([1, 1, 1], [8, 1, 8])


def test_for_cutoff_covers_gmax():
    g = RealSpaceGrid.for_cutoff([10.0, 10.0, 10.0], ecut=10.0, factor=2.0)
    gmax = np.sqrt(2 * 10.0)
    for n, L in zip(g.shape, g.lengths):
        # max representable |G| component is π n / L; need >= 2 gmax for density
        assert np.pi * n / L >= 2 * gmax * 0.99


def test_fft_roundtrip(small_grid, rng):
    f = rng.random(small_grid.shape)
    back = grid_ifft(small_grid, grid_fft(small_grid, f))
    np.testing.assert_allclose(back.real, f, atol=1e-12)


def test_fft_convention_plane_wave(small_grid):
    """fft of e^{iG·r} puts 1.0 exactly at the G bin (density convention)."""
    g = small_grid
    gv = grid_g_vectors(g)
    # pick the G with miller index (1, 0, 0)
    target = (1, 0, 0)
    pts = g.points()
    field = np.exp(1j * (pts @ gv[target]))
    coeffs = grid_fft(g, field)
    assert coeffs[target] == pytest.approx(1.0, abs=1e-12)
    coeffs[target] = 0.0
    assert np.abs(coeffs).max() < 1e-12


def test_parseval(small_grid, rng):
    f = rng.random(small_grid.shape)
    h = rng.random(small_grid.shape)
    lhs = small_grid.integrate(f * h)
    fg, hg = grid_fft(small_grid, f), grid_fft(small_grid, h)
    rhs = small_grid.volume * np.real(np.sum(np.conj(fg) * hg))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_integrate_constant(small_grid):
    assert small_grid.integrate(np.ones(small_grid.shape)) == pytest.approx(
        small_grid.volume
    )


def test_g2_nonnegative_and_zero_at_origin(small_grid):
    g2 = grid_g2(small_grid)
    assert g2[0, 0, 0] == 0.0
    assert np.all(g2 >= 0)


def test_g_vectors_match_g2(small_grid):
    gv = grid_g_vectors(small_grid)
    np.testing.assert_allclose(np.sum(gv**2, axis=-1), grid_g2(small_grid), atol=1e-10)


def test_min_image_distance_wraps(small_grid):
    d = small_grid.min_image_distance([0.0, 0.0, 0.0])
    # farthest point is at most half the cell diagonal
    assert d.max() <= 0.5 * np.linalg.norm(small_grid.lengths) + 1e-9
    assert d[0, 0, 0] == 0.0


def test_laplacian_eigenfunction(small_grid):
    """∇² e^{iG·r} = -|G|² e^{iG·r} via the spectral route."""
    g = small_grid
    pts = g.points()
    gv = grid_g_vectors(g)[(2, 1, 0)]
    field = np.cos(pts @ gv)
    lap = grid_ifft(g, -grid_g2(g) * grid_fft(g, field)).real
    np.testing.assert_allclose(lap, -np.dot(gv, gv) * field, atol=1e-9)


def test_next_fast_size():
    assert _next_fast_size(7) == 8
    assert _next_fast_size(8) == 8
    assert _next_fast_size(11) == 12
    assert _next_fast_size(17) == 18


def test_axes_spacing(small_grid):
    x, y, z = small_grid.axes()
    assert x[1] - x[0] == pytest.approx(small_grid.spacing[0])
    assert len(y) == small_grid.shape[1]
