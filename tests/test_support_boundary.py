"""Tests for partition-of-unity supports and the boundary potential."""

import numpy as np
import pytest

from repro.core.boundary import boundary_error_norm, boundary_potential
from repro.core.domains import DomainDecomposition
from repro.core.support import (
    sharp_support,
    smooth_supports,
    supports,
)
from repro.dft.grid import RealSpaceGrid
from tests.builders import partition_residual


@pytest.fixture()
def decomp():
    grid = RealSpaceGrid([8.0, 8.0, 8.0], [16, 16, 16])
    return DomainDecomposition(grid, (2, 2, 2), buffer_thickness=1.0)


def test_sharp_partition_of_unity(decomp):
    w = supports(decomp, "sharp")
    assert partition_residual(decomp, w) <= 1e-12


def test_smooth_partition_of_unity(decomp):
    w = supports(decomp, "smooth")
    assert partition_residual(decomp, w) <= 1e-12


def test_unknown_support_kind(decomp):
    with pytest.raises(ValueError):
        supports(decomp, "nope")


def test_sharp_support_is_core_indicator(decomp):
    for dom in decomp.domains:
        w = sharp_support(dom)
        np.testing.assert_array_equal(w.astype(bool), dom.core_mask)


def test_smooth_support_compact(decomp):
    """Smooth supports vanish at the outermost buffer shell."""
    for w in smooth_supports(decomp):
        assert w[0, :, :].max() < 0.5  # outer shell heavily down-weighted
        assert w.min() >= 0.0
        assert w.max() <= 1.0


def test_smooth_support_full_in_core_interior(decomp):
    w = smooth_supports(decomp)
    for dom, wd in zip(decomp.domains, w):
        b = dom.buffer_points
        # deep interior of the core has weight 1 (no overlap there)
        interior = wd[
            b[0] + 2 : b[0] + dom.core_points[0] - 2,
            b[1] + 2 : b[1] + dom.core_points[1] - 2,
            b[2] + 2 : b[2] + dom.core_points[2] - 2,
        ]
        np.testing.assert_allclose(interior, 1.0, atol=1e-12)


def test_zero_buffer_smooth_equals_sharp():
    grid = RealSpaceGrid([8.0, 8.0, 8.0], [16, 16, 16])
    d = DomainDecomposition(grid, (2, 2, 2), 0.0)
    for ws, wsh in zip(smooth_supports(d), [sharp_support(x) for x in d.domains]):
        np.testing.assert_allclose(ws, wsh)


# ---- boundary potential --------------------------------------------------------

def test_vbc_zero_on_first_iteration():
    rho = np.random.default_rng(0).random((4, 4, 4))
    v = boundary_potential(None, rho, xi=0.333)
    np.testing.assert_array_equal(v, 0.0)


def test_vbc_zero_in_dc_mode():
    rng = np.random.default_rng(0)
    v = boundary_potential(rng.random((4, 4, 4)), rng.random((4, 4, 4)), xi=None)
    np.testing.assert_array_equal(v, 0.0)


def test_vbc_linear_response_formula():
    rng = np.random.default_rng(1)
    ra = rng.random((4, 4, 4))
    rg = rng.random((4, 4, 4))
    v = boundary_potential(ra, rg, xi=0.5, clip=100.0)
    np.testing.assert_allclose(v, (ra - rg) / 0.5)


def test_vbc_sign_attracts_where_deficient():
    """Where the domain density is too low, the potential must be negative."""
    ra = np.zeros((2, 2, 2))
    rg = np.ones((2, 2, 2))
    v = boundary_potential(ra, rg, xi=0.333, clip=100.0)
    assert np.all(v < 0)


def test_vbc_clip():
    ra = np.full((2, 2, 2), 100.0)
    rg = np.zeros((2, 2, 2))
    v = boundary_potential(ra, rg, xi=0.333, clip=2.0)
    assert v.max() == pytest.approx(2.0)


def test_vbc_invalid_xi():
    with pytest.raises(ValueError):
        boundary_potential(np.ones((2, 2, 2)), np.ones((2, 2, 2)), xi=-1.0)


def test_boundary_error_norm():
    a = np.ones((2, 2, 2))
    b = np.zeros((2, 2, 2))
    assert boundary_error_norm(a, b, dv=0.5) == pytest.approx(4.0)
    assert boundary_error_norm(a, a, dv=0.5) == 0.0
