"""Tests for partition-of-unity supports and the boundary potential."""

import numpy as np
import pytest

from repro.core.boundary import boundary_error_norm, boundary_potential
from repro.core.domains import DomainDecomposition
from repro.core.support import sharp_support, supports
from repro.dft.grid import RealSpaceGrid
from tests.builders import partition_residual


@pytest.fixture()
def decomp():
    grid = RealSpaceGrid([8.0, 8.0, 8.0], [16, 16, 16])
    return DomainDecomposition(grid, (2, 2, 2), buffer_thickness=1.0)


def test_sharp_partition_of_unity(decomp):
    w = supports(decomp)
    assert partition_residual(decomp, w) <= 1e-12


def test_sharp_support_is_core_indicator(decomp):
    for dom in decomp.domains:
        w = sharp_support(dom)
        b, c = dom.buffer_points, dom.core_points
        core = w[b[0]:b[0] + c[0], b[1]:b[1] + c[1], b[2]:b[2] + c[2]]
        np.testing.assert_array_equal(core, 1.0)
        assert w.sum() == core.size


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
