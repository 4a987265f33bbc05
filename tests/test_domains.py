"""Tests for the DC domain decomposition."""

import numpy as np
import pytest

from repro.core.domains import DomainDecomposition
from repro.core.support import sharp_support
from repro.dft.grid import RealSpaceGrid
from tests.sic import sic_crystal


@pytest.fixture()
def grid():
    return RealSpaceGrid([12.0, 12.0, 12.0], [24, 24, 24])


@pytest.fixture()
def decomp(grid):
    return DomainDecomposition(grid, (2, 2, 2), buffer_thickness=1.5)


def test_domain_count(decomp):
    assert decomp.ndomains == 8
    assert len(decomp.domains) == 8


def test_core_points_division(decomp):
    np.testing.assert_array_equal(decomp.core_points, [12, 12, 12])


def test_invalid_divisibility(grid):
    with pytest.raises(ValueError):
        DomainDecomposition(grid, (5, 2, 2), 1.0)


def test_invalid_buffer(grid):
    with pytest.raises(ValueError):
        DomainDecomposition(grid, (2, 2, 2), -1.0)


def test_buffer_realized_in_grid_points(decomp, grid):
    # spacing 0.5; buffer 1.5 Bohr = 3 points
    np.testing.assert_array_equal(decomp.buffer_points, [3, 3, 3])
    np.testing.assert_allclose(decomp.buffer_points * grid.spacing, 1.5)


def test_buffer_clamped(grid):
    d = DomainDecomposition(grid, (2, 2, 2), buffer_thickness=100.0)
    # max buffer = (24 - 12)/2 = 6 points
    np.testing.assert_array_equal(d.buffer_points, [6, 6, 6])


def test_cores_tile_grid(decomp, grid):
    """Every global grid point lies in exactly one core."""
    count = np.zeros(grid.shape)
    for dom in decomp.domains:
        ix, iy, iz = dom.grid_indices
        count[np.ix_(ix, iy, iz)] += sharp_support(dom)
    np.testing.assert_allclose(count, 1.0)


def test_core_slices_are_the_core_box(decomp, grid):
    """The local core slices are the block inside the buffer, and the
    global ones the same points of the global grid, tiling it unwrapped."""
    flat = np.arange(grid.npoints).reshape(grid.shape)
    count = np.zeros(grid.shape)
    for dom in decomp.domains:
        assert dom.core_slices == tuple(
            slice(b, b + c) for b, c in zip(dom.buffer_points, dom.core_points)
        )
        ix, iy, iz = dom.grid_indices
        np.testing.assert_array_equal(
            flat[np.ix_(ix, iy, iz)][dom.core_slices],
            flat[dom.global_core_slices],
        )
        count[dom.global_core_slices] += 1.0
    np.testing.assert_array_equal(count, 1.0)


def test_domain_grid_geometry(decomp, grid):
    dom = decomp.domains[0]
    np.testing.assert_allclose(dom.grid.spacing, grid.spacing)
    np.testing.assert_allclose(
        dom.grid.lengths, dom.extent_points * grid.spacing
    )


def test_core_mask_size(decomp):
    for dom in decomp.domains:
        assert sharp_support(dom).sum() == np.prod(dom.core_points)


def test_atoms_in_domain_partition(grid):
    """With zero buffer, every atom is in exactly one domain."""
    cfg = sic_crystal((2, 2, 2))
    g = RealSpaceGrid(cfg.cell, [24, 24, 24])
    d = DomainDecomposition(g, (2, 2, 2), 0.0)
    total = 0
    for dom in d.domains:
        idx, local = d.atoms_in_domain(cfg, dom)
        total += len(idx)
        # local coordinates must lie inside the extent
        if len(idx):
            assert np.all(local.positions >= 0)
            assert np.all(local.positions < dom.extent_points * g.spacing)
    assert total == len(cfg)


def test_atoms_in_domain_buffer_overlap(grid):
    """With buffers, atoms near boundaries are seen by several domains."""
    cfg = sic_crystal((2, 2, 2))
    g = RealSpaceGrid(cfg.cell, [24, 24, 24])
    d = DomainDecomposition(g, (2, 2, 2), 2.0)
    total = sum(len(d.atoms_in_domain(cfg, dom)[0]) for dom in d.domains)
    assert total > len(cfg)


def test_owner_domain_consistent_with_cores(decomp, grid, rng):
    for _ in range(20):
        pos = rng.uniform(0, 12.0, size=3)
        owner = decomp.owner_domain(pos)
        dom = decomp.domains[owner]
        # position's grid cell must be inside the owner's core range
        pt = np.floor(pos / grid.spacing).astype(int)
        lo = dom.core_start
        hi = dom.core_start + dom.core_points
        assert np.all(pt >= lo) and np.all(pt < hi)
