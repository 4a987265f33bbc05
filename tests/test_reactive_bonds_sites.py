"""Tests for the surface-site census."""

import pytest

from repro.reactive.sites import (
    lewis_pairs,
    metal_coordination,
    site_census,
    surface_atoms,
)
from repro.systems import lial_nanoparticle
from tests.builders import combined, particle_radius, water_box


# ---- sites ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def particle30():
    return lial_nanoparticle(30)


def test_all_atoms_of_small_particle_are_surface(particle30):
    """A 60-atom particle is mostly surface."""
    surf = surface_atoms(particle30)
    assert len(surf) >= 0.7 * len(particle30)


def test_larger_particle_has_bulk():
    p = lial_nanoparticle(135)
    surf = surface_atoms(p)
    assert len(surf) < len(p)  # some atoms are coordinated as bulk


def test_surface_fraction_decreases_with_size():
    fracs = []
    for n in (30, 135):
        p = lial_nanoparticle(n)
        fracs.append(len(surface_atoms(p)) / len(p))
    assert fracs[1] < fracs[0]


def test_lewis_pairs_are_li_al(particle30):
    pairs = lewis_pairs(particle30)
    assert len(pairs) > 0
    for li, al in pairs:
        assert particle30.symbols[li] == "Li"
        assert particle30.symbols[al] == "Al"


def test_site_census_consistency(particle30):
    census = site_census(particle30)
    assert census.n_metal == 60
    assert census.n_surface == len(surface_atoms(particle30))
    assert census.n_pairs == len(lewis_pairs(particle30))


def test_census_ignores_water():
    """Water must not contribute to the metal surface census."""
    bare = lial_nanoparticle(8)
    solvated = combined(bare, water_box(
        30, seed=1, exclusion_centers=bare.cell / 2.0,
        exclusion_radius=particle_radius(bare) + 4.0, cell=bare.cell,
    ))
    c1 = site_census(solvated)
    c2 = site_census(bare)
    assert c1.n_metal == c2.n_metal == 16


def test_coordination_positive(particle30):
    coord = metal_coordination(particle30)
    assert all(c > 0 for c in coord.values())
