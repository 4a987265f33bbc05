"""Tests for the workload builders (CdSe, LiAl, water) and the tests' SiC
and fixture builders."""

import numpy as np
import pytest

from repro.systems import amorphous_cdse, lial_nanoparticle, water_molecule
from repro.systems.cdse import CDSE_FIG7_BOX
from repro.systems.water import OH_BOND
from tests.builders import (
    distance,
    distance_matrix,
    particle_radius,
    random_gas,
    simple_cubic_crystal,
    species_counts,
    water_box,
)
from tests.sic import SIC_LATTICE_CONSTANT, sic_crystal, sic_for_cores


# ---- SiC -------------------------------------------------------------------

def test_sic_unit_cell_has_8_atoms():
    c = sic_crystal((1, 1, 1))
    assert len(c) == 8
    assert species_counts(c) == {"Si": 4, "C": 4}


def test_sic_supercell_count():
    c = sic_crystal((2, 3, 1))
    assert len(c) == 8 * 6


def test_sic_nearest_neighbor_distance():
    c = sic_crystal((2, 2, 2))
    d = distance_matrix(c)
    np.fill_diagonal(d, np.inf)
    # zincblende NN distance = a*sqrt(3)/4 ≈ 1.888 Å ≈ 3.57 Bohr
    assert d.min() == pytest.approx(SIC_LATTICE_CONSTANT * np.sqrt(3) / 4, rel=1e-6)


def test_sic_invalid_repeats():
    with pytest.raises(ValueError):
        sic_crystal((0, 1, 1))


def test_sic_for_cores_is_64_atoms_per_core():
    for cores in (1, 2, 16, 128):
        c = sic_for_cores(cores)
        assert len(c) == 64 * cores


def test_sic_for_cores_paper_granularity():
    """Fig. 5 workload: 64P atoms for P cores."""
    c = sic_for_cores(16)
    assert len(c) == 1024


# ---- CdSe -------------------------------------------------------------------

def test_cdse_512_atom_fig7_system():
    c = amorphous_cdse((4, 4, 4))
    assert len(c) == 512
    assert species_counts(c) == {"Cd": 256, "Se": 256}
    np.testing.assert_allclose(c.cell, [CDSE_FIG7_BOX] * 3)


def test_cdse_min_separation_enforced():
    c = amorphous_cdse((2, 2, 2), displacement=0.4, min_separation=3.0, seed=3)
    d = distance_matrix(c)
    np.fill_diagonal(d, np.inf)
    assert d.min() >= 3.0 - 1e-9


def test_cdse_deterministic_given_seed():
    a = amorphous_cdse((2, 2, 2), seed=5)
    b = amorphous_cdse((2, 2, 2), seed=5)
    np.testing.assert_allclose(a.positions, b.positions)


def test_cdse_zero_displacement_is_crystal():
    a = amorphous_cdse((2, 2, 2), displacement=0.0)
    b = amorphous_cdse((2, 2, 2), displacement=0.0, seed=99)
    np.testing.assert_allclose(a.positions, b.positions)


# ---- water ------------------------------------------------------------------

def test_water_molecule_geometry():
    w = water_molecule()
    assert w.symbols == ["O", "H", "H"]
    assert distance(w, 0, 1) == pytest.approx(OH_BOND)
    assert distance(w, 0, 2) == pytest.approx(OH_BOND)


def test_water_box_counts():
    w = water_box(17, seed=1)
    assert len(w) == 3 * 17
    assert species_counts(w) == {"O": 17, "H": 34}


def test_water_box_molecules_intact():
    w = water_box(8, seed=2)
    for m in range(8):
        o, h1, h2 = 3 * m, 3 * m + 1, 3 * m + 2
        assert distance(w, o, h1) == pytest.approx(OH_BOND, rel=1e-6)
        assert distance(w, o, h2) == pytest.approx(OH_BOND, rel=1e-6)


def test_water_box_respects_exclusion():
    cell = np.array([40.0, 40.0, 40.0])
    w = water_box(
        10,
        seed=0,
        exclusion_centers=cell / 2,
        exclusion_radius=10.0,
        cell=cell,
    )
    oxygens = w.positions[::3]
    d = np.linalg.norm(
        (oxygens - cell / 2) - cell * np.round((oxygens - cell / 2) / cell), axis=1
    )
    # molecules are jittered around sites; allow a small margin
    assert d.min() > 10.0 - 2.0


def test_water_box_invalid_count():
    with pytest.raises(ValueError):
        water_box(0)


# ---- LiAl -------------------------------------------------------------------

def test_lial_nanoparticle_composition():
    p = lial_nanoparticle(30)
    assert species_counts(p) == {"Li": 30, "Al": 30}


def test_lial_nanoparticle_compact():
    p = lial_nanoparticle(30)
    r = particle_radius(p)
    # 60 atoms should fit well inside ~3 lattice constants
    from repro.systems.lialloy import LIAL_LATTICE_CONSTANT

    assert r < 3.0 * LIAL_LATTICE_CONSTANT


def test_lial_particle_sizes_monotonic():
    radii = [particle_radius(lial_nanoparticle(n)) for n in (8, 30, 135)]
    assert radii[0] < radii[1] < radii[2]


# ---- toys -------------------------------------------------------------------

def test_simple_cubic():
    c = simple_cubic_crystal("Al", (2, 2, 2), 5.0)
    assert len(c) == 8
    np.testing.assert_allclose(c.cell, [10.0, 10.0, 10.0])


def test_random_gas_min_separation():
    g = random_gas(["H"] * 12, 14.0, min_separation=2.5, seed=1)
    d = distance_matrix(g)
    np.fill_diagonal(d, np.inf)
    assert d.min() >= 2.5
