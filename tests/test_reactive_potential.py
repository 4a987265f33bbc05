"""Tests for the reactive force field."""

import numpy as np
import pytest

from repro.constants import ANGSTROM_TO_BOHR, EV_TO_HARTREE, get_species
from repro.md.integrator import VelocityVerlet, initialize_velocities
from repro.reactive.potential import DEFAULT_PAIRS, MorseParams, ReactiveForceField, _morse
from repro.systems import dimer, water_molecule
from tests.builders import distance


@pytest.fixture()
def ff():
    return ReactiveForceField()


def test_validation():
    with pytest.raises(ValueError):
        ReactiveForceField(cutoff=-1.0)
    with pytest.raises(ValueError):
        ReactiveForceField(cutoff=5.0, switch_width=6.0)


def test_morse_minimum():
    p = MorseParams(depth=0.1, stiffness=1.0, r0=2.0)
    e, de = _morse(np.array([2.0]), p)
    assert e[0] == pytest.approx(-0.1)
    assert de[0] == pytest.approx(0.0, abs=1e-12)


def test_morse_repulsive_inside():
    p = MorseParams(depth=0.1, stiffness=1.0, r0=2.0)
    _, de = _morse(np.array([1.0]), p)
    assert de[0] < 0  # energy decreasing with r → repulsive force


def test_oh_bond_length_is_potential_minimum(ff):
    """The O-H Morse minimum sits at the water O-H distance."""
    seps = np.linspace(1.2, 3.4, 60)
    energies = [ff.energy(dimer("O", "H", s, 20.0)) for s in seps]
    s_min = seps[int(np.argmin(energies))]
    assert s_min == pytest.approx(0.96 * ANGSTROM_TO_BOHR, abs=0.1)


def test_h2_binding_energy(ff):
    """H-H well depth ≈ 4.5 eV (designed)."""
    e_bond = ff.energy(dimer("H", "H", 0.74 * ANGSTROM_TO_BOHR, 24.0))
    assert e_bond == pytest.approx(-4.5 * EV_TO_HARTREE, rel=0.02)


def test_forces_match_finite_difference(ff):
    cfg = water_molecule(center=(10.0, 10.0, 10.0))
    _, f = ff.energy_forces(cfg)
    h = 1e-5
    for atom in range(3):
        for axis in range(3):
            p = cfg.copy()
            p.positions[atom, axis] += h
            m = cfg.copy()
            m.positions[atom, axis] -= h
            fd = -(ff.energy(p) - ff.energy(m)) / (2 * h)
            assert f[atom, axis] == pytest.approx(fd, abs=1e-7)


def test_forces_sum_to_zero(ff):
    from tests.builders import random_gas

    cfg = random_gas(["Li", "Al", "O", "H"] * 6, 18.0, seed=3)
    _, f = ff.energy_forces(cfg)
    np.testing.assert_allclose(f.sum(axis=0), 0.0, atol=1e-10)


def test_energy_smooth_at_cutoff(ff):
    """The switching function kills the discontinuity at the cutoff."""
    e_in = ff.energy(dimer("Al", "O", ff.cutoff - 1e-4, 40.0))
    e_out = ff.energy(dimer("Al", "O", ff.cutoff + 1e-4, 40.0))
    assert abs(e_in - e_out) < 1e-8


def test_unknown_pair_is_repulsive(ff):
    p = ff.pair_params("Cd", "Se")  # not in the reactive table
    assert p.depth < 0.1


def test_al_o_stronger_than_li_li():
    alo = DEFAULT_PAIRS[frozenset(["Al", "O"])]
    lili = DEFAULT_PAIRS[frozenset(["Li"])]
    assert alo.depth > lili.depth


def test_md_stability_water():
    """A water molecule survives 200 Verlet steps at 300 K (no bond breaks:
    each O–H stays within 1.25× the covalent-radius sum)."""
    ff = ReactiveForceField()
    cfg = water_molecule(center=(10.0, 10.0, 10.0))
    initialize_velocities(cfg, 300.0, seed=1)
    vv = VelocityVerlet(lambda c: ff.energy_forces(c)[::-1], timestep=4.0)
    for _ in range(200):
        vv.step(cfg)
    bond = 1.25 * (get_species("O").covalent_radius + get_species("H").covalent_radius)
    assert distance(cfg, 0, 1) <= bond and distance(cfg, 0, 2) <= bond
