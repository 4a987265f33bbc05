"""Tests for the MD substrate: integrator, neighbor lists."""

import numpy as np
import pytest

from repro.md.integrator import (
    VelocityVerlet,
    initialize_velocities,
    kinetic_energy,
    temperature,
)
from repro.md.neighbors import NeighborList
from repro.systems import dimer
from tests.builders import distance, distance_matrix, minimum_image, random_gas


def _harmonic_engine(k=0.5, r0=2.0):
    """Pair spring between atoms 0 and 1 (minimum-image)."""

    def forces(config):
        d = minimum_image(config, config.positions[1] - config.positions[0])
        r = np.linalg.norm(d)
        e = 0.5 * k * (r - r0) ** 2
        fmag = -k * (r - r0)
        f = np.zeros_like(config.positions)
        f[1] = fmag * d / r
        f[0] = -f[1]
        return f, e

    return forces


# ---- kinetic diagnostics ------------------------------------------------------

def test_kinetic_energy_zero_without_velocities():
    c = dimer("H", "H", 2.0)
    assert kinetic_energy(c) == 0.0


def test_initialize_velocities_hits_target():
    c = random_gas(["Al"] * 20, 30.0, seed=1)
    initialize_velocities(c, 600.0, seed=2)
    assert temperature(c) == pytest.approx(600.0, rel=1e-9)


def test_initialize_velocities_zero_momentum():
    c = random_gas(["Al", "Li", "O", "H"] * 5, 30.0, seed=3)
    initialize_velocities(c, 300.0, seed=4)
    p = (c.masses[:, None] * c.velocities).sum(axis=0)
    np.testing.assert_allclose(p, 0.0, atol=1e-9)


# ---- integrator ------------------------------------------------------------------

def test_verlet_conserves_energy_harmonic():
    c = dimer("H", "H", 2.4, 20.0)
    initialize_velocities(c, 100.0, seed=0)
    vv = VelocityVerlet(_harmonic_engine(), timestep=1.0)
    energies = []
    for _ in range(500):
        vv.step(c)
        energies.append(kinetic_energy(c) + vv.potential_energy)
    # Verlet energy error is bounded oscillation ~ (ω dt)², not drift
    drift = abs(energies[-1] - energies[0])
    assert drift < 1e-3 * abs(energies[0])


def test_verlet_oscillation_period():
    """Harmonic dimer period T = 2π/√(k/μ) — check to a few percent."""
    c = dimer("H", "H", 2.4, 20.0)  # displaced from r0 = 2.0
    c.velocities = np.zeros((2, 3))
    k = 0.5
    vv = VelocityVerlet(_harmonic_engine(k=k), timestep=0.5)
    seps = []
    for _ in range(2000):
        vv.step(c)
        seps.append(distance(c, 0, 1))
    seps = np.array(seps)
    # count zero crossings of (sep - mean)
    crossings = np.sum(np.diff(np.sign(seps - seps.mean())) != 0)
    period_measured = 2 * len(seps) * 0.5 / crossings
    mu = c.masses[0] / 2
    period_exact = 2 * np.pi / np.sqrt(k / mu)
    assert period_measured == pytest.approx(period_exact, rel=0.1)


def test_verlet_timestep_validation():
    with pytest.raises(ValueError):
        VelocityVerlet(lambda c: (0, 0), timestep=0.0)


def test_verlet_reversibility():
    """Integrate forward then backward (negate velocities) → initial state."""
    c = dimer("H", "H", 2.3, 20.0)
    initialize_velocities(c, 50.0, seed=5)
    start = c.positions.copy()
    vv = VelocityVerlet(_harmonic_engine(), timestep=0.5)
    for _ in range(100):
        vv.step(c)
    c.velocities = -c.velocities  # the cached forces stay those of c
    for _ in range(100):
        vv.step(c)
    np.testing.assert_allclose(c.positions, start, atol=1e-8)


# ---- neighbor list ------------------------------------------------------------------

def test_neighbor_list_matches_brute_force():
    c = random_gas(["Al"] * 60, 25.0, min_separation=2.0, seed=11)
    nl = NeighborList(cutoff=6.0)
    pairs, disp, dist = nl.build(c)
    d = distance_matrix(c)
    iu, ju = np.triu_indices(len(c), k=1)
    expected = {(int(i), int(j)) for i, j in zip(iu, ju) if d[i, j] <= 6.0}
    got = {(int(i), int(j)) for i, j in pairs}
    assert got == expected


def test_neighbor_list_linked_cells_path():
    """Force the linked-cell branch with a big dilute system."""
    c = random_gas(["H"] * 120, 40.0, min_separation=2.5, seed=12)
    nl = NeighborList(cutoff=5.0)
    pairs, _, dist = nl.build(c)
    d = distance_matrix(c)
    iu, ju = np.triu_indices(len(c), k=1)
    expected = {(int(i), int(j)) for i, j in zip(iu, ju) if d[i, j] <= 5.0}
    got = {(int(i), int(j)) for i, j in pairs}
    assert got == expected
    assert np.all(dist <= 5.0 + 1e-12)


def test_neighbor_list_distances_consistent():
    c = random_gas(["O"] * 40, 22.0, seed=13)
    nl = NeighborList(cutoff=7.0)
    pairs, disp, dist = nl.build(c)
    np.testing.assert_allclose(np.linalg.norm(disp, axis=1), dist, atol=1e-12)


def test_neighbor_list_validation():
    with pytest.raises(ValueError):
        NeighborList(0.0)
