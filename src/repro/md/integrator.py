"""Velocity-Verlet integration and kinetic diagnostics (atomic units)."""

from __future__ import annotations

import numpy as np

from repro.constants import KELVIN_TO_HARTREE
from repro.systems.configuration import Configuration


def kinetic_energy(config: Configuration) -> float:
    """Σ ½ m v² (Hartree)."""
    if config.velocities is None:
        return 0.0
    return float(0.5 * np.sum(config.masses[:, None] * config.velocities**2))


def temperature(config: Configuration) -> float:
    """Instantaneous temperature in Kelvin: (2/3) E_kin / (N k_B)."""
    n = config.natoms
    if n == 0 or config.velocities is None:
        return 0.0
    ekin = kinetic_energy(config)
    return float(2.0 * ekin / (3.0 * n * KELVIN_TO_HARTREE))


def initialize_velocities(
    config: Configuration, target_kelvin: float, seed: int = 0
) -> None:
    """Maxwell–Boltzmann velocities at the target temperature, zero total
    momentum, rescaled to hit the target exactly."""
    rng = np.random.default_rng(seed)
    kt = target_kelvin * KELVIN_TO_HARTREE
    sigma = np.sqrt(kt / config.masses)[:, None]
    v = rng.normal(size=(config.natoms, 3)) * sigma
    # remove center-of-mass drift
    p = (config.masses[:, None] * v).sum(axis=0)
    v -= p / config.masses.sum()
    config.velocities = v
    t_now = temperature(config)
    if t_now > 0:
        config.velocities *= np.sqrt(target_kelvin / t_now)


class VelocityVerlet:
    """The standard symplectic integrator.

    ``forces_fn(config) -> (forces, potential_energy)``; the integrator owns
    the half-kick / drift / half-kick sequence and wraps positions.
    """

    def __init__(self, forces_fn, timestep: float) -> None:
        if timestep <= 0:
            raise ValueError("timestep must be positive")
        self.forces_fn = forces_fn
        self.dt = float(timestep)
        self._cached_forces: np.ndarray | None = None
        self.potential_energy: float = np.nan

    def step(self, config: Configuration) -> None:
        """Advance the configuration by one timestep in place."""
        if config.velocities is None:
            config.velocities = np.zeros_like(config.positions)
        m = config.masses[:, None]
        if self._cached_forces is None:
            self._cached_forces, self.potential_energy = self.forces_fn(config)
        f0 = self._cached_forces
        config.velocities = config.velocities + 0.5 * self.dt * f0 / m
        config.positions = np.mod(
            config.positions + self.dt * config.velocities, config.cell
        )
        f1, self.potential_energy = self.forces_fn(config)
        config.velocities = config.velocities + 0.5 * self.dt * f1 / m
        self._cached_forces = f1
