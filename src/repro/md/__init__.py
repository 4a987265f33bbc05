"""Molecular dynamics substrate: the integrator, neighbor lists, ASPC windows,
and the QMD driver that couples MD to a quantum (or surrogate) force engine.
"""

from repro.md.integrator import VelocityVerlet, kinetic_energy, temperature
from repro.md.neighbors import NeighborList
from repro.md.qmd import QMDDriver, QMDFrame, LDCEngine, QMDOptions, SCFEngine
from repro.md.extrapolate import (
    DomainHistory,
    aspc_coefficients,
    extrapolate_fields,
    extrapolate_orbitals,
    subspace_residual,
)

__all__ = [
    "VelocityVerlet",
    "kinetic_energy",
    "temperature",
    "NeighborList",
    "QMDDriver",
    "QMDFrame",
    "LDCEngine",
    "QMDOptions",
    "SCFEngine",
    "DomainHistory",
    "aspc_coefficients",
    "extrapolate_fields",
    "extrapolate_orbitals",
    "subspace_residual",
]
