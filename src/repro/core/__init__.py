"""LDC-DFT: the paper's primary contribution (Sec. 3).

* :mod:`repro.core.domains` — the divide-and-conquer spatial decomposition:
  non-overlapping cores tiling the cell, each extended by a buffer (Fig. 1).
* :mod:`repro.core.support` — partition-of-unity domain support functions
  ``p_α`` with ``Σ_α p_α(r) = 1``.
* :mod:`repro.core.boundary` — the density-adaptive boundary potential
  ``v_bc = (ρ_α - ρ)/ξ`` (Eq. 2), the "lean" ingredient of LDC-DFT.
* :mod:`repro.core.ldc` — the global-local SCF driver (Fig. 2) with
  ``mode="dc"`` (classic divide-and-conquer) and ``mode="ldc"`` switches.
* :mod:`repro.core.batched` — the domain-solve seam: every SCF pass solves
  its domains as stacks (of one or of a whole shape class) through one
  lockstep eigensolver.
* :mod:`repro.core.workspace` — persistent per-trajectory cache of the
  MD-step-invariant structures plus orbital warm starts (QMD hot path).
* :mod:`repro.core.energy` — divide-and-conquer total-energy assembly.
* :mod:`repro.core.forces` — per-domain Hellmann–Feynman forces.
* :mod:`repro.core.complexity` — the cost/error model of Sec. 3.1 (Eq. 1,
  optimal core size ``l* = 2b/(ν-1)``, O(N)↔O(N³) crossover, LDC/DC speedup).
"""

from repro.core.domains import Domain, DomainDecomposition
from repro.core.ldc import LDCOptions, LDCResult, run_ldc
from repro.core.workspace import LDCWorkspace
from repro.core.complexity import (
    crossover_length,
    crossover_natoms,
    fit_decay_constant,
    optimal_core_length,
    speedup_factor,
    total_cost,
)

__all__ = [
    "Domain",
    "DomainDecomposition",
    "LDCOptions",
    "LDCResult",
    "LDCWorkspace",
    "run_ldc",
    "crossover_length",
    "crossover_natoms",
    "fit_decay_constant",
    "optimal_core_length",
    "speedup_factor",
    "total_cost",
]

