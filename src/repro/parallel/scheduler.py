"""Domain → rank-group scheduling with load balancing.

The paper assigns one MPI communicator per DC domain (Sec. 3.3).  When the
domain atom counts are unequal (LiAl particle + water), naive round-robin
placement leaves some groups idle; this module provides the standard
largest-first (LPT) heuristic over per-domain cost estimates, plus the
imbalance metrics the trace reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Schedule:
    """Assignment of domains to rank groups."""

    group_of_domain: np.ndarray  # (ndomains,)
    ngroups: int
    loads: np.ndarray  # (ngroups,) summed cost per group

    @property
    def imbalance(self) -> float:
        """(max - mean)/max of group loads; 0 = perfect balance."""
        mx = float(self.loads.max())
        if mx <= 0:
            return 0.0
        return float((mx - self.loads.mean()) / mx)

    def domains_in_group(self, g: int) -> list[int]:
        return [int(d) for d in np.flatnonzero(self.group_of_domain == g)]


def domain_cost_estimate(natoms: int, nu: float = 2.0) -> float:
    """Per-domain solve cost ∝ (electron count)^ν — the Sec. 3.1 scaling."""
    return float(max(natoms, 0)) ** nu


def schedule_round_robin(costs, ngroups: int) -> Schedule:
    """Naive static assignment (the baseline)."""
    costs = np.asarray(costs, dtype=float)
    if ngroups < 1:
        raise ValueError("ngroups must be >= 1")
    groups = np.arange(len(costs)) % ngroups
    loads = np.bincount(groups, weights=costs, minlength=ngroups)
    return Schedule(groups, ngroups, loads)


def schedule_lpt(costs, ngroups: int) -> Schedule:
    """Longest-processing-time-first: sort descending, place on the least
    loaded group (4/3-competitive for makespan)."""
    costs = np.asarray(costs, dtype=float)
    if ngroups < 1:
        raise ValueError("ngroups must be >= 1")
    if np.any(costs < 0):
        raise ValueError("costs must be nonnegative")
    order = np.argsort(-costs, kind="stable")
    groups = np.zeros(len(costs), dtype=int)
    loads = np.zeros(ngroups)
    for d in order:
        g = int(np.argmin(loads))
        groups[d] = g
        loads[g] += costs[d]
    return Schedule(groups, ngroups, loads)


def schedule_manual(group_of_domain, ngroups: int, costs=None) -> Schedule:
    """Build a :class:`Schedule` from an explicit domain → group assignment.

    The injection seam for externally decided placements: skewed
    assignments in divergence tests/benches, and (eventually) SFC-based
    dynamic re-assignment from measured per-domain solve times.  ``costs``
    defaults to unit cost per domain.
    """
    groups = np.asarray(group_of_domain, dtype=int)
    if ngroups < 1:
        raise ValueError("ngroups must be >= 1")
    if groups.size and (groups.min() < 0 or groups.max() >= ngroups):
        raise ValueError("group assignments must lie in [0, ngroups)")
    costs = (
        np.ones(len(groups)) if costs is None
        else np.asarray(costs, dtype=float)
    )
    if len(costs) != len(groups):
        raise ValueError("costs length must match assignment length")
    loads = np.bincount(groups, weights=costs, minlength=ngroups)
    return Schedule(groups, ngroups, loads)


def schedule_domains(atom_counts, ngroups: int, nu: float = 2.0) -> Schedule:
    """LPT-schedule domains by their atom counts."""
    return schedule_lpt(
        [domain_cost_estimate(n, nu) for n in atom_counts], ngroups
    )
