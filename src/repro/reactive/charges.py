"""Electronegativity-equalization (QEq) charges.

Sec. 6 reports that "wide charge pathways across Al atoms ... collectively
act as a 'superanion'" and that dissolved Li turns the solution basic.  A
charge-equilibration model reproduces these *electrostatic* observations
cheaply: atomic charges minimize

    E(q) = Σ_i (χ_i q_i + ½ η_i q_i²) + ½ Σ_{i≠j} q_i q_j erf(r_ij/γ)/r_ij

subject to Σ q_i = Q_total, where χ is the electronegativity, η the atomic
hardness, and the screened Coulomb kernel regularizes short distances.
This is a single symmetric linear solve (KKT system).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import get_species
from repro.systems.configuration import Configuration

#: atomic hardness per species (Hartree/e²) — tighter for small/hard atoms
DEFAULT_HARDNESS: dict[str, float] = {
    "H": 0.65,
    "Li": 0.25,
    "C": 0.50,
    "O": 0.60,
    "Al": 0.30,
    "Si": 0.40,
    "Cd": 0.30,
    "Se": 0.45,
}

#: Coulomb screening length (Bohr)
DEFAULT_GAMMA = 1.5


@dataclass
class ChargeResult:
    """QEq output: per-atom charges and the electrostatic energy."""

    charges: np.ndarray
    energy: float
    chemical_potential: float

    def net_charge(self, indices) -> float:
        """Total charge of a group of atoms (e.g. the metal particle)."""
        return float(np.sum(self.charges[np.asarray(indices, dtype=int)]))


def equilibrate_charges(
    config: Configuration,
    total_charge: float = 0.0,
    gamma: float = DEFAULT_GAMMA,
    hardness: dict[str, float] | None = None,
) -> ChargeResult:
    """Solve the QEq KKT system for the minimum-energy charges.

    O(N²) dense solve — adequate for the reproduction-scale systems; the
    production analogue would use the same tree codes as the Hartree solve.
    """
    from scipy.special import erf

    n = config.natoms
    if n == 0:
        raise ValueError("empty configuration")
    hard = dict(DEFAULT_HARDNESS)
    if hardness:
        hard.update(hardness)
    chi = np.array(
        [0.2 * get_species(s).electronegativity for s in config.symbols]
    )
    eta = np.array([hard.get(s, 0.4) for s in config.symbols])

    # screened Coulomb kernel with the minimum-image convention
    pos = config.wrapped_positions()
    diff = pos[None, :, :] - pos[:, None, :]
    diff -= config.cell * np.round(diff / config.cell)
    r = np.linalg.norm(diff, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        j = np.where(r > 1e-9, erf(r / gamma) / r, 2.0 / (np.sqrt(np.pi) * gamma))
    np.fill_diagonal(j, 0.0)

    # KKT: [H + J, 1; 1^T, 0] [q; λ] = [-χ; Q]
    a = np.zeros((n + 1, n + 1))
    a[:n, :n] = j
    a[:n, :n][np.diag_indices(n)] = eta + np.diag(j)
    a[:n, n] = 1.0
    a[n, :n] = 1.0
    rhs = np.concatenate([-chi, [total_charge]])
    sol = np.linalg.solve(a, rhs)
    q = sol[:n]
    lam = sol[n]
    energy = float(chi @ q + 0.5 * q @ ((eta * q) + j @ q))
    return ChargeResult(charges=q, energy=energy, chemical_potential=float(-lam))


def superanion_metric(config: Configuration, result: ChargeResult) -> float:
    """Net charge of the **Al framework**.

    The paper's "superanion" observation: the Al atoms collectively carry
    negative charge (electron density donated by the electropositive Li, as
    in the Zintl phase) and act as one wide charge pathway — so this metric
    is negative for LiAl particles, while the Li subsystem is positive.
    """
    al = [i for i, s in enumerate(config.symbols) if s == "Al"]
    if not al:
        raise ValueError("no Al atoms present")
    return result.net_charge(al)


def charge_pathways(
    config: Configuration,
    result: ChargeResult,
    cutoff: float = 6.0,
    threshold: float = -0.05,
) -> list[list[int]]:
    """Connected clusters of negatively charged Al atoms — the "wide charge
    pathways" of Sec. 6, extracted as graph components (networkx)."""
    import networkx as nx

    from repro.md.neighbors import NeighborList

    carriers = [
        i
        for i, s in enumerate(config.symbols)
        if s == "Al" and result.charges[i] < threshold
    ]
    carrier_set = set(carriers)
    g = nx.Graph()
    g.add_nodes_from(carriers)
    pairs, _, _ = NeighborList(cutoff).build(config)
    for i, j in pairs:
        if int(i) in carrier_set and int(j) in carrier_set:
            g.add_edge(int(i), int(j))
    return [sorted(c) for c in nx.connected_components(g)]
