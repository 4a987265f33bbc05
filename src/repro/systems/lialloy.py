"""Li_nAl_n nanoparticle builders — the hydrogen-on-demand workload (Sec. 6).

The paper simulates Li₃₀Al₃₀ (606 atoms with 182 H₂O), Li₁₃₅Al₁₃₅ (4,836
atoms total), and Li₄₄₁Al₄₄₁ (16,611 atoms total) particles in water, plus a
77,889-atom Li₂₁₃₆Al₂₁₃₆ + 24,539 H₂O system for strong scaling (Fig. 6).

Particles are carved as spheres from a B32 (Zintl, NaTl-type) LiAl lattice —
the equilibrium LiAl phase — keeping equal Li and Al counts, which is the
composition the paper identifies as maximally reactive.
"""

from __future__ import annotations

import numpy as np

from repro.constants import ANGSTROM_TO_BOHR
from repro.systems.configuration import Configuration

#: B32 LiAl lattice constant, 6.37 Å, in Bohr.
LIAL_LATTICE_CONSTANT = 6.37 * ANGSTROM_TO_BOHR

# NaTl (B32) structure: two interpenetrating diamond sublattices.
_DIAMOND = np.array(
    [
        [0.00, 0.00, 0.00],
        [0.00, 0.50, 0.50],
        [0.50, 0.00, 0.50],
        [0.50, 0.50, 0.00],
        [0.25, 0.25, 0.25],
        [0.25, 0.75, 0.75],
        [0.75, 0.25, 0.75],
        [0.75, 0.75, 0.25],
    ]
)
_BASIS_LI = _DIAMOND
_BASIS_AL = np.mod(_DIAMOND + np.array([0.5, 0.5, 0.5]), 1.0)


def lial_nanoparticle(
    n_pairs: int,
    cell: np.ndarray | None = None,
    lattice_constant: float = LIAL_LATTICE_CONSTANT,
) -> Configuration:
    """A spherical Li_nAl_n particle with exactly ``n_pairs`` of each species.

    The sphere is carved from a B32 lattice centered on a lattice point;
    Li and Al candidates are ranked by distance from the center and the
    closest ``n_pairs`` of each are kept, producing a compact quasi-spherical
    particle with exactly equal composition.

    Parameters
    ----------
    n_pairs:
        Number of Li (and Al) atoms; the paper uses 30, 135, 441, 2136.
    cell:
        Periodic box to embed the particle in (centered).  Defaults to a cube
        with ~14 Bohr of vacuum padding around the particle.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    # Enough lattice cells to cover the needed sphere: each cell has 8 Li + 8 Al.
    reps = 1
    while 8 * reps**3 < 4 * n_pairs:
        reps += 1
    reps = reps + 2  # margin so the sphere never touches the slab edge
    offsets = np.array(
        [(i, j, k)
         for i in range(-reps, reps)
         for j in range(-reps, reps)
         for k in range(-reps, reps)],
        dtype=float,
    )
    li = (offsets[:, None, :] + _BASIS_LI[None, :, :]).reshape(-1, 3) * lattice_constant
    al = (offsets[:, None, :] + _BASIS_AL[None, :, :]).reshape(-1, 3) * lattice_constant

    li = li[np.argsort(np.linalg.norm(li, axis=1), kind="stable")][:n_pairs]
    al = al[np.argsort(np.linalg.norm(al, axis=1), kind="stable")][:n_pairs]
    positions = np.vstack([li, al])
    symbols = ["Li"] * n_pairs + ["Al"] * n_pairs

    radius = np.max(np.linalg.norm(positions, axis=1))
    if cell is None:
        edge = 2.0 * radius + 28.0
        cell = np.array([edge, edge, edge])
    else:
        cell = np.asarray(cell, dtype=float)
    center = cell / 2.0
    return Configuration(symbols, positions + center, cell)
