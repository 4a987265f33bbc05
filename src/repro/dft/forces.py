"""Force kernels of the plane-wave engine.

* **Local**:  F_I = Σ_G i G ρ̃*(G) ṽ_I(G) e^{-iG·R_I}   (real part),
  from E_loc = Ω Σ_G ρ̃*(G) Ṽ_loc(G) — :func:`local_forces`.
* **Nonlocal**: derivative of the Kleinman–Bylander projector overlaps —
  :func:`projector_forces`, per projector column.

There is one force assembly, :func:`repro.core.forces.ldc_forces` (local +
nonlocal of each atom's owner domain + Ewald); a whole-cell solve is its
one-domain case, :func:`forces_from_scf`.  Validated against central
finite differences of the SCF total energy (the Hellmann–Feynman theorem
holds at self-consistency).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.dft.basis import PlaneWaveBasis
from repro.dft.grid import RealSpaceGrid
from repro.dft.pseudopotential import (
    NonlocalProjectors,
    half_grid_phases,
    local_potential_half,
    species_atoms,
)
from repro.systems.configuration import Configuration


def _half_grid_gradient(block: np.ndarray, g, p) -> np.ndarray:
    """``Σ_G G · block(G) · Π p`` for one atom: the block contracted with
    the last axis' phases (plain and ``g``-weighted, one GEMM), that with
    the second axis', and three dot products with the first.  ``g`` and
    ``p`` are per-axis components and this atom's phase vectors."""
    (gx, gy, gz), (px, py, pz) = g, p
    n0, n1, nk = len(px), len(py), len(pz)
    over_z = block.reshape(n0 * n1, nk) @ np.stack((pz, gz * pz), axis=1)
    plain, weighted = over_z.reshape(n0, n1, 2).transpose(2, 0, 1)
    over_y = plain @ np.stack((py, gy * py), axis=1)
    return np.array([
        (gx * px) @ over_y[:, 0], px @ over_y[:, 1], px @ (weighted @ py),
    ])


def local_forces(
    grid: RealSpaceGrid, config: Configuration, rho: np.ndarray
) -> np.ndarray:
    """Forces from the local pseudopotential, one row per atom.

    ``F_I = Re Σ_G iG ρ̃*(G) ṽ(G) e^{-iG·R_I}`` over the full grid, evaluated
    on the ``rfftn`` half grid: the last axis carries the Hermitian weights
    (½ on the ``k = 0`` and Nyquist planes, 1 between), and each atom
    contracts its species' ``conj(ρ̃)·ṽ`` block with the per-axis phases of
    :func:`~repro.dft.pseudopotential.half_grid_phases` and their mirror —
    two passes over the block per atom, nothing of grid size per atom.
    """
    nk = grid.shape[2] // 2 + 1
    weights = np.ones(nk, dtype=float)
    weights[0] = 0.5
    if grid.shape[2] % 2 == 0:
        weights[-1] = 0.5
    conj_rho = np.fft.rfftn(rho)
    np.conjugate(conj_rho, out=conj_rho)
    conj_rho *= weights / grid.npoints  # density convention, weighted
    forces = np.zeros((config.natoms, 3), dtype=float)
    block = np.empty_like(conj_rho)
    for symbol, idx in species_atoms(config):
        np.multiply(conj_rho, local_potential_half(grid, symbol), out=block)
        (g, p), (g_mirror, q) = half_grid_phases(grid, config.positions[idx])
        for row, atom in enumerate(idx):
            total = _half_grid_gradient(block, g, [pa[row] for pa in p])
            total += _half_grid_gradient(
                block, g_mirror, [qa[row] for qa in q]
            )
            forces[atom] = -total.imag  # Re(i·z)
    return forces


def projector_forces(
    basis: PlaneWaveBasis,
    nonlocal_: NonlocalProjectors,
    psi: np.ndarray,
    occupations: np.ndarray,
    columns: Sequence[int],
) -> np.ndarray:
    """``dE/dR`` of the atom of each listed projector column, one row per
    column: ``E = Σ_n f_n D_p |o_pn|²`` with ``o_pn = ⟨β_p|ψ_n⟩``, so
    ``dE/dR = 2 D_p Σ_n f_n Re[o*_pn ∂o_pn/∂R]``."""
    overlaps = nonlocal_.overlaps(psi)  # (nproj, nband): <β_p|ψ_n>
    # d<β|ψ>/dR = Σ_G iG b*_G e^{iG·R} ψ_G = iG-weighted version of overlap
    gv = basis.g_vectors  # (npw, 3)
    occ = np.asarray(occupations, dtype=float)
    out = np.empty((len(columns), 3), dtype=float)
    for row, col in enumerate(columns):
        d = nonlocal_.d[col]
        grad = (1j * gv * nonlocal_.b_conj[:, col, None]).T @ psi  # (3, nband)
        out[row] = 2.0 * d * np.real(
            np.sum(occ[None, :] * np.conj(overlaps[col])[None, :] * grad, axis=1)
        )
    return out


def forces_from_scf(config: Configuration, scf_result) -> np.ndarray:
    """Forces of a whole-cell solve (:func:`~repro.dft.scf.run_scf`'s
    :class:`~repro.core.ldc.LDCResult`): the LDC assembly on its one
    domain."""
    from repro.core.forces import ldc_forces  # core.forces imports this module

    return ldc_forces(config, scf_result)
