"""Hellmann–Feynman forces for the plane-wave engine.

Three contributions:

* **Local**:  F_I = Σ_G i G ρ̃*(G) ṽ_I(G) e^{-iG·R_I}   (real part),
  from E_loc = Ω Σ_G ρ̃*(G) Ṽ_loc(G).
* **Nonlocal**: derivative of the Kleinman–Bylander projector overlaps.
* **Ewald**: ion-ion forces from :mod:`repro.dft.ewald`.

Validated against central finite differences of the SCF total energy
(the Hellmann–Feynman theorem holds at self-consistency).
"""

from __future__ import annotations

import numpy as np

from repro.dft.basis import PlaneWaveBasis
from repro.dft.ewald import ewald
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


def nonlocal_forces(
    basis: PlaneWaveBasis,
    config: Configuration,
    nonlocal_: NonlocalProjectors,
    psi: np.ndarray,
    occupations: np.ndarray,
) -> np.ndarray:
    """Forces from the Kleinman–Bylander projectors."""
    forces = np.zeros((config.natoms, 3), dtype=float)
    if nonlocal_.nproj == 0:
        return forces
    b = nonlocal_.b  # (npw, nproj)
    overlaps = b.conj().T @ psi  # (nproj, nband): <β_p|ψ_n>
    # d<β|ψ>/dR = Σ_G iG b*_G e^{iG·R} ψ_G = iG-weighted version of overlap
    gv = basis.g_vectors  # (npw, 3)
    occ = np.asarray(occupations, dtype=float)
    for col, atom in enumerate(nonlocal_.atom_indices):
        d = nonlocal_.d[col]
        bcol = b[:, col]
        grad = (1j * gv * bcol.conj()[:, None]).T @ psi  # (3, nband)
        # E = Σ_n f D |o_n|²; dE/dR = 2 D Σ f Re[o* do/dR]
        dE = 2.0 * d * np.real(
            np.sum(occ[None, :] * np.conj(overlaps[col])[None, :] * grad, axis=1)
        )
        forces[atom] -= dE
    return forces


def hellmann_feynman_forces(
    config: Configuration,
    basis: PlaneWaveBasis,
    rho: np.ndarray,
    psi: np.ndarray,
    occupations: np.ndarray,
    nonlocal_: NonlocalProjectors | None = None,
) -> np.ndarray:
    """Total HF forces: local + nonlocal + Ewald.  Shape ``(natom, 3)``."""
    grid = basis.grid
    f = local_forces(grid, config, rho)
    if nonlocal_ is None:
        nonlocal_ = NonlocalProjectors(basis, config)
    f += nonlocal_forces(basis, config, nonlocal_, psi, occupations)
    _, f_ewald = ewald(config.wrapped_positions(), config.zvals, config.cell)
    f += f_ewald
    return f


def forces_from_scf(config: Configuration, scf_result) -> np.ndarray:
    """Convenience: forces straight from an :class:`~repro.dft.scf.SCFResult`."""
    nonlocal_ = NonlocalProjectors(scf_result.basis, config)
    return hellmann_feynman_forces(
        config,
        scf_result.basis,
        scf_result.density,
        scf_result.orbitals,
        scf_result.occupations,
        nonlocal_,
    )
