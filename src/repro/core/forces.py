"""Hellmann–Feynman forces in the divide-and-conquer framework.

Three pieces, mirroring :mod:`repro.dft.forces`:

* **Local-pseudopotential forces** — computed *globally* from the assembled
  global density (the local field is global in our formulation, so its force
  is exact given ρ).
* **Nonlocal forces** — per-domain: each atom's projector force is evaluated
  in the domain that owns the atom's core, using that domain's orbitals and
  occupations (the standard DC approximation; its error decays with the
  buffer like everything else).
* **Ewald forces** — global, exact.
"""

from __future__ import annotations

import numpy as np

from repro.dft.ewald import ewald
from repro.dft.forces import local_forces
from repro.systems.configuration import Configuration


def ldc_forces(
    config: Configuration, result, f_ewald: np.ndarray | None = None
) -> np.ndarray:
    """Total forces for a converged :class:`~repro.core.ldc.LDCResult`.

    ``f_ewald`` takes the ion-ion forces when the caller already has them
    (``run_ldc`` evaluates Ewald once, for energy and forces).
    """
    grid = result.grid
    forces = local_forces(grid, config, result.density)
    if f_ewald is None:
        _, f_ewald = ewald(
            config.wrapped_positions(), config.zvals, config.cell
        )
    forces += f_ewald
    forces += nonlocal_forces_dc(config, result)
    return forces


def nonlocal_forces_dc(config: Configuration, result) -> np.ndarray:
    """Nonlocal projector forces assembled from owning domains."""
    forces = np.zeros((config.natoms, 3), dtype=float)
    decomp = result.decomposition
    owners = [
        decomp.owner_domain(config.positions[i]) for i in range(config.natoms)
    ]
    # Map domain list index -> state (states are stored in the same order).
    for state in result.states:
        if state.nband == 0 or state.vnl is None or state.vnl.nproj == 0:
            continue
        dom_idx = _domain_list_index(decomp, state.domain.index)
        b = state.vnl.b
        gv = state.basis.g_vectors
        overlaps = b.conj().T @ state.psi  # (nproj, nband)
        occ = state.occupations
        for col, local_atom in enumerate(state.vnl.atom_indices):
            global_atom = int(state.atom_indices[local_atom])
            if owners[global_atom] != dom_idx:
                continue  # another domain owns this atom's core
            d = state.vnl.d[col]
            bcol = b[:, col]
            grad = (1j * gv * bcol.conj()[:, None]).T @ state.psi  # (3, nband)
            de = 2.0 * d * np.real(
                np.sum(occ[None, :] * np.conj(overlaps[col])[None, :] * grad, axis=1)
            )
            forces[global_atom] -= de
    return forces


def _domain_list_index(decomp, index3: tuple[int, int, int]) -> int:
    nd = decomp.domain_counts
    return index3[0] * nd[1] * nd[2] + index3[1] * nd[2] + index3[2]
