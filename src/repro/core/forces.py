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
from repro.dft.forces import local_forces, projector_forces
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
    """Nonlocal projector forces, each atom's from the domain owning its
    core: :func:`~repro.dft.forces.projector_forces` on that domain's
    orbitals and occupations, for the columns of the atoms it owns."""
    forces = np.zeros((config.natoms, 3), dtype=float)
    decomp = result.decomposition
    owners = [
        decomp.owner_domain(config.positions[i]) for i in range(config.natoms)
    ]
    # result.states is in decomposition.domains order: idom is what
    # owner_domain returns
    for idom, state in enumerate(result.states):
        if state.nband == 0 or state.vnl is None or state.vnl.nproj == 0:
            continue
        atoms = [int(state.atom_indices[a]) for a in state.vnl.atom_indices]
        owned = [col for col, atom in enumerate(atoms) if owners[atom] == idom]
        de = projector_forces(
            state.basis, state.vnl, state.psi, state.occupations, owned
        )
        for col, row in zip(owned, de):
            forces[atoms[col]] -= row
    return forces
