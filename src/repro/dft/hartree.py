"""Hartree (electrostatic) potential of the electron density.

Two interchangeable solvers exist in this package:

* this module — the reciprocal-space solve ``V_H(G) = 4π ρ̃(G)/G²`` used by
  the conventional O(N³) code path (one real FFT pair, exact on the grid);
* :mod:`repro.multigrid.poisson` — the real-space multigrid solve used by
  the globally-scalable half of the GSLF solver (Sec. 3.2).

The ``G = 0`` component is set to zero: for a charge-neutral system the
divergent monopole terms of the Hartree, local-pseudopotential, and ion-ion
energies cancel (handled by the Ewald neutralizing background and the
pseudopotential α·Z correction).
"""

from __future__ import annotations

import numpy as np

from repro.dft.grid import RealSpaceGrid


def hartree_potential(grid: RealSpaceGrid, rho: np.ndarray) -> np.ndarray:
    """Solve ∇²V_H = -4πρ on the periodic grid; returns a real field (an
    array of its own, not a view into a transform's complex buffer)."""
    vg = np.fft.rfftn(rho)
    vg *= grid.coulomb_kernel()
    return np.fft.irfftn(vg, s=grid.shape, axes=(0, 1, 2))


def hartree_energy(grid: RealSpaceGrid, rho: np.ndarray, vh: np.ndarray | None = None) -> float:
    """E_H = (1/2) ∫ ρ V_H dr."""
    if vh is None:
        vh = hartree_potential(grid, rho)
    return 0.5 * grid.inner(rho, vh)
