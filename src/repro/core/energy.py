"""Divide-and-conquer total-energy assembly.

Global physical properties are linear combinations of domain properties
(Fig. 1): with the partition of unity p_α and domain eigenpairs (ε_n^α,
ψ_n^α), the band energy is

    E_band = Σ_α Σ_n f_n ε_n^α w_αn,     w_αn = ∫ p_α |ψ_n^α|² dr,

from which the boundary-potential contribution Σ_α ∫ p_α v_bc ρ_α is removed
(v_bc is a numerical device, not physics).  Double counting is subtracted
with the *global* density and potentials, and the ionic Ewald energy and the
smearing entropy are added:

    E = E_band - ∫ρ(V_H + v_xc) + E_H[ρ] + E_xc[ρ] + E_Ewald - k_B T S.
"""

from __future__ import annotations

import numpy as np

from repro.dft.grid import RealSpaceGrid
from repro.dft.occupations import smearing_entropy
from repro.dft.scf import harris_foulkes_energy


def dc_band_energy(
    eigenvalues: list[np.ndarray],
    occupations: list[np.ndarray],
    band_weights: list[np.ndarray],
) -> float:
    """Σ_α Σ_n f_n ε_n w_αn over all domains."""
    total = 0.0
    for eigs, occs, w in zip(eigenvalues, occupations, band_weights):
        total += float(np.sum(occs * eigs * w))
    return total


def boundary_energy_correction(
    supports: list[np.ndarray],
    vbcs: list[np.ndarray],
    rho_locals: list[np.ndarray],
    dv: float,
) -> float:
    """Σ_α ∫ p_α v_bc ρ_α dr — subtracted from the band energy."""
    total = 0.0
    for p, vbc, rho in zip(supports, vbcs, rho_locals):
        total += float(np.sum(p * vbc * rho) * dv)
    return total


def dc_total_energy(
    grid: RealSpaceGrid,
    rho: np.ndarray,
    vh: np.ndarray,
    exc: np.ndarray,
    vxc: np.ndarray,
    band_energy: float,
    vbc_correction: float,
    e_ewald: float,
    all_eigs: np.ndarray,
    all_weights: np.ndarray,
    mu: float,
    kt: float,
) -> dict[str, float]:
    """The LDC inputs of the one total-energy expression
    (:func:`repro.dft.scf.harris_foulkes_energy`, everything at the pass's
    input density ``rho``): the band energy less the ``v_bc`` correction,
    and the partition-weighted entropy.  Returns every component."""
    entropy = smearing_entropy(all_eigs, mu, kt, weights=all_weights)
    parts = harris_foulkes_energy(
        grid, rho, vh, exc, vxc, band_energy - vbc_correction, e_ewald,
        -kt * entropy,
    )
    return {**parts, "band": band_energy, "vbc_correction": vbc_correction}
