"""Divide-and-conquer total-energy assembly.

Global physical properties are linear combinations of domain properties
(Fig. 1): with the partition of unity p_α and domain eigenpairs (ε_n^α,
ψ_n^α), the band energy is

    E_band = Σ_α Σ_n f_n ε_n^α w_αn,     w_αn = ∫ p_α |ψ_n^α|² dr,

with nothing removed for the boundary potential: v_bc acts outside each
core, where the sharp p_α is 0, so Σ_α ∫ p_α v_bc ρ_α vanishes identically.
Double counting is subtracted with the *global* density and potentials, and
the ionic Ewald energy and the smearing entropy are added:

    E = E_band - ∫ρ(V_H + v_xc) + E_H[ρ] + E_xc[ρ] + E_Ewald - k_B T S.
"""

from __future__ import annotations

import numpy as np

from repro.dft.occupations import smearing_entropy
from repro.dft.scf import PotentialTerms, harris_foulkes_energy


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


def dc_total_energy(
    terms: PotentialTerms,
    band_energy: float,
    e_ewald: float,
    all_eigs: np.ndarray,
    all_weights: np.ndarray,
    mu: float,
    kt: float,
) -> dict[str, float]:
    """The LDC inputs of the one total-energy expression
    (:func:`repro.dft.scf.harris_foulkes_energy`, ``terms`` taken at the
    pass's input density when its potentials were built): the band energy
    and the partition-weighted entropy.  Returns every component."""
    entropy = smearing_entropy(all_eigs, mu, kt, weights=all_weights)
    return harris_foulkes_energy(terms, band_energy, e_ewald, -kt * entropy)
