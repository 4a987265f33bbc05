"""Reactive surrogate for the hydrogen-on-demand science application (Sec. 6).

The paper's production QMD (16,661 atoms × 21,140 steps of ab initio
dynamics) is far beyond a NumPy prototype, so this package substitutes a
surrogate with the *same observables* (DESIGN.md §2):

* :mod:`repro.reactive.sites` — surface-atom and Lewis acid-base pair
  census on nanoparticle geometries (the key nanostructural design).
* :mod:`repro.reactive.kmc` — Gillespie kinetic Monte Carlo over surface
  sites with the paper's activation energies (water dissociation at a
  Li-Al pair: 0.068 eV; pure Al: ≈ 0.4 eV), Li dissolution → pH rise →
  oxide-passivation inhibition (the autocatalytic yield mechanism).
* :mod:`repro.reactive.analysis` — Arrhenius fits and rates with error
  bars.
"""

from repro.reactive.sites import surface_atoms, lewis_pairs, SiteCensus
from repro.reactive.kmc import KMCOptions, KMCResult, run_kmc
from repro.reactive.analysis import arrhenius_fit

__all__ = [
    "surface_atoms",
    "lewis_pairs",
    "SiteCensus",
    "KMCOptions",
    "KMCResult",
    "run_kmc",
    "arrhenius_fit",
]
