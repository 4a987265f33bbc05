"""Plane-wave Kohn–Sham DFT substrate (the "locally fast" half of GSLF).

A self-contained, NumPy-vectorized plane-wave DFT engine:

* :mod:`repro.dft.grid` — real/reciprocal-space grids and FFT conventions.
* :mod:`repro.dft.basis` — kinetic-energy-cutoff plane-wave basis.
* :mod:`repro.dft.xc` — LDA exchange-correlation (Perdew–Zunger 1981).
* :mod:`repro.dft.hartree` — reciprocal-space Poisson solve.
* :mod:`repro.dft.ewald` — ion-ion Ewald sums (energy and forces).
* :mod:`repro.dft.pseudopotential` — Gaussian-screened local potentials and
  Kleinman–Bylander separable nonlocal projectors.
* :mod:`repro.dft.hamiltonian` — BLAS3 all-band Hamiltonian application.
* :mod:`repro.dft.occupations` — Fermi–Dirac occupations, Newton–Raphson μ.
* :mod:`repro.dft.mixing` — linear and Pulay density mixing.
* :mod:`repro.dft.eigensolver` — the all-band/block CG (BLAS3 path)
  eigensolver.
* :mod:`repro.dft.scf` — the one SCF fixed-point loop, and the whole-cell
  solve: the conventional O(N³) code (the paper's verification baseline,
  Sec. 5.5) as the one-domain case of LDC.
* :mod:`repro.dft.forces` — local and projector force kernels.
"""

from repro.dft.grid import RealSpaceGrid
from repro.dft.basis import PlaneWaveBasis
from repro.dft.hamiltonian import Hamiltonian
from repro.dft.scf import SCFOptions, run_scf

__all__ = [
    "RealSpaceGrid",
    "PlaneWaveBasis",
    "Hamiltonian",
    "SCFOptions",
    "run_scf",
]
