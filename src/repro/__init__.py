"""repro — reproduction of "Metascalable Quantum Molecular Dynamics
Simulations of Hydrogen-on-Demand" (Nomura et al., SC14).

Subpackages:

* :mod:`repro.core` — LDC-DFT (the paper's contribution), whose one-domain
  case is the global solve.
* :mod:`repro.dft` — plane-wave Kohn–Sham substrate (O(N³) baseline).
* :mod:`repro.multigrid` — real-space Poisson solver (GSLF global half).
* :mod:`repro.parallel` — the virtual parallel machine (Blue Gene/Q cost
  models: node FLOP rates, torus/tree topologies, collective I/O).
* :mod:`repro.perfmodel` — FLOP/threading/scaling models for the paper's
  tables and figures.
* :mod:`repro.md` — molecular dynamics and the QMD driver.
* :mod:`repro.reactive` — the hydrogen-on-demand science surrogate.
* :mod:`repro.systems` — workload builders (CdSe, LiAl, water, toys).

See DESIGN.md for the architecture and EXPERIMENTS.md for the
paper-vs-measured record.
"""

__version__ = "1.0.0"
