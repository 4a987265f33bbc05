"""Atomic structures and the workload builders used by the paper's benchmarks.

* **Amorphous CdSe** — buffer-thickness convergence (Fig. 7).
* **LiAl nanoparticles** — the hydrogen-on-demand workload (Sec. 6) and
  the QMD trajectory benchmark.
* **Water** — the solvent substrate and the global-SCF NVE workload.
* **Toys** — dimers.

The paper's SiC workloads (Fig. 5, Tables 1-2) enter as cost models
(:mod:`repro.perfmodel`), not as built atoms.
"""

from repro.systems.configuration import Configuration
from repro.systems.cdse import amorphous_cdse
from repro.systems.water import water_molecule
from repro.systems.lialloy import lial_nanoparticle
from repro.systems.toys import dimer

__all__ = [
    "Configuration",
    "amorphous_cdse",
    "water_molecule",
    "lial_nanoparticle",
    "dimer",
]
