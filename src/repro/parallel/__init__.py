"""The virtual parallel machine — substitute for the 786,432-core Blue Gene/Q.

An analytic cost model: per-node FLOP rates with SIMD/threading efficiency
(:mod:`repro.parallel.machine`; Blue Gene/Q and Xeon E5-2665 presets), 5-D
torus links and tree/butterfly collective costs
(:mod:`repro.parallel.topology`) and the collective-I/O model
(:mod:`repro.parallel.collective_io`).

Scaling to core counts we cannot instantiate (Figs. 5-6) is a deterministic
evaluation of these cost expressions — the one cost model,
:mod:`repro.perfmodel.scaling`.
"""

from repro.parallel.machine import (
    BLUE_GENE_Q,
    MIRA,
    XEON_E5_2665,
    MachineSpec,
)
from repro.parallel.topology import TorusTopology, TreeTopology
from repro.parallel.collective_io import CollectiveIOModel

__all__ = [
    "MachineSpec",
    "BLUE_GENE_Q",
    "MIRA",
    "XEON_E5_2665",
    "TorusTopology",
    "TreeTopology",
    "CollectiveIOModel",
]
