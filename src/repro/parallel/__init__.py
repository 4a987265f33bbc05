"""The virtual parallel machine — substitute for the 786,432-core Blue Gene/Q.

An analytic cost model: per-node FLOP rates with SIMD/threading efficiency
(:mod:`repro.parallel.machine`; Blue Gene/Q and Xeon E5-2665 presets), 5-D
torus links and tree/butterfly collective costs
(:mod:`repro.parallel.topology`), per-rank virtual clocks charged by compute
and collectives (:mod:`repro.parallel.trace`), the largest-first domain
scheduler (:mod:`repro.parallel.scheduler`) and the collective-I/O model
(:mod:`repro.parallel.collective_io`).  :func:`repro.core.parallel_ldc.run_parallel_ldc`
charges a real LDC solve to these clocks, so a run yields both the answer
and its predicted wall-clock time.

Scaling to core counts we cannot instantiate (Figs. 5-6) is a deterministic
evaluation of the same cost expressions — see
:mod:`repro.perfmodel.scaling`.
"""

from repro.parallel.machine import (
    BLUE_GENE_Q,
    MIRA,
    XEON_E5_2665,
    MachineSpec,
)
from repro.parallel.topology import TorusTopology, TreeTopology
from repro.parallel.trace import CostTracker
from repro.parallel.collective_io import CollectiveIOModel
from repro.parallel.scheduler import Schedule, schedule_domains

__all__ = [
    "MachineSpec",
    "BLUE_GENE_Q",
    "MIRA",
    "XEON_E5_2665",
    "TorusTopology",
    "TreeTopology",
    "CostTracker",
    "CollectiveIOModel",
    "Schedule",
    "schedule_domains",
]
