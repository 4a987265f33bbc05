"""Analytic performance models for the paper's evaluation artifacts.

* :mod:`repro.perfmodel.flops` — FLOP counts of the LDC-DFT kernels
  (batched FFTs, BLAS3 projector/subspace GEMMs, multigrid stencils).
* :mod:`repro.perfmodel.threading` — the Table 1 / Table 2 FLOP-rate model
  (SIMD fraction × instruction issue × parallel dilution).
* :mod:`repro.perfmodel.scaling` — weak- (Fig. 5) and strong- (Fig. 6)
  scaling wall-clock composition on the virtual Blue Gene/Q.
* :mod:`repro.perfmodel.metrics` — time-to-solution metrics
  (atom·iteration/s, parallel efficiency, %peak) and the prior-art
  comparison of Sec. 2.
"""

from repro.perfmodel.flops import (
    FlopCounts,
    domain_scf_flops,
    fft_flops,
    gemm_flops,
    multigrid_vcycle_flops,
    qmd_step_flops,
    staged_fft_flops,
)
from repro.perfmodel.threading import flops_table, rack_table
from repro.perfmodel.scaling import StrongScalingModel, WeakScalingModel
from repro.perfmodel.campaign import CampaignSpec, PAPER_PRODUCTION, plan_campaign
from repro.perfmodel.metrics import (
    PRIOR_ART,
    atom_iterations_per_second,
    parallel_efficiency_strong,
    parallel_efficiency_weak,
    percent_of_peak,
    speedup_over,
)

__all__ = [
    "FlopCounts",
    "fft_flops",
    "staged_fft_flops",
    "gemm_flops",
    "domain_scf_flops",
    "multigrid_vcycle_flops",
    "qmd_step_flops",
    "flops_table",
    "rack_table",
    "WeakScalingModel",
    "StrongScalingModel",
    "atom_iterations_per_second",
    "parallel_efficiency_weak",
    "parallel_efficiency_strong",
    "percent_of_peak",
    "speedup_over",
    "PRIOR_ART",
    "CampaignSpec",
    "PAPER_PRODUCTION",
    "plan_campaign",
]
