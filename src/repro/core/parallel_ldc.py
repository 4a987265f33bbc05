"""LDC-DFT on the virtual parallel machine.

Couples the *real* LDC-DFT solve to the simulated Blue Gene/Q: the physics
is computed exactly as in :func:`repro.core.ldc.run_ldc`, while every phase
of every SCF iteration is charged to per-rank virtual clocks —

* per-domain KS solves → the owning rank group's clocks (FLOPs from the
  actual domain problem sizes over the machine's effective rate, LPT-
  scheduled across groups);
* the global-density reduction → a tree collective over all ranks;
* buffer halo exchange → nearest-neighbor torus traffic;
* intra-domain band↔space all-to-alls → butterfly cost within the group.

The output carries both the physical result and the predicted wall-clock /
imbalance — so the scaling predictions of Figs. 5-6 can be generated from a
genuinely executed calculation rather than a standalone model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ldc import LDCOptions, LDCResult, run_ldc
from repro.parallel.machine import BLUE_GENE_Q, MachineSpec
from repro.parallel.scheduler import Schedule, schedule_domains
from repro.parallel.topology import TorusTopology, TreeTopology
from repro.parallel.trace import CostTracker
from repro.perfmodel.flops import domain_scf_flops
from repro.systems.configuration import Configuration


@dataclass
class ParallelLDCResult:
    """Physics result + virtual-machine execution record."""

    result: LDCResult
    tracker: CostTracker
    schedule: Schedule
    total_ranks: int
    predicted_seconds: float
    breakdown: dict[str, float]

    @property
    def imbalance(self) -> float:
        return self.tracker.imbalance()

    def atom_iterations_per_second(self, natoms: int) -> float:
        if self.predicted_seconds <= 0:
            return 0.0
        return natoms * self.result.iterations / self.predicted_seconds


def run_parallel_ldc(
    config: Configuration,
    options: LDCOptions | None = None,
    total_ranks: int = 8,
    machine: MachineSpec = BLUE_GENE_Q,
    threads_per_core: int = 4,
    cg_per_scf: int = 3,
    instrumentation=None,
    schedule: Schedule | None = None,
) -> ParallelLDCResult:
    """Execute LDC-DFT and charge its phases to a virtual machine.

    Parameters
    ----------
    total_ranks:
        Simulated MPI ranks.  Domains are LPT-scheduled onto
        ``min(total_ranks, ndomains)`` groups; larger ranks-per-domain
        accelerate the domain solves (with the intra-domain all-to-all and
        Cholesky costs of Sec. 3.3 growing accordingly).
    instrumentation:
        Optional :class:`~repro.observability.Instrumentation`, forwarded
        to :func:`run_ldc` as its observability handle (``None`` is resolved
        there); the simulated-rank timeline is attached to the same
        Chrome-trace export (under its own pid), so measured spans and
        predicted rank activity render in one viewer.
        A :class:`~repro.observability.comms.CommProfiler` rides the
        tracker, decomposing every charge into compute / wait / transfer
        per phase, and — with a health monitor on the handle — each
        phase's measured time is graded against the balanced-cost model
        on the ``vm.phase`` channel (:class:`DivergenceInvariant`).
    schedule:
        Explicit domain → rank-group assignment (e.g. from
        :func:`~repro.parallel.scheduler.schedule_manual`).  ``None`` (the
        default) LPT-schedules by the actual domain atom counts.  Its
        ``ngroups`` must match ``min(total_ranks, ndomains)``.
    """
    if total_ranks < 1:
        raise ValueError("total_ranks must be >= 1")
    opts = options or LDCOptions()
    result = run_ldc(config, opts, instrumentation=instrumentation)

    active = [s for s in result.states if s.nband > 0]
    ndomains = max(len(active), 1)
    ngroups = min(total_ranks, ndomains)
    ranks_per_group = max(1, total_ranks // ngroups)
    if schedule is None:
        schedule = schedule_domains(
            [len(s.atom_indices) for s in active], ngroups, nu=2.0
        )
    elif schedule.ngroups != ngroups:
        raise ValueError(
            f"schedule has {schedule.ngroups} groups, run needs {ngroups}"
        )

    profiler = None
    if instrumentation is not None:
        from repro.observability.comms import CommProfiler

        profiler = CommProfiler(total_ranks)
    tracker = CostTracker(total_ranks, profiler=profiler)
    torus = TorusTopology(
        (max(total_ranks // machine.cores_per_node, 1),),
        machine.link_bandwidth,
        machine.link_latency,
    )
    tree = TreeTopology(8, machine.link_bandwidth, machine.link_latency)
    core_rate = machine.effective_core_flops(threads_per_core)

    # Per-domain compute seconds per SCF iteration, from the *actual* solve
    # dimensions of this run.
    domain_seconds = []
    for s in active:
        fc = domain_scf_flops(
            npw=s.basis.npw,
            nband=s.nband,
            grid_points=s.basis.grid.npoints,
            nproj=s.vnl.nproj if s.vnl is not None else 0,
            cg_iterations=cg_per_scf,
            fft_stages=s.basis.stage_lines,
        )
        domain_seconds.append(fc.total / (core_rate * ranks_per_group))

    group_ranks = [
        list(range(g * ranks_per_group, (g + 1) * ranks_per_group))
        for g in range(ngroups)
    ]
    rho_bytes = 8.0 * result.grid.npoints
    halo_bytes = 8.0 * float(
        np.mean([s.domain.extent_points.prod() - s.domain.core_points.prod()
                 for s in active])
    ) if active else 0.0

    breakdown = {"domain": 0.0, "alltoall": 0.0, "tree": 0.0, "halo": 0.0}
    for _ in range(result.iterations):
        # local solves (embarrassingly parallel across groups)
        for g in range(ngroups):
            secs = sum(
                domain_seconds[d] for d in schedule.domains_in_group(g)
            )
            with tracker.phase("domain"):
                tracker.charge_compute(group_ranks[g], secs, label="domain")
            breakdown["domain"] += secs / ngroups
            # intra-domain band<->space all-to-alls per CG iteration
            if ranks_per_group > 1:
                slab = 16.0 * np.mean([s.basis.npw * s.nband for s in active])
                t_a2a = 2 * cg_per_scf * torus.alltoall_time(
                    slab / max(ranks_per_group, 1) ** 2, ranks_per_group
                )
                with tracker.phase("alltoall"):
                    tracker.charge_collective(
                        group_ranks[g], t_a2a, slab, label="alltoall"
                    )
                breakdown["alltoall"] += t_a2a / ngroups
        # halo exchange of buffer densities
        t_halo = torus.halo_exchange_time(halo_bytes)
        with tracker.phase("halo"):
            tracker.charge_collective(
                range(total_ranks), t_halo, halo_bytes, "halo"
            )
        breakdown["halo"] += t_halo
        # global density reduction over the tree
        t_tree = tree.vcycle_time(rho_bytes / total_ranks, total_ranks)
        with tracker.phase("tree"):
            tracker.charge_collective(
                range(total_ranks), t_tree, rho_bytes, "tree"
            )
        breakdown["tree"] += t_tree

    parallel_result = ParallelLDCResult(
        result=result,
        tracker=tracker,
        schedule=schedule,
        total_ranks=total_ranks,
        predicted_seconds=tracker.elapsed(),
        breakdown=breakdown,
    )
    if instrumentation is not None:
        instrumentation.attach_cost_tracker(tracker)
        instrumentation.attach_comm_profiler(profiler)
        instrumentation.gauge("vm.predicted_seconds").set(
            parallel_result.predicted_seconds
        )
        instrumentation.gauge("vm.imbalance").set(parallel_result.imbalance)
        instrumentation.gauge("vm.ranks").set(total_ranks)
        instrumentation.gauge("vm.parallel_efficiency").set(
            profiler.parallel_efficiency()
        )
        instrumentation.gauge("vm.wait_fraction").set(profiler.wait_fraction())
        for phase, seconds in breakdown.items():
            instrumentation.gauge("vm.breakdown", phase=phase).set(seconds)
        # Grade each phase's measured laggard time against the balanced
        # cost-model prediction (DivergenceInvariant on "vm.phase"): the
        # laggard's active seconds in a phase vs the breakdown's
        # every-group-equal estimate.  A skewed domain assignment shows up
        # here as drift ≈ ngroups − 1.
        for phase, agg in profiler.by_phase().items():
            modeled = breakdown.get(phase, 0.0)
            measured = float((agg["compute"] + agg["transfer"]).max())
            instrumentation.observe(
                "vm.phase",
                phase=phase,
                measured_seconds=measured,
                modeled_seconds=modeled,
                ranks=total_ranks,
            )
        instrumentation.log.info(
            "virtual machine run",
            extra={
                "ranks": total_ranks,
                "predicted_seconds": parallel_result.predicted_seconds,
                "imbalance": parallel_result.imbalance,
                "parallel_efficiency": profiler.parallel_efficiency(),
            },
        )
    return parallel_result
