"""The four named workloads of the end-to-end QMD benchmark.

Inputs are generated here from the seed; the program under test
(``repro``) only ever sees the resulting ``Configuration`` objects and
option objects.  Each workload is a *session*: ``setup`` builds the engine
(the part ``setup_s`` times) and ``step(k)`` runs one closed-loop unit of
work — one MD step or one single point — and returns its outputs for the
correctness checks.

Why these four (the one-line reasons live in ``BENCHMARK.json``):

* ``lial_drift_serial`` — the canonical warm QMD step with every landed
  lever on (workspace, ASPC depth 3), per-domain kernels.
* ``lial_drift_batched`` — the same frames through the stacked kernels
  (``core.batched``); a gain for one kernel family that costs the other
  shows as one row moving against the other.
* ``lial_cold_multigrid`` — independent cold single points: bypasses the
  workspace, the ASPC predictor and every warm start (any warm-start
  change must not move it), pays the structure build every call, and is
  the only workload where ``multigrid.poisson`` runs.
* ``water_scf_nve`` — real NVE dynamics through the *other* SCF loop
  (``dft.scf``) on one larger basis; LDC-only changes must not move it.

The ``ldc_workers`` thread fan-out is deliberately not a workload: on a
2-core host two worker threads are the whole machine and the number
measures the scheduler (see README).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import repro.core.ldc as ldc_module
from repro.core.ldc import LDCOptions
from repro.dft.scf import SCFOptions
from repro.md.integrator import initialize_velocities
from repro.md.qmd import LDCEngine, QMDDriver, QMDOptions, SCFEngine
from repro.systems.lialloy import lial_nanoparticle
from repro.systems.water import water_molecule

#: LDC options shared by the three LiAl workloads
LDC_SHARED = dict(
    ecut=3.0, domains=(2, 2, 1), buffer=2.0, tol=1e-5, max_iter=40,
    kt=0.02, extra_bands=4,
)
LIAL_CELL = (16.0, 16.0, 16.0)
#: drift per frame (Bohr) along the seeded unit direction
DRIFT_STEP = 0.04
#: The drift direction is ``unit(d_ref + DRIFT_JITTER * xi_seed)``: a
#: fixed reference direction plus a seeded one.  A fully random direction
#: changes the number of SCF passes per warm step by +-8 % between seeds
#: (49-57 passes over ten steady steps measured), which would be reported
#: as a timing spread; with the jitter the frames differ for every seed
#: (individual steps still flip between 5 and 6 passes) while the total
#: work stays within ~3 %.
DRIFT_JITTER = 0.1
#: rattle amplitude (Bohr) of the independent cold single points
RATTLE_SIGMA = 0.15
WATER_CELL = (12.0, 12.0, 12.0)
WATER_KELVIN = 300.0
WATER_TIMESTEP = 10.0
#: ISSUE sized this workload at ecut=8.0 (41 s for 13 steps on this host);
#: 5.0 keeps one run inside the driver's time cap with the same layers hot.
WATER_SCF = dict(ecut=5.0, tol=1e-6, kt=0.01)


@dataclass
class StepOutput:
    """What one unit of work produced (inputs to the correctness checks)."""

    energy: float
    forces: np.ndarray
    scf_iterations: int
    converged: bool
    #: potential + kinetic energy (NVE workload only)
    total_energy: float | None = None


def drift_direction(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """The seeded unit drift direction (see ``DRIFT_JITTER``)."""
    ref = np.random.default_rng(7_000_003).standard_normal(shape)
    ref /= np.linalg.norm(ref)
    xi = np.random.default_rng(seed).standard_normal(shape)
    xi /= np.linalg.norm(xi)
    d = ref + DRIFT_JITTER * xi
    return d / np.linalg.norm(d)


class DriftReplay:
    """Li4Al4 constant-velocity drift replayed through one ``LDCEngine``."""

    def __init__(self, seed: int, batch_domains: bool, instrumentation=None):
        self.base = lial_nanoparticle(4, cell=list(LIAL_CELL))
        self.direction = drift_direction(seed, self.base.positions.shape)
        self.options = LDCOptions(**LDC_SHARED, batch_domains=batch_domains)
        self.engine = LDCEngine(
            self.options, instrumentation=instrumentation,
            qmd_options=QMDOptions(history_depth=3, adaptive_buffer=False),
        )

    def frame(self, k: int):
        cfg = self.base.copy()
        cfg.positions = self.base.positions + k * DRIFT_STEP * self.direction
        return cfg

    def step(self, k: int) -> StepOutput:
        cfg = self.frame(k)
        forces, energy, passes = self.engine.forces(cfg)
        # conservative: a solve that converges exactly on the last allowed
        # pass is flagged too (warm steps here take 5-7 of 40)
        return StepOutput(energy, forces, passes,
                          passes < self.options.max_iter)


class ColdSinglePoints:
    """Independent rattled Li4Al4 single points through plain ``run_ldc``
    with the multigrid Poisson solver: no workspace, no history."""

    def __init__(self, seed: int, instrumentation=None):
        self.base = lial_nanoparticle(4, cell=list(LIAL_CELL))
        self.seed = seed
        self.options = LDCOptions(**LDC_SHARED, poisson="multigrid",
                                  batch_domains=False)
        self.instrumentation = instrumentation

    def frame(self, k: int):
        rng = np.random.default_rng([self.seed, k])
        cfg = self.base.copy()
        cfg.positions = self.base.positions + RATTLE_SIGMA * (
            rng.standard_normal(self.base.positions.shape)
        )
        return cfg

    def step(self, k: int) -> StepOutput:
        cfg = self.frame(k)
        # looked up on the module at call time so a traced run's rebinding
        # of ``run_ldc`` is honoured
        res = ldc_module.run_ldc(cfg, self.options, compute_forces=True,
                                 instrumentation=self.instrumentation)
        return StepOutput(res.energy, res.forces, res.iterations,
                          res.converged)


class _ForceTap:
    """Engine pass-through (the documented ``forces(config)`` protocol)
    that keeps the last forces and the SCF iteration count of every solve
    for the correctness checks."""

    def __init__(self, engine):
        self.engine = engine
        self.last_forces = None
        self.iterations: list[int] = []

    def forces(self, config):
        out = self.engine.forces(config)
        self.last_forces = out[0]
        self.iterations.append(out[2])
        return out


class WaterNVE:
    """One H2O molecule, real NVE steps through ``QMDDriver(SCFEngine)``."""

    def __init__(self, seed: int, instrumentation=None):
        center = tuple(0.5 * c for c in WATER_CELL)
        self.config = water_molecule(center=center, cell=WATER_CELL)
        initialize_velocities(self.config, WATER_KELVIN, seed=seed)
        self.options = SCFOptions(**WATER_SCF)
        self.tap = _ForceTap(
            SCFEngine(self.options, instrumentation=instrumentation,
                      qmd_options=QMDOptions(history_depth=3))
        )
        self.driver = QMDDriver(
            self.tap, timestep=WATER_TIMESTEP,
            instrumentation=instrumentation,
        )

    def step(self, k: int) -> StepOutput:
        self.tap.iterations.clear()
        frame = self.driver.run(self.config, 1)[-1]
        # (the first call also evaluates the initial forces: two solves)
        return StepOutput(
            frame.potential_energy, self.tap.last_forces,
            frame.scf_iterations,
            max(self.tap.iterations) < self.options.max_iter,
            total_energy=frame.total_energy,
        )


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``setup(seed, instrumentation) -> session``
    setup: Callable
    #: steps every run executes (time-bounded runs may continue past it);
    #: ``traj_wall_s`` sums exactly these indices
    min_steps: int
    #: first steady-state index (earlier ones are cold / history filling)
    steady_from: int
    #: |E - E_reference| allowed at the default seed (Ha)
    reference_tol: float
    #: consecutive frames lie on one straight path, so the energy may not
    #: jump: bound on |E_k - 2 E_k-1 + E_k-2| in Ha (5e-6 measured on the
    #: drift); None where the frames are not such a path
    smooth_tol: float | None
    natoms: int = 8
    #: workload that runs the same frames on another execution path and
    #: must reproduce these energies (checked when both are in one set)
    parity_with: str | None = None


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "lial_drift_serial",
            lambda seed, ins=None: DriftReplay(seed, False, ins),
            min_steps=13, steady_from=3, reference_tol=1e-6, smooth_tol=1e-4,
        ),
        Workload(
            "lial_drift_batched",
            lambda seed, ins=None: DriftReplay(seed, True, ins),
            min_steps=13, steady_from=3, reference_tol=1e-6, smooth_tol=1e-4,
            parity_with="lial_drift_serial",
        ),
        Workload(
            "lial_cold_multigrid", ColdSinglePoints,
            min_steps=4, steady_from=1, reference_tol=1e-6, smooth_tol=None,
        ),
        Workload(
            "water_scf_nve", WaterNVE,
            min_steps=13, steady_from=3, reference_tol=1e-5, smooth_tol=None,
            natoms=3,
        ),
    )
}
