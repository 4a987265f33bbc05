"""The QMD driver: MD with quantum-mechanical (or surrogate) forces.

This is the production loop of Sec. 6: at every MD step the electronic
structure is re-solved (warm-started from the previous step's density and
converged orbitals — the LDC engine keeps a persistent
:class:`~repro.core.workspace.LDCWorkspace` for the structural reuse) and
Hellmann–Feynman forces drive velocity Verlet, with an optional thermostat.
Engines are pluggable:

* :class:`LDCEngine` — the O(N) LDC-DFT solver (the paper's engine);
* :class:`SCFEngine` — the conventional O(N³) solver (the verification
  baseline of Sec. 5.5);
* any object with ``forces(config) -> (forces, energy, scf_iterations)``.

The driver records the per-step SCF iteration counts, so the paper's
time-to-solution accounting (atoms × SCF iterations / second) can be
reproduced on real runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.constants import ATU_TO_FS
from repro.md.extrapolate import DomainHistory, subspace_residual
from repro.md.integrator import VelocityVerlet, kinetic_energy, temperature
from repro.systems.configuration import Configuration

if TYPE_CHECKING:
    from repro.core.advisor import BufferController, BufferControllerOptions


@dataclass
class QMDOptions:
    """MD-level solver-acceleration knobs, engine-agnostic.

    Both engines accept one of these via ``qmd_options=``; every field
    has an environment fallback so CI legs and production scripts can
    flip the accelerations without touching code.
    """

    #: ASPC history depth K: 1 = last-state warm start (the default),
    #: K >= 2 = time-reversible K-point extrapolation of ψ/ρ
    #: (:mod:`repro.md.extrapolate`).  ``None`` defers to
    #: ``$REPRO_ASPC_DEPTH``, then to the engine's options.
    history_depth: int | None = None
    #: run the Eq.-1 :class:`~repro.core.advisor.BufferController` loop
    #: (LDC engine only).  ``None`` defers to ``$REPRO_ADAPTIVE_BUFFER``.
    adaptive_buffer: bool | None = None
    #: thresholds for the controller; ``None`` = its defaults
    controller: BufferControllerOptions | None = None


def _resolve_history_depth(qmd_options: QMDOptions | None) -> int | None:
    """Explicit ``QMDOptions.history_depth`` beats ``$REPRO_ASPC_DEPTH``;
    ``None`` means "leave the engine options alone"."""
    if qmd_options is not None and qmd_options.history_depth is not None:
        return int(qmd_options.history_depth)
    env = os.environ.get("REPRO_ASPC_DEPTH", "").strip()
    if env:
        return int(env)  # a malformed value should fail loudly
    return None


def _resolve_adaptive_buffer(qmd_options: QMDOptions | None) -> bool:
    """Explicit ``QMDOptions.adaptive_buffer`` beats the env flag."""
    if qmd_options is not None and qmd_options.adaptive_buffer is not None:
        return bool(qmd_options.adaptive_buffer)
    return os.environ.get("REPRO_ADAPTIVE_BUFFER", "").strip().lower() in (
        "1", "true", "yes", "on",
    )


@dataclass
class QMDFrame:
    """One recorded MD step."""

    step: int
    potential_energy: float
    kinetic_energy: float
    temperature: float
    scf_iterations: int
    positions: np.ndarray | None = None

    @property
    def total_energy(self) -> float:
        return self.potential_energy + self.kinetic_energy


class LDCEngine:
    """Force engine backed by :func:`repro.core.ldc.run_ldc`.

    ``instrumentation`` (optional) is threaded into every ``run_ldc`` call;
    the engine also records warm-start telemetry — whether each solve was
    seeded cold, from the previous step's density, or from the previous
    step's converged orbitals, the QMD tricks the paper's time-to-solution
    numbers depend on.

    ``use_workspace`` (default on) gives the engine a persistent
    :class:`~repro.core.workspace.LDCWorkspace`: the grid, decomposition,
    partition of unity, per-domain bases, and Ewald structure are built once
    per cell, and each step's domain solves warm-start from the ASPC
    prediction over each domain's history window
    (``LDCOptions.history_depth``; depth 1 = the previous step's converged
    ψ), and the density mixer keeps its secant pairs from one step's SCF
    to the next (the workspace's SCF memory).  A cell change between
    ``forces()`` calls resets the workspace — orbital windows and SCF
    memory with it — and the cached density (cold start, never a
    stale-shape crash).

    ``qmd_options`` (:class:`QMDOptions`) layers the MD-level
    accelerations on top: a history depth override
    (``$REPRO_ASPC_DEPTH``) and the Eq.-1 adaptive-buffer loop
    (``$REPRO_ADAPTIVE_BUFFER``) — a
    :class:`~repro.core.advisor.BufferController` that watches the live
    boundary-error telemetry each step and re-tunes ``options.buffer``
    (the workspace detects the option change and rebuilds; the global
    density cache survives, so the restart is density-warm).
    """

    def __init__(
        self, options=None, instrumentation=None, use_workspace: bool = True,
        sanitize=None, qmd_options: QMDOptions | None = None,
    ) -> None:
        from repro.core.ldc import LDCOptions
        from repro.core.workspace import LDCWorkspace

        self.options = options or LDCOptions()
        depth = _resolve_history_depth(qmd_options)
        if depth is not None and depth != self.options.history_depth:
            self.options = replace(self.options, history_depth=depth)
        self.controller: BufferController | None = None
        if _resolve_adaptive_buffer(qmd_options):
            from repro.core.advisor import BufferController

            ctl = qmd_options.controller if qmd_options is not None else None
            self.controller = (
                BufferController(ctl) if ctl is not None
                else BufferController()
            )
        self.instrumentation = instrumentation
        #: optional :class:`repro.sanitize.Sanitizers` bundle threaded into
        #: every solve (None defers to REPRO_SANITIZE)
        self.sanitize = sanitize
        self.workspace = LDCWorkspace() if use_workspace else None
        self._rho = None
        #: newest-first window of converged global densities; at
        #: ``history_depth >= 2`` each step's ``rho0`` is the ASPC
        #: extrapolation over it (fewer density-mixing passes), at depth 1
        #: it degrades to the last-state reuse ``self._rho`` already gives
        self._rho_hist: list[np.ndarray] = []
        self._cell = None
        #: the first (cold) step's eigensolver-iteration count — the
        #: reference the per-step ``qmd.eig_iters_saved`` series is
        #: measured against
        self._cold_eig_iters: int | None = None

    def forces(self, config: Configuration):
        from repro.core.ldc import run_ldc

        self._guard_cell(config)
        ins = self.instrumentation
        if ins is not None:
            if self.workspace is not None and self.workspace.has_orbitals:
                start = "orbital"
            elif self._rho is not None:
                start = "density"
            else:
                start = "cold"
            _record_warm_start(ins, "ldc", start)
        result = run_ldc(
            config, self.options, compute_forces=True,
            rho0=self._predict_rho(), instrumentation=ins,
            workspace=self.workspace, sanitize=self.sanitize,
        )
        self._rho = result.density
        self._push_rho(result.density)
        if ins is not None:
            self._record_solver_cost(ins, result)
        if self.controller is not None:
            self._adapt_buffer(ins, result)
        return result.forces, result.energy, result.iterations

    def _predict_rho(self):
        """The global-density seed for the next solve.

        Depth 1 (or a too-short window): the last converged density —
        PR 4's warm start, bit-for-bit.  Depth ≥ 2: the ASPC field
        extrapolation over the window (clipped nonnegative; the mixer
        renormalizes the electron count).
        """
        depth = self.options.history_depth
        if depth <= 1 or len(self._rho_hist) < 2:
            return self._rho
        from repro.md.extrapolate import extrapolate_fields

        return extrapolate_fields(
            self._rho_hist[:depth], nonnegative=True
        )

    def _push_rho(self, rho) -> None:
        depth = self.options.history_depth
        if depth <= 1:
            self._rho_hist.clear()
            return
        if self._rho_hist and self._rho_hist[0].shape != rho.shape:
            self._rho_hist.clear()  # grid changed (e.g. buffer re-tune)
        self._rho_hist.insert(0, rho)
        del self._rho_hist[depth:]

    def _record_solver_cost(self, ins, result) -> None:
        """Per-step predictor/cost series for the run ledger: eigensolver
        iterations, iterations saved vs. the cold first step, and the
        (b, l*) the step ran at."""
        from repro.core.complexity import optimal_core_length

        ins.series("qmd.eig_iterations", engine="ldc").append(
            result.eig_iterations
        )
        if self._cold_eig_iters is None:
            self._cold_eig_iters = int(result.eig_iterations)
        else:
            ins.series("qmd.eig_iters_saved", engine="ldc").append(
                self._cold_eig_iters - int(result.eig_iterations)
            )
        nu = (
            self.controller.options.nu
            if self.controller is not None
            else 2.0
        )
        ins.series("ldc.buffer_b").append(self.options.buffer)
        ins.series("ldc.core_l").append(
            optimal_core_length(self.options.buffer, nu)
        )

    def _adapt_buffer(self, ins, result) -> None:
        """One Eq.-1 controller step on the live boundary-error telemetry.

        A changed decision re-binds ``self.options`` with the new buffer;
        the workspace notices the option-signature change on the next
        ``prepare`` and rebuilds (the density cache stays valid — the
        global grid does not depend on the buffer)."""
        if not result.boundary_errors:
            return
        assert self.controller is not None
        self.controller.observe(
            self.options.buffer, result.boundary_errors[-1]
        )
        decision = self.controller.propose(
            self.options.buffer, spacings=result.grid.spacing
        )
        if not decision.changed:
            return
        if ins is not None:
            ins.counter("ldc.buffer_adjustments").inc()
            ins.log.info(
                "adaptive buffer",
                extra={"engine": "ldc", "reason": decision.reason,
                       "buffer": decision.buffer,
                       "core_length": decision.core_length},
            )
        self.options = replace(self.options, buffer=decision.buffer)

    def _guard_cell(self, config: Configuration) -> None:
        cell = np.asarray(config.cell, dtype=float).reshape(3)
        if self._cell is not None and not np.array_equal(self._cell, cell):
            self._rho = None  # previous density lives on a stale grid
            self._rho_hist.clear()
            if self.workspace is not None:
                # structures, orbital windows and the SCF memory all
                # describe the old cell
                self.workspace.reset()
        self._cell = cell.copy()


class SCFEngine:
    """Force engine backed by the conventional O(N³) SCF.

    Warm-starts each step from the previous step's density *and* converged
    orbitals (``use_orbital_warm_start=False`` disables the latter); with
    ``qmd_options.history_depth >= 2`` (or ``$REPRO_ASPC_DEPTH``) it keeps
    a bounded :class:`~repro.md.extrapolate.DomainHistory` of converged
    (ψ, ρ) and seeds each solve from the ASPC prediction instead.  A cell
    change between ``forces()`` calls drops every cache, and the previous
    cell is also handed to ``run_scf(warm_cell=)`` so the solver applies
    the same deterministic fallback for any caller.
    """

    def __init__(
        self, options=None, instrumentation=None,
        use_orbital_warm_start: bool = True, sanitize=None,
        qmd_options: QMDOptions | None = None,
    ) -> None:
        from repro.dft.scf import SCFOptions

        self.options = options or SCFOptions()
        self.instrumentation = instrumentation
        #: optional :class:`repro.sanitize.Sanitizers` bundle threaded into
        #: every solve (None defers to REPRO_SANITIZE)
        self.sanitize = sanitize
        self.use_orbital_warm_start = use_orbital_warm_start
        self.history_depth = _resolve_history_depth(qmd_options) or 1
        #: ASPC window of converged (ψ, ρ) — only consulted at depth >= 2
        self._history = DomainHistory(depth=self.history_depth)
        self._rho = None
        self._psi = None
        self._cell = None
        self._cold_eig_iters: int | None = None

    def forces(self, config: Configuration):
        from repro.dft.forces import forces_from_scf
        from repro.dft.scf import run_scf

        prev_cell = self._cell
        self._guard_cell(config)
        ins = self.instrumentation
        if ins is not None:
            if self._psi is not None:
                start = "orbital"
            elif self._rho is not None:
                start = "density"
            else:
                start = "cold"
            _record_warm_start(ins, "pw", start)
        psi0, rho0 = self._psi, self._rho
        if self.history_depth > 1 and len(self._history):
            predicted = self._history.predict(
                self._history.key, depth=self.history_depth
            )
            if predicted is not None:
                psi0 = predicted[0]
                if predicted[2] is not None:
                    rho0 = predicted[2]
        result = run_scf(
            config, self.options, rho0=rho0, instrumentation=ins,
            psi0=psi0, sanitize=self.sanitize, warm_cell=prev_cell,
        )
        self._rho = result.density
        if self.use_orbital_warm_start:
            self._psi = result.orbitals
            if self.history_depth > 1:
                if ins is not None and (
                    self._history.last_prediction is not None
                ):
                    res = subspace_residual(
                        self._history.last_prediction, result.orbitals
                    )
                    if np.isfinite(res):
                        ins.series("scf.predictor_residual").append(res)
                self._history.last_prediction = None
                self._history.push(
                    (result.orbitals.shape,), result.orbitals, None,
                    result.density,
                )
        if ins is not None:
            ins.series("qmd.eig_iterations", engine="pw").append(
                result.eig_iterations
            )
            if self._cold_eig_iters is None:
                self._cold_eig_iters = int(result.eig_iterations)
            else:
                ins.series("qmd.eig_iters_saved", engine="pw").append(
                    self._cold_eig_iters - int(result.eig_iterations)
                )
        f = forces_from_scf(config, result)
        return f, result.energy, result.iterations

    def _guard_cell(self, config: Configuration) -> None:
        cell = np.asarray(config.cell, dtype=float).reshape(3)
        if self._cell is not None and not np.array_equal(self._cell, cell):
            self._rho = None  # previous density lives on a stale grid
            self._psi = None  # previous orbitals live on a stale basis
            self._history.clear()  # ASPC window spans the old cell
        self._cell = cell.copy()


def _record_warm_start(ins, engine: str, start: str) -> None:
    """Count electronic solves by warm-start tier.

    ``start`` is ``"cold"`` (random ψ, model density), ``"density"``
    (previous step's ρ only), or ``"orbital"`` (previous step's converged
    ψ — implies the density warm start too).
    """
    ins.counter("qmd.solves", engine=engine, start=start).inc()


class QMDDriver:
    """Couples an engine, the integrator, and an optional thermostat."""

    def __init__(
        self,
        engine,
        timestep: float,
        thermostat=None,
        record_positions: bool = False,
        instrumentation=None,
    ) -> None:
        self.engine = engine
        self.thermostat = thermostat
        self.record_positions = record_positions
        #: optional Instrumentation facade; records a ``qmd.step`` span and
        #: per-step SCF-iteration/temperature/energy series.  If the engine
        #: has no instrumentation of its own, the driver's is shared so the
        #: whole stack writes one timeline.
        self.instrumentation = instrumentation
        if (
            instrumentation is not None
            and getattr(engine, "instrumentation", None) is None
            and hasattr(engine, "instrumentation")
        ):
            engine.instrumentation = instrumentation
        self._scf_iters_last = 0
        self.timestep = timestep
        self.integrator = VelocityVerlet(self._forces_wrapper, timestep)
        self.frames: list[QMDFrame] = []

    def _forces_wrapper(self, config: Configuration):
        f, e, iters = self.engine.forces(config)
        self._scf_iters_last += iters
        return f, e

    def run(self, config: Configuration, nsteps: int) -> list[QMDFrame]:
        """Advance ``nsteps``; returns (and accumulates) the recorded frames."""
        ins = self.instrumentation
        if ins is not None and ins.recorder is not None:
            ins.recorder.record_invocation(
                "qmd.run",
                getattr(self.engine, "options", None),
                engine=type(self.engine).__name__,
                timestep=self.timestep,
                nsteps=nsteps,
                natoms=config.natoms,
            )
            try:
                return self._run(config, nsteps, ins)
            except Exception as exc:
                ins.recorder.record_failure(exc)
                raise
        return self._run(config, nsteps, ins)

    def _run(self, config: Configuration, nsteps: int, ins) -> list[QMDFrame]:
        for step in range(nsteps):
            self._scf_iters_last = 0
            if ins is None:
                self._advance(config)
                self.frames.append(self._frame(config))
                continue
            # the per-step telemetry (series, health verdicts) fires while
            # the qmd.step span is still open, so a health FAIL dumps with
            # the failing step on the flight recorder's open-span stack
            with ins.span(
                "qmd.step", category="qmd", step=len(self.frames)
            ) as span:
                self._advance(config)
                span.attrs["scf_iterations"] = self._scf_iters_last
                frame = self._frame(config)
                self.frames.append(frame)
                ins.series("qmd.scf_iterations").append(frame.scf_iterations)
                ins.series("qmd.temperature").append(frame.temperature)
                ins.series("qmd.total_energy").append(frame.total_energy)
                ins.counter("qmd.steps").inc()
                ins.log.debug(
                    "qmd step",
                    extra={"step": frame.step,
                           "scf_iterations": frame.scf_iterations,
                           "temperature": frame.temperature,
                           "total_energy": frame.total_energy},
                )
                if ins.health is not None:
                    ins.health.observe(
                        "qmd.step",
                        step=frame.step,
                        total_energy=frame.total_energy,
                        elapsed_fs=frame.step * self.timestep * ATU_TO_FS,
                        natoms=config.natoms,
                        temperature=frame.temperature,
                        nve=self.thermostat is None,
                        target_kelvin=getattr(self.thermostat, "target", None),
                    )
        return self.frames

    def _frame(self, config: Configuration) -> QMDFrame:
        return QMDFrame(
            step=len(self.frames),
            potential_energy=self.integrator.potential_energy,
            kinetic_energy=kinetic_energy(config),
            temperature=temperature(config),
            scf_iterations=self._scf_iters_last,
            positions=config.positions.copy()
            if self.record_positions
            else None,
        )

    def _advance(self, config: Configuration) -> None:
        self.integrator.step(config)
        if self.thermostat is not None:
            self.thermostat.apply(config)

    def total_scf_iterations(self) -> int:
        """Total SCF iterations over the trajectory — the paper's 129,208 for
        the 21,140-step production run."""
        return int(sum(f.scf_iterations for f in self.frames))

    def energy_drift(self) -> float:
        """|E_total(last) - E_total(first)| per atom-step (NVE diagnostic)."""
        if len(self.frames) < 2:
            return 0.0
        return abs(self.frames[-1].total_energy - self.frames[0].total_energy) / len(
            self.frames
        )
