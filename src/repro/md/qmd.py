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

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.constants import ATU_TO_FS
from repro.md.extrapolate import DomainHistory, extrapolate_fields, subspace_residual
from repro.md.integrator import VelocityVerlet, kinetic_energy, temperature
from repro.observe import Observer, observer
from repro.systems.configuration import Configuration

if TYPE_CHECKING:
    from repro.core.advisor import BufferController, BufferControllerOptions


@dataclass
class QMDOptions:
    """MD-level solver-acceleration knobs, engine-agnostic.

    Both engines accept one of these via ``qmd_options=``, the one source
    of these settings.
    """

    #: ASPC history depth K: 1 = last-state warm start, K >= 2 =
    #: time-reversible K-point extrapolation of ψ/ρ
    #: (:mod:`repro.md.extrapolate`).  ``None`` keeps the engine's own
    #: value (``LDCOptions.history_depth``; 1 for :class:`SCFEngine`).
    history_depth: int | None = None
    #: run the Eq.-1 :class:`~repro.core.advisor.BufferController` loop
    #: (LDC engine only)
    adaptive_buffer: bool = False
    #: thresholds for the controller; ``None`` = its defaults
    controller: BufferControllerOptions | None = None

    def __post_init__(self) -> None:
        # validated here, once, for both engines
        depth = self.history_depth
        if depth is None:
            return
        try:
            valid = int(depth) == depth >= 1
        except (TypeError, ValueError, OverflowError):
            valid = False
        if not valid:
            raise ValueError(
                f"QMDOptions.history_depth must be an integer >= 1, "
                f"got {depth!r}"
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
    #: whether every SCF solve of the step met its tolerance (``None`` from
    #: an engine that does not say)
    converged: bool | None = None

    @property
    def total_energy(self) -> float:
        return self.potential_energy + self.kinetic_energy


class _WarmStartEngine:
    """What both force engines keep between ``forces()`` calls: the cell
    their caches belong to, the density window the next solve's ``rho0`` is
    predicted from, and the per-solve cost telemetry.  ``forces`` itself is
    defined on each engine.

    One rule for what the window receives: ``result.input_density``, the
    density the returned orbitals were solved at — the final pass's
    *input*, on a continuing solve the mixer's last quasi-Newton iterate —
    never the map's raw output ``result.density``.  (ρ_in, ψ) is the
    mutually consistent pair, and the output's error is the input's
    multiplied by the SCF response, largest in the long-wavelength
    components the ASPC coefficients (up to 2.5) then amplify
    (DESIGN.md §17, "What the windows store")."""

    #: the ``engine=`` label of this engine's telemetry
    label: str

    def __init__(self, instrumentation: Observer | None) -> None:
        #: the observability handle as given: ``None`` lets a
        #: :class:`QMDDriver` share its own; ``forces()`` resolves it
        self.instrumentation = instrumentation
        self._cell = None
        #: newest-first window of the global densities the returned states
        #: were solved at (``result.input_density``): the last one always,
        #: the ASPC depth K of them at K >= 2
        self._rho_hist: list[np.ndarray] = []
        #: the first (cold) step's eigensolver-iteration count — the
        #: reference the per-step ``qmd.eig_iters_saved`` series is
        #: measured against
        self._cold_eig_iters: int | None = None
        #: whether the last solve met its tolerance (``None`` before any):
        #: the ``forces()`` tuple has no slot for it
        self.last_converged: bool | None = None

    def _guard_cell(self, config: Configuration) -> None:
        """A cell change between ``forces()`` calls drops every cache:
        cold start, never a stale-shape crash."""
        cell = np.asarray(config.cell, dtype=float).reshape(3)
        if self._cell is not None and not np.array_equal(self._cell, cell):
            self._drop_caches()
        self._cell = cell.copy()

    def _drop_caches(self) -> None:
        self._rho_hist.clear()  # previous densities live on a stale grid

    def _predict_rho(self, depth: int):
        """The density seed for the next solve: nothing (cold), the last
        solve's input density itself (depth 1, or a window still filling;
        the SCF loop copies it), or the ASPC field extrapolation over the
        window (clipped nonnegative; the SCF loop renormalizes the
        electron count)."""
        window = self._rho_hist[:depth]
        if len(window) < 2:
            return window[0] if window else None
        return extrapolate_fields(window, nonnegative=True)

    def _push_rho(self, rho, depth: int) -> None:
        """Put a solve's ``input_density`` at the head of the window."""
        if self._rho_hist and self._rho_hist[0].shape != rho.shape:
            self._rho_hist.clear()  # grid changed (e.g. a cutoff change)
        self._rho_hist.insert(0, rho)
        del self._rho_hist[max(depth, 1):]

    def _count_solve(self, ins: Observer, orbital_warm: bool) -> None:
        """Count the solve about to run by warm-start tier: ``"orbital"``
        (earlier steps' converged ψ, and so their ρ too), ``"density"``
        (previous ρ only) or ``"cold"`` (random ψ, model density)."""
        start = "orbital" if orbital_warm else "density" if self._rho_hist else "cold"
        ins.counter("qmd.solves", engine=self.label, start=start).inc()

    def _record_convergence(self, ins: Observer, result) -> None:
        """Keep ``result.converged`` where a driver can read it, and make
        a solve that ran out of passes visible: a counter and one log
        record.  The forces are returned all the same — what to do about
        them is the caller's policy."""
        self.last_converged = bool(result.converged)
        if not self.last_converged:
            ins.counter("qmd.unconverged_solves", engine=self.label).inc()
            ins.log.warning(
                "unconverged solve",
                extra={"engine": self.label, "iterations": result.iterations,
                       "final_residual": result.final_residual},
            )

    def _record_eig_cost(self, ins: Observer, result) -> None:
        """Per-step eigensolver iterations, and how many the warm starts
        saved against the cold first step."""
        ins.series("qmd.eig_iterations", engine=self.label).append(
            result.eig_iterations
        )
        if self._cold_eig_iters is None:
            self._cold_eig_iters = int(result.eig_iterations)
        else:
            ins.series("qmd.eig_iters_saved", engine=self.label).append(
                self._cold_eig_iters - int(result.eig_iterations)
            )


class LDCEngine(_WarmStartEngine):
    """Force engine backed by :func:`repro.core.ldc.run_ldc`.

    ``instrumentation`` is the observability handle every ``run_ldc`` call
    reports to (``None`` is resolved by :func:`repro.observe.observer`); the
    engine adds the warm-start telemetry — whether each solve was seeded
    cold, from the previous step's density, or from the previous step's
    converged orbitals, the QMD tricks the paper's time-to-solution numbers
    depend on.

    The engine owns a persistent :class:`~repro.core.workspace.LDCWorkspace`:
    the grid, decomposition,
    partition of unity, per-domain bases, and Ewald structure are built once
    per cell, and each step's domain solves warm-start from the ASPC
    prediction over each domain's history window
    (``LDCOptions.history_depth``; depth 1 = the previous step's converged
    ψ), and the density mixer keeps its secant pairs from one step's SCF
    to the next (the workspace's SCF memory).  The workspace owns the
    per-domain (ψ, v_bc, ρ_α) windows and the mixer; the engine owns the
    global-density window each solve's ``rho0`` is predicted from, and
    pushes ``LDCResult.input_density`` onto it — the density the step's ψ
    were solved at, not the final pass's output (the rule of
    :class:`_WarmStartEngine`).  A cell
    change between ``forces()`` calls resets the workspace — orbital
    windows and SCF memory with it — and the density window (cold start,
    never a stale-shape crash).

    ``qmd_options`` (:class:`QMDOptions`) layers the MD-level
    accelerations on top: a history depth override and the Eq.-1
    adaptive-buffer loop — a
    :class:`~repro.core.advisor.BufferController` that watches the live
    boundary-error telemetry each step and re-tunes ``options.buffer``
    (the workspace detects the option change and rebuilds; the global
    density window survives, so the restart is density-warm).
    """

    label = "ldc"

    def __init__(
        self, options=None, instrumentation: Observer | None = None,
        qmd_options: QMDOptions | None = None,
    ) -> None:
        from repro.core.ldc import LDCOptions
        from repro.core.workspace import LDCWorkspace

        super().__init__(instrumentation)
        self.options = options or LDCOptions()
        qmd = qmd_options or QMDOptions()
        depth = qmd.history_depth
        if depth is not None and depth != self.options.history_depth:
            self.options = replace(self.options, history_depth=int(depth))
        self.controller: BufferController | None = None
        if qmd.adaptive_buffer:
            from repro.core.advisor import BufferController

            self.controller = (
                BufferController(qmd.controller) if qmd.controller is not None
                else BufferController()
            )
        self.workspace = LDCWorkspace()

    def forces(self, config: Configuration):
        from repro.core.ldc import run_ldc

        self._guard_cell(config)
        ins = observer(self.instrumentation)
        self._count_solve(ins, self.workspace.has_orbitals)
        result = run_ldc(
            config, self.options, compute_forces=True,
            rho0=self._predict_rho(self.options.history_depth),
            instrumentation=ins, workspace=self.workspace,
        )
        self._push_rho(result.input_density, self.options.history_depth)
        self._record_convergence(ins, result)
        self._record_solver_cost(ins, result)
        if self.controller is not None:
            self._adapt_buffer(ins, result)
        return result.forces, result.energy, result.iterations

    def _record_solver_cost(self, ins: Observer, result) -> None:
        """Per-step predictor/cost series for the run ledger: eigensolver
        iterations and the (b, l*) the step ran at."""
        from repro.core.advisor import BufferControllerOptions
        from repro.core.complexity import optimal_core_length

        self._record_eig_cost(ins, result)
        nu = (
            self.controller.options.nu
            if self.controller is not None
            else BufferControllerOptions.nu  # the dataclass default
        )
        ins.series("ldc.buffer_b").append(self.options.buffer)
        ins.series("ldc.core_l").append(
            optimal_core_length(self.options.buffer, nu)
        )

    def _adapt_buffer(self, ins: Observer, result) -> None:
        """One Eq.-1 controller step on the live boundary-error telemetry.

        A changed decision re-binds ``self.options`` with the new buffer;
        the workspace notices the option-signature change on the next
        ``prepare`` and rebuilds (the density window stays valid — the
        global grid does not depend on the buffer)."""
        if not result.boundary_errors:
            return
        assert self.controller is not None
        self.controller.observe(
            self.options.buffer, result.boundary_errors[-1]
        )
        decision = self.controller.propose(
            self.options.buffer, spacings=result.grid.spacing,
            max_points=result.decomposition.max_buffer_points,
        )
        if not decision.changed:
            ins.counter("ldc.buffer_holds", reason=decision.reason).inc()
            return
        ins.counter("ldc.buffer_adjustments").inc()
        ins.log.info(
            "adaptive buffer",
            extra={"engine": "ldc", "reason": decision.reason,
                   "buffer": decision.buffer,
                   "core_length": decision.core_length},
        )
        self.options = replace(self.options, buffer=decision.buffer)

    def _drop_caches(self) -> None:
        super()._drop_caches()
        # structures, orbital windows and the SCF memory all describe the
        # old cell
        self.workspace.reset()


class SCFEngine(_WarmStartEngine):
    """Force engine backed by the conventional O(N³) SCF.

    Warm-starts each step from the previous step's density *and* converged
    orbitals — the density being ``SCFResult.input_density``, the one those
    orbitals were solved at (the rule of :class:`_WarmStartEngine`; a
    single point's final pass runs at the converged output, so here it
    differs from ``SCFResult.density`` only by that pass's own residual,
    below ``tol``).  Both come from the ASPC predictions of
    ``qmd_options.history_depth`` (default 1): ρ over the density window
    every engine keeps, ψ over a bounded
    :class:`~repro.md.extrapolate.DomainHistory` of converged blocks that
    this engine owns — at depth 1 a copy of the last block, the plain
    last-state warm start.  Each solve builds a fresh density mixer (no SCF
    memory across steps).  A cell change between ``forces()`` calls drops
    every cache, and the
    previous cell is also handed to ``run_scf(warm_cell=)`` so the solver
    applies the same deterministic fallback for any caller.
    ``instrumentation`` is the observability handle, as in :class:`LDCEngine`.
    """

    label = "pw"

    def __init__(
        self, options=None, instrumentation: Observer | None = None,
        qmd_options: QMDOptions | None = None,
    ) -> None:
        from repro.dft.scf import SCFOptions

        super().__init__(instrumentation)
        self.options = options or SCFOptions()
        depth = (qmd_options or QMDOptions()).history_depth
        self.history_depth = 1 if depth is None else int(depth)
        #: ASPC window of converged ψ, the one place they are kept
        self._history = DomainHistory(depth=self.history_depth)

    def forces(self, config: Configuration):
        from repro.dft.forces import forces_from_scf
        from repro.dft.scf import run_scf

        prev_cell = self._cell
        self._guard_cell(config)
        ins = observer(self.instrumentation)
        self._count_solve(ins, len(self._history) > 0)
        predicted = self._history.predict(self._history.key)
        result = run_scf(
            config, self.options, rho0=self._predict_rho(self.history_depth),
            instrumentation=ins,
            psi0=predicted[0] if predicted is not None else None,
            warm_cell=prev_cell,
        )
        self._push_rho(result.input_density, self.history_depth)
        self._record_convergence(ins, result)
        psi = result.orbitals
        self._record_eig_cost(ins, result)
        if self._history.last_prediction is not None:
            # settle the residual of the guess this step started from
            res = subspace_residual(self._history.last_prediction, psi)
            if np.isfinite(res):
                ins.series("scf.predictor_residual").append(res)
            self._history.last_prediction = None
        self._history.push((psi.shape,), psi, None, None)
        f = forces_from_scf(config, result)
        return f, result.energy, result.iterations

    def _drop_caches(self) -> None:
        super()._drop_caches()
        self._history.clear()  # ψ live on the old cell's basis


class QMDDriver:
    """Couples an engine, the integrator, and an optional thermostat."""

    def __init__(
        self,
        engine,
        timestep: float,
        thermostat=None,
        record_positions: bool = False,
        instrumentation: Observer | None = None,
    ) -> None:
        self.engine = engine
        self.thermostat = thermostat
        self.record_positions = record_positions
        #: the observability handle as given (``run`` resolves ``None``):
        #: a ``qmd.step`` span and per-step SCF-iteration/temperature/energy
        #: series.  If the engine has no instrumentation of its own, the
        #: driver's is shared so the whole stack writes one timeline.
        self.instrumentation = instrumentation
        if (
            instrumentation is not None
            and getattr(engine, "instrumentation", None) is None
            and hasattr(engine, "instrumentation")
        ):
            engine.instrumentation = instrumentation
        self._scf_iters_last = 0
        self._converged_last: bool | None = None
        self.timestep = timestep
        self.integrator = VelocityVerlet(self._forces_wrapper, timestep)
        self.frames: list[QMDFrame] = []

    def _forces_wrapper(self, config: Configuration):
        f, e, iters = self.engine.forces(config)
        self._scf_iters_last += iters
        converged = getattr(self.engine, "last_converged", None)
        if converged is not None:
            self._converged_last = (
                converged and self._converged_last is not False
            )
        return f, e

    def run(self, config: Configuration, nsteps: int) -> list[QMDFrame]:
        """Advance ``nsteps``; returns (and accumulates) the recorded frames."""
        ins = observer(self.instrumentation)
        with ins.invocation(
            "qmd.run", getattr(self.engine, "options", None),
            engine=type(self.engine).__name__, timestep=self.timestep,
            nsteps=nsteps, natoms=config.natoms,
        ):
            for _ in range(nsteps):
                self._step(config, ins)
        return self.frames

    def _step(self, config: Configuration, ins: Observer) -> None:
        self._scf_iters_last = 0
        self._converged_last = None
        # the per-step telemetry (series, health verdicts) fires while
        # the qmd.step span is still open, so a health FAIL dumps with
        # the failing step on the flight recorder's open-span stack
        with ins.span("qmd.step", category="qmd", step=len(self.frames)) as span:
            self.integrator.step(config)
            if self.thermostat is not None:
                self.thermostat.apply(config)
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
            ins.observe(
                "qmd.step",
                step=frame.step,
                total_energy=frame.total_energy,
                elapsed_fs=frame.step * self.timestep * ATU_TO_FS,
                natoms=config.natoms,
                temperature=frame.temperature,
                nve=self.thermostat is None,
                target_kelvin=getattr(self.thermostat, "target", None),
            )

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
            converged=self._converged_last,
        )

    def total_scf_iterations(self) -> int:
        """Total SCF iterations over the trajectory — the paper's 129,208 for
        the 21,140-step production run."""
        return int(sum(f.scf_iterations for f in self.frames))

    def energy_drift(self) -> float:
        """|E_total(last) - E_total(first)| per recorded frame, in Hartree
        for the whole cell — not per atom (NVE diagnostic)."""
        if len(self.frames) < 2:
            return 0.0
        return abs(self.frames[-1].total_energy - self.frames[0].total_energy) / len(
            self.frames
        )
