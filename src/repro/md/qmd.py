"""The QMD driver: MD with quantum-mechanical (or surrogate) forces.

This is the production loop of Sec. 6: at every MD step the electronic
structure is re-solved, warm-started from what the earlier steps carried,
and Hellmann–Feynman forces drive velocity Verlet (NVE).  Carried state
has one mechanism and one owner: every ASPC window is a
:class:`~repro.md.extrapolate.DomainHistory` keyed by what its snapshots
depend on, and all of them — the per-domain windows and the global one of
the density the returned state was solved at — live in the engine's
:class:`~repro.core.workspace.LDCWorkspace`.  There is one quantum engine,
and any object with ``forces(config) -> (forces, energy, scf_iterations)``
plugs in:

* :class:`LDCEngine` — the O(N) LDC-DFT solver (the paper's engine);
* :class:`SCFEngine` — the same engine on the whole-cell layout, the
  conventional O(N³) solver (the verification baseline of Sec. 5.5).

The driver records the per-step SCF iteration counts, so the paper's
time-to-solution accounting (atoms × SCF iterations / second) can be
reproduced on real runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.md.extrapolate import check_depth
from repro.md.integrator import VelocityVerlet, kinetic_energy, temperature
from repro.observe import Observer, observer
from repro.systems.configuration import Configuration

if TYPE_CHECKING:
    from repro.core.ldc import LDCResult


@dataclass
class QMDOptions:
    """MD-level solver-acceleration knobs.

    The engine accepts one of these via ``qmd_options=``, the one source
    of these settings.
    """

    #: ASPC history depth K of every window the workspace keeps: 1 =
    #: last-state warm start, K >= 2 = time-reversible K-point
    #: extrapolation of ψ/ρ (:mod:`repro.md.extrapolate`)
    history_depth: int = 1
    #: ``False`` only: the buffer is chosen once, when the decomposition
    #: is built, and no loop re-tunes it during a trajectory (ROADMAP 20).
    #: Kept solely for the frozen ``benchmarks/e2e/workloads.py`` that
    #: passes ``adaptive_buffer=False``; ROADMAP 3(i-b) deletes that
    #: keyword and then this field.
    adaptive_buffer: bool = False

    def __post_init__(self) -> None:
        # validated here, once
        check_depth(self.history_depth, "QMDOptions.history_depth")
        if self.adaptive_buffer is not False:
            raise ValueError(
                "adaptive_buffer must be False: there is no runtime buffer "
                "controller (ROADMAP 20); the buffer is LDCOptions.buffer, "
                "fixed when the decomposition is built"
            )


@dataclass
class QMDFrame:
    """One recorded MD step."""

    step: int
    potential_energy: float
    kinetic_energy: float
    temperature: float
    scf_iterations: int
    #: whether every SCF solve of the step met its tolerance (``None`` from
    #: an engine that does not say)
    converged: bool | None = None

    @property
    def total_energy(self) -> float:
        return self.potential_energy + self.kinetic_energy


class LDCEngine:
    """Force engine backed by :func:`repro.core.ldc.run_ldc`.

    ``instrumentation`` is the observability handle every ``run_ldc`` call
    reports to (``None`` lets a :class:`QMDDriver` share its own;
    ``forces()`` resolves it); the engine adds the warm-start telemetry —
    whether each solve was seeded cold, from the previous step's density,
    or from the previous step's converged orbitals, the QMD tricks the
    paper's time-to-solution numbers depend on.

    The engine owns a persistent :class:`~repro.core.workspace.LDCWorkspace`:
    the grid, decomposition, partition of unity, per-domain bases, and
    Ewald structure are built once per cell, each step's domain solves
    warm-start from the ASPC prediction over each domain's window (depth 1
    = the previous step's converged ψ), each solve's starting density from
    the prediction over the workspace's density window, and the density
    mixer keeps its secant pairs from one step's SCF to the next.  A cell
    or option change resets the workspace, a cold start.

    ``qmd_options`` (:class:`QMDOptions`) sets the ASPC depth of every
    window.  The buffer is ``options.buffer`` for the whole trajectory.
    """

    def __init__(
        self, options: Any = None, instrumentation: Observer | None = None,
        qmd_options: QMDOptions | None = None,
    ) -> None:
        from repro.core.ldc import LDCOptions
        from repro.core.workspace import LDCWorkspace

        qmd = qmd_options or QMDOptions()
        self.options = options or LDCOptions()
        self.instrumentation = instrumentation
        self.workspace = LDCWorkspace(history_depth=qmd.history_depth)
        #: the first (cold) step's eigensolver-iteration count — the
        #: reference the per-step ``qmd.eig_iters_saved`` series is
        #: measured against
        self._cold_eig_iters: int | None = None
        #: whether the last solve met its tolerance (``None`` before any):
        #: the ``forces()`` tuple has no slot for it
        self.last_converged: bool | None = None

    def forces(self, config: Configuration) -> tuple[np.ndarray, float, int]:
        from repro.core.ldc import run_ldc

        ins = observer(self.instrumentation)
        result = run_ldc(
            config, self.options, compute_forces=True,
            instrumentation=ins, workspace=self.workspace,
        )
        self._record_solve(ins, result)
        assert result.forces is not None
        return result.forces, result.energy, result.iterations

    def _record_solve(self, ins: Observer, result: LDCResult) -> None:
        """The solve's telemetry: its warm-start tier — ``"orbital"``
        (earlier steps' converged ψ, and so their ρ too), ``"density"``
        (previous ρ only) or ``"cold"`` (random ψ, model density); whether
        it converged (a solve that ran out of passes still returns its
        forces — what to do about them is the caller's policy — but is
        counted); its eigensolver iterations, and how many the warm starts
        saved against the cold first step."""
        start = (
            "orbital" if self.workspace.warm_domains > 0
            else "density" if self.workspace.warm_density else "cold"
        )
        ins.counter("qmd.solves", engine="ldc", start=start).inc()
        self.last_converged = bool(result.converged)
        if not self.last_converged:
            ins.counter("qmd.unconverged_solves", engine="ldc").inc()
        ins.series("qmd.eig_iterations", engine="ldc").append(
            result.eig_iterations
        )
        if self._cold_eig_iters is None:
            self._cold_eig_iters = int(result.eig_iterations)
        else:
            ins.series("qmd.eig_iters_saved", engine="ldc").append(
                self._cold_eig_iters - int(result.eig_iterations)
            )


class SCFEngine(LDCEngine):
    """Force engine of the conventional O(N³) solve (the verification
    baseline of Sec. 5.5): an :class:`LDCEngine` on the whole-cell layout
    (:func:`~repro.dft.scf.SCFOptions`; options of another layout are moved
    onto it), so the workspace's ASPC windows, carried mixer and final-pass
    rule serve it as they serve every LDC trajectory."""

    def __init__(
        self, options: Any = None, instrumentation: Observer | None = None,
        qmd_options: QMDOptions | None = None,
    ) -> None:
        from repro.dft.scf import WHOLE_CELL, SCFOptions

        super().__init__(
            SCFOptions() if options is None else replace(options, **WHOLE_CELL),
            instrumentation, qmd_options,
        )

    #: its own entry, so a trace tells the two engines apart
    forces = LDCEngine.forces


class QMDDriver:
    """Couples an engine and the velocity-Verlet integrator (NVE)."""

    def __init__(
        self,
        engine: Any,
        timestep: float,
        instrumentation: Observer | None = None,
    ) -> None:
        self.engine = engine
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

    def _forces_wrapper(
        self, config: Configuration
    ) -> tuple[np.ndarray, float]:
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
        # the per-step telemetry fires while the qmd.step span is still
        # open, so a failure dumps with the step on the flight recorder's
        # open-span stack
        with ins.span("qmd.step", category="qmd", step=len(self.frames)) as span:
            self.integrator.step(config)
            span.attrs["scf_iterations"] = self._scf_iters_last
            frame = self._frame(config)
            self.frames.append(frame)
            ins.series("qmd.scf_iterations").append(frame.scf_iterations)
            ins.series("qmd.temperature").append(frame.temperature)
            ins.series("qmd.total_energy").append(frame.total_energy)
            ins.counter("qmd.steps").inc()

    def _frame(self, config: Configuration) -> QMDFrame:
        return QMDFrame(
            step=len(self.frames),
            potential_energy=self.integrator.potential_energy,
            kinetic_energy=kinetic_energy(config),
            temperature=temperature(config),
            scf_iterations=self._scf_iters_last,
            converged=self._converged_last,
        )
