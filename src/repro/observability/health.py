"""Physics health monitors: the watchdog layer over the telemetry stack.

The paper validates LDC-DFT by watching *physical invariants* — total-energy
conservation to ~10⁻⁵ a.u./fs over 10⁴ QMD steps (Sec. 5.5), the
partition-of-unity identity Σ_α p_α(r) = 1 behind Eq. (b) of Fig. 2, and
charge conservation ∫ρ dr = N_e.  This module turns those from offline
analyses into *online* checks that run while a simulation is in flight:

* :class:`Invariant` — one pluggable check.  Each invariant subscribes to a
  named *channel* (``"qmd.step"``, ``"scf.residual"``, ...) and receives the
  samples drivers publish on it; it answers with a :class:`HealthRecord`
  whose status is OK / WARN / FAIL against its configured thresholds.
* :class:`HealthMonitor` — the dispatcher.  Drivers publish via
  :meth:`HealthMonitor.observe`; the monitor fans samples out to the
  invariants on that channel, stores every non-OK (and optionally OK)
  record, forwards WARN/FAIL to the configured *alert sinks*, and can merge
  the resulting health timeline into the Chrome trace as instant events.
* Alert sinks — :class:`LogAlertSink` (stdlib logging),
  :class:`CollectingAlertSink` (in-memory list, for tests/dashboards) and
  :class:`RaiseOnFailSink` (turn a FAIL into a :class:`HealthError`, the
  "stop the production run before it wastes the allocation" mode).

Thresholds live in :class:`HealthThresholds` — one config object, not
numeric literals sprinkled at call sites (enforced by analysis rule RP006).

The monitor rides on the :class:`~repro.observability.Instrumentation`
handle (``Instrumentation(health=monitor)``); drivers publish through
``ins.observe(channel, **sample)``, which reaches this module only when a
monitor is attached — un-instrumented, or instrumented without one, no
health code executes at all (pinned by ``tests/test_health.py``).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Protocol

from repro.util.timer import WallClock

#: status levels, ordered by severity
STATUS_OK = "ok"
STATUS_WARN = "warn"
STATUS_FAIL = "fail"

_SEVERITY = {STATUS_OK: 0, STATUS_WARN: 1, STATUS_FAIL: 2}

#: pid used for health instant events in merged Chrome traces (real spans
#: are pid 1, simulated ranks pid 2)
HEALTH_TRACE_PID = 3


class HealthError(RuntimeError):
    """Raised by :class:`RaiseOnFailSink` when an invariant FAILs."""

    def __init__(self, record: "HealthRecord") -> None:
        super().__init__(record.format())
        self.record = record


@dataclass(frozen=True)
class HealthRecord:
    """One invariant evaluation."""

    invariant: str
    status: str
    value: float
    threshold: float | None
    message: str
    time: float = 0.0
    context: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def format(self) -> str:
        thr = "" if self.threshold is None else f" (threshold {self.threshold:.3g})"
        return (
            f"[{self.status.upper()}] {self.invariant}: {self.message} "
            f"— value {self.value:.6g}{thr}"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "invariant": self.invariant,
            "status": self.status,
            "value": self.value,
            "threshold": self.threshold,
            "message": self.message,
            "time": self.time,
            "context": dict(self.context),
        }


@dataclass
class HealthThresholds:
    """All WARN/FAIL bands in one config object.

    Defaults are sized for the package's toy workloads (loose SCF
    tolerances, few-atom systems); production runs tighten them toward the
    paper's 10⁻⁵ a.u./fs figure by constructing a custom instance.
    """

    #: NVE total-energy drift, a.u. per fs per atom (paper Sec. 5.5).
    #: Sized for the package's toy engines: nominal trajectories sit at
    #: 1e-6 … 8e-4 (the LDC engine's loose warm-started solves dominate),
    #: while a 10x-too-large timestep lands around 4e-2 (measured in
    #: tests/test_health.py).  Production-grade runs tighten this toward
    #: the paper's 1e-5 a.u./fs via a custom :class:`HealthThresholds`.
    energy_drift_warn: float = 2e-3
    energy_drift_fail: float = 2e-2
    #: relative charge-conservation error |∫ρ − N_e| / N_e
    charge_warn: float = 1e-8
    charge_fail: float = 1e-4
    #: partition-of-unity residual max_r |Σ_α p_α(r) − 1|
    pou_warn: float = 1e-10
    pou_fail: float = 1e-6
    #: SCF stall: no new best residual within this many iterations
    scf_stall_window: int = 8
    #: SCF divergence: residual grows past ``factor ×`` the best seen
    scf_divergence_factor: float = 10.0
    #: thermostat window: fractional |T − T_target| / T_target
    temperature_warn: float = 0.5
    temperature_fail: float = 2.0
    #: steps to let the thermostat settle before the window is enforced
    temperature_settle_steps: int = 10
    #: measured-vs-modeled phase-time drift |t_meas − t_model| / t_model.
    #: The WARN band absorbs the LPT scheduler's residual imbalance on
    #: unequal domains; FAIL marks a genuinely skewed assignment (e.g. a
    #: whole group's work landing on one rank group).
    model_divergence_warn: float = 0.5
    model_divergence_fail: float = 1.0


class Invariant:
    """Base class: one named physics check on one sample channel.

    Subclasses set :attr:`name` and :attr:`channel` and implement
    :meth:`update`, returning a :class:`HealthRecord` (or ``None`` when the
    sample does not apply — e.g. energy drift during a thermostatted run).
    """

    name = "invariant"
    channel = ""

    def update(self, sample: dict[str, Any]) -> HealthRecord | None:
        raise NotImplementedError

    def reset(self) -> None:
        """Clear cross-sample state (called between independent runs)."""

    def _record(
        self,
        status: str,
        value: float,
        threshold: float | None,
        message: str,
        **context: Any,
    ) -> HealthRecord:
        return HealthRecord(
            invariant=self.name,
            status=status,
            value=float(value),
            threshold=threshold,
            message=message,
            context=context,
        )

    def _banded(
        self, value: float, warn: float, fail: float, message: str, **context: Any
    ) -> HealthRecord:
        """Standard two-threshold grading: value ≥ fail > warn."""
        if value >= fail:
            return self._record(STATUS_FAIL, value, fail, message, **context)
        if value >= warn:
            return self._record(STATUS_WARN, value, warn, message, **context)
        return self._record(STATUS_OK, value, warn, message, **context)


class EnergyDriftInvariant(Invariant):
    """NVE total-energy drift per fs per atom (paper Sec. 5.5).

    The first sample on the channel pins the reference energy; every later
    sample is graded on |E − E₀| / (Δt_fs · N_atoms).  Samples from
    thermostatted (non-NVE) runs are ignored — energy is not conserved
    there by construction.
    """

    name = "energy_drift"
    channel = "qmd.step"

    def __init__(self, thresholds: HealthThresholds | None = None) -> None:
        self.thresholds = thresholds or HealthThresholds()
        self._e0: float | None = None
        self._t0_fs = 0.0

    def reset(self) -> None:
        self._e0 = None
        self._t0_fs = 0.0

    def update(self, sample: dict[str, Any]) -> HealthRecord | None:
        if not sample.get("nve", True):
            return None
        energy = sample["total_energy"]
        elapsed_fs = sample["elapsed_fs"]
        natoms = max(int(sample.get("natoms", 1)), 1)
        if self._e0 is None:
            self._e0 = energy
            self._t0_fs = elapsed_fs
            return self._record(
                STATUS_OK, 0.0, self.thresholds.energy_drift_warn,
                "reference energy pinned", step=sample.get("step"),
            )
        dt = elapsed_fs - self._t0_fs
        if dt <= 0.0:
            return None
        drift = abs(energy - self._e0) / (dt * natoms)
        return self._banded(
            drift,
            self.thresholds.energy_drift_warn,
            self.thresholds.energy_drift_fail,
            "NVE total-energy drift [a.u./fs/atom]",
            step=sample.get("step"), elapsed_fs=elapsed_fs,
        )


class TemperatureWindowInvariant(Invariant):
    """Thermostatted runs must hold T within a window of the target."""

    name = "temperature_window"
    channel = "qmd.step"

    def __init__(self, thresholds: HealthThresholds | None = None) -> None:
        self.thresholds = thresholds or HealthThresholds()
        self._steps_seen = 0

    def reset(self) -> None:
        self._steps_seen = 0

    def update(self, sample: dict[str, Any]) -> HealthRecord | None:
        target = sample.get("target_kelvin")
        if not target:
            return None
        self._steps_seen += 1
        if self._steps_seen <= self.thresholds.temperature_settle_steps:
            return None
        deviation = abs(sample["temperature"] - target) / target
        return self._banded(
            deviation,
            self.thresholds.temperature_warn,
            self.thresholds.temperature_fail,
            f"fractional deviation from thermostat target {target:g} K",
            step=sample.get("step"), temperature=sample["temperature"],
        )


class ChargeConservationInvariant(Invariant):
    """The assembled density must integrate to the electron count."""

    name = "charge_conservation"
    channel = "scf.density"

    def __init__(self, thresholds: HealthThresholds | None = None) -> None:
        self.thresholds = thresholds or HealthThresholds()

    def update(self, sample: dict[str, Any]) -> HealthRecord | None:
        n_electrons = sample["n_electrons"]
        if n_electrons <= 0:
            return None
        err = abs(sample["total_charge"] - n_electrons) / n_electrons
        return self._banded(
            err,
            self.thresholds.charge_warn,
            self.thresholds.charge_fail,
            "relative charge error |∫ρ − N_e| / N_e",
            engine=sample.get("engine"),
        )


class PartitionOfUnityInvariant(Invariant):
    """Σ_α p_α(r) = 1 everywhere (Eq. b of Fig. 2's density assembly)."""

    name = "partition_of_unity"
    channel = "ldc.partition"

    def __init__(self, thresholds: HealthThresholds | None = None) -> None:
        self.thresholds = thresholds or HealthThresholds()

    def update(self, sample: dict[str, Any]) -> HealthRecord | None:
        return self._banded(
            sample["max_residual"],
            self.thresholds.pou_warn,
            self.thresholds.pou_fail,
            "partition-of-unity residual max|Σ p_α − 1|",
            ndomains=sample.get("ndomains"), support=sample.get("support"),
        )


class SCFResidualInvariant(Invariant):
    """Per-iteration SCF residual must keep making progress.

    Tracks the best residual per engine; flags a *stall* (WARN) when no new
    best appears within ``scf_stall_window`` iterations and a *divergence*
    (FAIL) when the residual climbs past ``scf_divergence_factor ×`` the
    best seen.  State resets when a solve restarts at iteration 1.
    """

    name = "scf_residual"
    channel = "scf.residual"

    def __init__(self, thresholds: HealthThresholds | None = None) -> None:
        self.thresholds = thresholds or HealthThresholds()
        self._best: dict[str, tuple[float, int]] = {}

    def reset(self) -> None:
        self._best.clear()

    def update(self, sample: dict[str, Any]) -> HealthRecord | None:
        engine = str(sample.get("engine", "?"))
        iteration = int(sample["iteration"])
        residual = float(sample["residual"])
        if iteration <= 1 or engine not in self._best:
            self._best[engine] = (residual, iteration)
            return self._record(
                STATUS_OK, residual, None,
                f"SCF residual tracking started [{engine}]",
                engine=engine, iteration=iteration,
            )
        best, best_it = self._best[engine]
        if residual < best:
            self._best[engine] = (residual, iteration)
            return self._record(
                STATUS_OK, residual, None,
                f"SCF residual improving [{engine}]",
                engine=engine, iteration=iteration,
            )
        if residual > self.thresholds.scf_divergence_factor * best:
            return self._record(
                STATUS_FAIL, residual,
                self.thresholds.scf_divergence_factor * best,
                f"SCF residual diverged past {self.thresholds.scf_divergence_factor:g}x "
                f"the best seen [{engine}]",
                engine=engine, iteration=iteration, best=best,
            )
        if iteration - best_it >= self.thresholds.scf_stall_window:
            return self._record(
                STATUS_WARN, residual, best,
                f"SCF stalled: no improvement in "
                f"{iteration - best_it} iterations [{engine}]",
                engine=engine, iteration=iteration, best=best,
            )
        return self._record(
            STATUS_OK, residual, None,
            f"SCF residual within stall window [{engine}]",
            engine=engine, iteration=iteration,
        )


class SolverConvergenceInvariant(Invariant):
    """Iterative solves that report non-convergence are flagged.

    A non-converged multigrid Poisson solve WARNs (one bad solve is mixed
    away); a non-converged final SCF state FAILs (the result is the
    answer the caller will use).
    """

    name = "solver_convergence"
    channel = "solver.convergence"

    def update(self, sample: dict[str, Any]) -> HealthRecord | None:
        solver = str(sample.get("solver", "?"))
        context = {"solver": solver, "iterations": sample.get("iterations")}
        if "final_residual" in sample:
            # an SCF's ``residual`` belongs to the pass that converged;
            # this is the residual of the state it then returned
            context["final_residual"] = sample["final_residual"]
        if sample["converged"]:
            return self._record(
                STATUS_OK, 1.0, None, f"{solver} converged", **context
            )
        status = STATUS_FAIL if sample.get("final", False) else STATUS_WARN
        return self._record(
            status, 0.0, None,
            f"{solver} did not converge within its iteration budget",
            residual=sample.get("residual"), **context,
        )


class DivergenceInvariant(Invariant):
    """Measured phase times must track the performance-model prediction.

    Drivers executing on the virtual machine publish, per algorithmic
    phase, the *measured* time (from the :class:`CommProfiler` / event-log
    accounting) alongside the *modeled* time (the closed-form
    :mod:`repro.perfmodel.scaling` / balanced-cost prediction).  A drift
    outside the band flags exactly what the paper's Fig. 5/6 diagnostics
    would: laggard-dominated phases, skewed domain assignments, or a cost
    model that no longer describes the code.
    """

    name = "model_divergence"
    channel = "vm.phase"

    def __init__(self, thresholds: HealthThresholds | None = None) -> None:
        self.thresholds = thresholds or HealthThresholds()

    def update(self, sample: dict[str, Any]) -> HealthRecord | None:
        modeled = float(sample["modeled_seconds"])
        measured = float(sample["measured_seconds"])
        phase = str(sample.get("phase", "?"))
        if modeled <= 0.0:
            return None
        drift = abs(measured - modeled) / modeled
        return self._banded(
            drift,
            self.thresholds.model_divergence_warn,
            self.thresholds.model_divergence_fail,
            f"measured-vs-modeled drift in phase {phase!r}",
            phase=phase, measured_seconds=measured,
            modeled_seconds=modeled, ranks=sample.get("ranks"),
        )


def default_invariants(
    thresholds: HealthThresholds | None = None,
) -> list[Invariant]:
    """The standard watchdog set, one shared threshold config."""
    thr = thresholds or HealthThresholds()
    return [
        EnergyDriftInvariant(thr),
        TemperatureWindowInvariant(thr),
        ChargeConservationInvariant(thr),
        PartitionOfUnityInvariant(thr),
        SCFResidualInvariant(thr),
        SolverConvergenceInvariant(),
        DivergenceInvariant(thr),
    ]


class AlertSink(Protocol):
    """Receives every WARN/FAIL record the monitor produces."""

    def emit(self, record: HealthRecord) -> None: ...


class LogAlertSink:
    """Forward WARN/FAIL records to a stdlib logger."""

    def __init__(self, logger: logging.Logger | None = None) -> None:
        from repro.observability.logs import get_logger

        self.logger = logger or get_logger("health")

    def emit(self, record: HealthRecord) -> None:
        level = logging.ERROR if record.status == STATUS_FAIL else logging.WARNING
        self.logger.log(level, record.format(), extra={
            "invariant": record.invariant, "status": record.status,
            "value": record.value,
        })


class CollectingAlertSink:
    """Keep WARN/FAIL records in a list (tests, dashboards)."""

    def __init__(self) -> None:
        self.records: list[HealthRecord] = []

    def emit(self, record: HealthRecord) -> None:
        self.records.append(record)


class RaiseOnFailSink:
    """Escalate FAIL records into :class:`HealthError` exceptions."""

    def emit(self, record: HealthRecord) -> None:
        if record.status == STATUS_FAIL:
            raise HealthError(record)


class HealthMonitor:
    """Dispatches driver samples to invariants and fans out alerts.

    Parameters
    ----------
    invariants:
        The checks to run; defaults to :func:`default_invariants`.
    thresholds:
        Shared :class:`HealthThresholds` used when building the default set.
    sinks:
        Alert sinks receiving every WARN/FAIL record.
    keep_ok:
        Store OK records too (full audit trail); default keeps only WARN/FAIL
        plus per-invariant counters, bounding memory on long trajectories.
    clock:
        Injectable clock for record timestamps; shared with the owning
        :class:`~repro.observability.Instrumentation`'s tracer when attached.
    """

    def __init__(
        self,
        invariants: Iterable[Invariant] | None = None,
        thresholds: HealthThresholds | None = None,
        sinks: Iterable[AlertSink] = (),
        keep_ok: bool = False,
        clock: WallClock | None = None,
    ) -> None:
        self.thresholds = thresholds or HealthThresholds()
        self.sinks: list[AlertSink] = list(sinks)
        self.keep_ok = keep_ok
        self.clock = clock
        #: callables receiving *every* record (OK included) — the telemetry
        #: bus wire-up; empty by default so nothing runs when unused
        self.listeners: list[Callable[[HealthRecord], None]] = []
        self.records: list[HealthRecord] = []
        #: evaluation counts per (invariant, status)
        self.counts: dict[tuple[str, str], int] = {}
        self._channels: dict[str, list[Invariant]] = {}
        for inv in (
            default_invariants(self.thresholds)
            if invariants is None
            else invariants
        ):
            self.add(inv)

    # -- wiring ---------------------------------------------------------------

    def add(self, invariant: Invariant) -> "HealthMonitor":
        """Register an invariant on its channel; returns self for chaining."""
        self._channels.setdefault(invariant.channel, []).append(invariant)
        return self

    def add_sink(self, sink: AlertSink) -> "HealthMonitor":
        self.sinks.append(sink)
        return self

    def add_listener(
        self, listener: Callable[[HealthRecord], None]
    ) -> "HealthMonitor":
        """Register a callable that receives every record, OK included."""
        self.listeners.append(listener)
        return self

    def invariants(self) -> list[Invariant]:
        return [inv for invs in self._channels.values() for inv in invs]

    def reset(self) -> None:
        """Clear records and every invariant's cross-sample state."""
        self.records.clear()
        self.counts.clear()
        for inv in self.invariants():
            inv.reset()

    # -- the driver-facing entry point ---------------------------------------

    def observe(self, channel: str, **sample: Any) -> list[HealthRecord]:
        """Publish one sample; returns the records it produced."""
        invs = self._channels.get(channel)
        if not invs:
            return []
        now = self.clock.now() if self.clock is not None else _DEFAULT_CLOCK.now()
        out: list[HealthRecord] = []
        for inv in invs:
            rec = inv.update(sample)
            if rec is None:
                continue
            rec = HealthRecord(
                invariant=rec.invariant, status=rec.status, value=rec.value,
                threshold=rec.threshold, message=rec.message, time=now,
                context=rec.context,
            )
            out.append(rec)
            key = (rec.invariant, rec.status)
            self.counts[key] = self.counts.get(key, 0) + 1
            if rec.status != STATUS_OK or self.keep_ok:
                self.records.append(rec)
            if self.listeners:
                for listener in self.listeners:
                    listener(rec)
            if rec.status != STATUS_OK:
                for sink in self.sinks:
                    sink.emit(rec)
        return out

    # -- queries ---------------------------------------------------------------

    def worst_status(self) -> str:
        worst = STATUS_OK
        for (_, status), n in self.counts.items():
            if n and _SEVERITY[status] > _SEVERITY[worst]:
                worst = status
        return worst

    def all_green(self) -> bool:
        return self.worst_status() == STATUS_OK

    def failures(self) -> list[HealthRecord]:
        return [r for r in self.records if r.status == STATUS_FAIL]

    def warnings(self) -> list[HealthRecord]:
        return [r for r in self.records if r.status == STATUS_WARN]

    def summary(self) -> dict[str, dict[str, int]]:
        """``{invariant: {ok: n, warn: n, fail: n}}`` over all evaluations."""
        out: dict[str, dict[str, int]] = {}
        for (inv, status), n in sorted(self.counts.items()):
            out.setdefault(inv, {STATUS_OK: 0, STATUS_WARN: 0, STATUS_FAIL: 0})
            out[inv][status] += n
        return out

    def render_summary(self) -> str:
        """Fixed-width invariant scoreboard for CLI/example output."""
        rows = self.summary()
        if not rows:
            return "no invariants evaluated"
        width = max(len(k) for k in rows)
        lines = [
            f"{'invariant':<{width}}  {'ok':>6}  {'warn':>6}  {'fail':>6}  status"
        ]
        for name, c in rows.items():
            status = STATUS_OK
            if c[STATUS_FAIL]:
                status = STATUS_FAIL
            elif c[STATUS_WARN]:
                status = STATUS_WARN
            lines.append(
                f"{name:<{width}}  {c[STATUS_OK]:>6}  {c[STATUS_WARN]:>6}  "
                f"{c[STATUS_FAIL]:>6}  {status.upper()}"
            )
        return "\n".join(lines)

    # -- chrome trace merge ----------------------------------------------------

    def chrome_events(self, pid: int = HEALTH_TRACE_PID) -> list[dict[str, Any]]:
        """Stored records as Chrome instant events (merged by the facade)."""
        events = []
        for r in self.records:
            events.append(
                {
                    "name": f"health.{r.invariant}",
                    "cat": "health",
                    "ph": "i",
                    "s": "g",
                    "ts": r.time * 1e6,
                    "pid": pid,
                    "tid": 0,
                    "args": {
                        "status": r.status,
                        "value": r.value,
                        "threshold": r.threshold,
                        "message": r.message,
                        **{str(k): v for k, v in r.context.items()},
                    },
                }
            )
        return events

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable dump: summary + stored records."""
        return {
            "worst_status": self.worst_status(),
            "summary": self.summary(),
            "records": [r.to_dict() for r in self.records],
        }


_DEFAULT_CLOCK = WallClock()
