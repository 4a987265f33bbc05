"""Tests for the physics health monitors (repro.observability.health).

Covers the invariant units, the monitor/sink plumbing, the integration
through the instrumented drivers (QMD / SCF / LDC / multigrid), and the
two contract pins:

* a mis-integrated QMD run (10× timestep) must trip the energy-drift
  invariant while the nominal run stays green;
* a facade without a monitor executes zero health code (the zero-overhead
  contract, enforced with ``sys.setprofile``).
"""

import json
import sys

import numpy as np
import pytest

from repro.md.integrator import initialize_velocities
from repro.md.qmd import LDCEngine, QMDDriver
from repro.observability import HealthError, HealthMonitor, Instrumentation
from repro.observability.health import (
    HEALTH_TRACE_PID,
    STATUS_FAIL,
    STATUS_OK,
    STATUS_WARN,
    ChargeConservationInvariant,
    CollectingAlertSink,
    EnergyDriftInvariant,
    HealthThresholds,
    PartitionOfUnityInvariant,
    RaiseOnFailSink,
    SCFResidualInvariant,
    SolverConvergenceInvariant,
    TemperatureWindowInvariant,
    default_invariants,
)
from repro.reactive.potential import ReactiveForceField
from repro.systems import dimer, water_molecule

THR = HealthThresholds()


class ReactiveEngine:
    """Surrogate engine with the QMD engine interface (fast force field)."""

    def __init__(self):
        self.ff = ReactiveForceField()

    def forces(self, config):
        e, f = self.ff.energy_forces(config)
        return f, e, 1


def _drift_monitor():
    return HealthMonitor(invariants=[EnergyDriftInvariant(THR)])


# -- invariant units ---------------------------------------------------------


def test_energy_drift_pins_reference_then_grades():
    inv = EnergyDriftInvariant(THR)
    first = inv.update({"total_energy": -1.0, "elapsed_fs": 0.0, "natoms": 2})
    assert first.status == STATUS_OK and "pinned" in first.message
    # |ΔE| / (Δt · natoms) = 0.2 / (1 · 2) = 0.1 > fail threshold
    bad = inv.update({"total_energy": -0.8, "elapsed_fs": 1.0, "natoms": 2})
    assert bad.status == STATUS_FAIL
    assert bad.value == pytest.approx(0.1)


def test_energy_drift_skips_thermostatted_samples():
    inv = EnergyDriftInvariant(THR)
    assert inv.update({"nve": False, "total_energy": 0.0,
                       "elapsed_fs": 0.0}) is None


def test_temperature_window_waits_for_settling():
    inv = TemperatureWindowInvariant(THR)
    sample = {"temperature": 1200.0, "target_kelvin": 300.0}
    for _ in range(THR.temperature_settle_steps):
        assert inv.update(dict(sample)) is None
    rec = inv.update(dict(sample))  # |1200-300|/300 = 3 > fail 2.0
    assert rec.status == STATUS_FAIL
    inv.reset()
    assert inv.update(dict(sample)) is None  # settle counter cleared


def test_temperature_window_ignores_unthermostatted_runs():
    inv = TemperatureWindowInvariant(THR)
    assert inv.update({"temperature": 300.0, "target_kelvin": None}) is None


def test_charge_conservation_grades_relative_error():
    inv = ChargeConservationInvariant(THR)
    ok = inv.update({"total_charge": 8.0 + 1e-12, "n_electrons": 8})
    assert ok.status == STATUS_OK
    bad = inv.update({"total_charge": 8.1, "n_electrons": 8})
    assert bad.status == STATUS_FAIL


def test_partition_of_unity_thresholds():
    inv = PartitionOfUnityInvariant(THR)
    assert inv.update({"max_residual": 0.0}).status == STATUS_OK
    assert inv.update({"max_residual": 1e-8}).status == STATUS_WARN
    assert inv.update({"max_residual": 1e-3}).status == STATUS_FAIL


def test_scf_residual_stall_and_divergence():
    inv = SCFResidualInvariant(THR)
    inv.update({"engine": "pw", "iteration": 1, "residual": 1e-2})
    # no new best for a full stall window -> WARN
    rec = None
    for it in range(2, 2 + THR.scf_stall_window):
        rec = inv.update({"engine": "pw", "iteration": it, "residual": 2e-2})
    assert rec.status == STATUS_WARN and "stalled" in rec.message
    # explosion past the divergence factor -> FAIL
    rec = inv.update({"engine": "pw", "iteration": 20, "residual": 1.0})
    assert rec.status == STATUS_FAIL and "diverged" in rec.message
    # a restart at iteration 1 clears the state
    rec = inv.update({"engine": "pw", "iteration": 1, "residual": 5e-2})
    assert rec.status == STATUS_OK


def test_solver_convergence_final_flag_escalates():
    inv = SolverConvergenceInvariant()
    assert inv.update({"solver": "mg", "converged": True}).status == STATUS_OK
    warn = inv.update({"solver": "mg", "converged": False})
    assert warn.status == STATUS_WARN
    fail = inv.update({"solver": "scf", "converged": False, "final": True})
    assert fail.status == STATUS_FAIL


# -- monitor & sinks ---------------------------------------------------------


def test_monitor_dispatches_by_channel_and_counts():
    mon = HealthMonitor(thresholds=THR)
    assert {inv.name for inv in mon.invariants()} == {
        inv.name for inv in default_invariants()
    }
    out = mon.observe("ldc.partition", max_residual=0.0)
    assert [r.invariant for r in out] == ["partition_of_unity"]
    assert mon.observe("no.such.channel", x=1) == []
    assert mon.all_green()
    mon.observe("ldc.partition", max_residual=1.0)
    assert mon.worst_status() == STATUS_FAIL
    assert len(mon.failures()) == 1
    assert mon.summary()["partition_of_unity"][STATUS_FAIL] == 1
    assert "partition_of_unity" in mon.render_summary()


def test_monitor_keep_ok_stores_full_audit_trail():
    mon = HealthMonitor(
        invariants=[PartitionOfUnityInvariant(THR)], keep_ok=True
    )
    mon.observe("ldc.partition", max_residual=0.0)
    assert len(mon.records) == 1 and mon.records[0].ok


def test_collecting_sink_sees_only_non_ok():
    sink = CollectingAlertSink()
    mon = HealthMonitor(
        invariants=[PartitionOfUnityInvariant(THR)], sinks=[sink]
    )
    mon.observe("ldc.partition", max_residual=0.0)
    mon.observe("ldc.partition", max_residual=1.0)
    assert [r.status for r in sink.records] == [STATUS_FAIL]


def test_raise_on_fail_sink_escalates():
    mon = HealthMonitor(
        invariants=[PartitionOfUnityInvariant(THR)], sinks=[RaiseOnFailSink()]
    )
    mon.observe("ldc.partition", max_residual=1e-9)  # WARN: no raise
    with pytest.raises(HealthError) as exc:
        mon.observe("ldc.partition", max_residual=1.0)
    assert exc.value.record.invariant == "partition_of_unity"


def test_monitor_reset_clears_invariant_state():
    mon = _drift_monitor()
    mon.observe("qmd.step", total_energy=-1.0, elapsed_fs=0.0, natoms=1)
    mon.observe("qmd.step", total_energy=0.0, elapsed_fs=1.0, natoms=1)
    assert not mon.all_green()
    mon.reset()
    assert mon.all_green() and not mon.records
    # the drift reference was cleared: the next sample pins a new E0
    rec = mon.observe(
        "qmd.step", total_energy=5.0, elapsed_fs=0.0, natoms=1
    )[0]
    assert "pinned" in rec.message


def test_chrome_events_and_to_dict():
    mon = HealthMonitor(invariants=[PartitionOfUnityInvariant(THR)])
    mon.observe("ldc.partition", max_residual=1.0)
    (event,) = mon.chrome_events()
    assert event["pid"] == HEALTH_TRACE_PID
    assert event["ph"] == "i"
    assert event["name"] == "health.partition_of_unity"
    dump = mon.to_dict()
    assert dump["worst_status"] == STATUS_FAIL
    assert dump["records"][0]["invariant"] == "partition_of_unity"
    json.dumps(dump)  # must be JSON-serializable


# -- the mis-integration pin: 10x timestep trips energy drift ----------------


def _run_surrogate_qmd(timestep, nsteps, monitor):
    cfg = water_molecule(center=(10.0, 10.0, 10.0))
    initialize_velocities(cfg, 200.0, seed=1)
    ins = Instrumentation(health=monitor)
    driver = QMDDriver(ReactiveEngine(), timestep=timestep,
                       instrumentation=ins)
    driver.run(cfg, nsteps)
    return driver


def test_nominal_qmd_keeps_energy_drift_green():
    mon = _drift_monitor()
    _run_surrogate_qmd(4.0, 60, mon)
    assert mon.all_green(), mon.render_summary()


def test_ten_x_timestep_trips_energy_drift():
    mon = _drift_monitor()
    _run_surrogate_qmd(40.0, 200, mon)
    assert mon.worst_status() == STATUS_FAIL
    assert any(r.invariant == "energy_drift" for r in mon.failures())


def test_raise_on_fail_stops_the_broken_run():
    mon = _drift_monitor().add_sink(RaiseOnFailSink())
    with pytest.raises(HealthError):
        _run_surrogate_qmd(40.0, 200, mon)


# -- broken partition of unity trips its check -------------------------------


def test_broken_partition_of_unity_trips_check():
    """Corrupting one domain's support weights breaks Σp_α = 1 and the
    residual (computed by the real LDC helper) must FAIL the invariant."""
    from repro.core.domains import DomainDecomposition
    from repro.core.ldc import (
        LDCOptions,
        _partition_residual,
        make_global_grid,
    )
    from repro.core.support import supports
    from repro.core.workspace import LDCWorkspace

    cfg = dimer("H", "H", 1.4, 8.0)
    opts = LDCOptions(ecut=4.0, domains=(2, 1, 1), buffer=1.5)
    grid = make_global_grid(cfg, opts)
    decomp = DomainDecomposition(grid, opts.domains, opts.buffer)
    pou = supports(decomp, opts.support)
    states = LDCWorkspace().build_states(cfg, decomp, pou, opts)

    mon = HealthMonitor(invariants=[PartitionOfUnityInvariant(THR)])
    intact = _partition_residual(grid, states)
    mon.observe("ldc.partition", max_residual=intact)
    assert mon.all_green(), f"intact supports must pass (residual {intact})"

    states[0].support *= 0.5  # break the partition
    broken = _partition_residual(grid, states)
    mon.observe("ldc.partition", max_residual=broken)
    assert mon.worst_status() == STATUS_FAIL


# -- full-stack integration: LDC-powered QMD reports all green ---------------


def test_instrumented_ldc_qmd_all_green(tmp_path):
    from repro.core.ldc import LDCOptions

    cfg = dimer("H", "H", 2.3, 12.0)
    initialize_velocities(cfg, 50.0, seed=6)
    mon = HealthMonitor()
    ins = Instrumentation(health=mon)
    engine = LDCEngine(
        LDCOptions(ecut=4.0, domains=(2, 1, 1), buffer=2.0, tol=1e-4),
        instrumentation=ins,
    )
    driver = QMDDriver(engine, timestep=4.0, instrumentation=ins)
    driver.run(cfg, 2)

    assert mon.all_green(), mon.render_summary()
    evaluated = {inv for inv, _ in mon.counts}
    # the whole stack reported: QMD energy, LDC partition/charge/residual,
    # and every iterative solver's convergence
    assert {"energy_drift", "partition_of_unity", "charge_conservation",
            "scf_residual", "solver_convergence"} <= evaluated

    # health events ride along in the merged Chrome trace (pid 3)...
    trace = ins.to_chrome_trace()
    mon.keep_ok = True  # records list may be empty when all OK
    assert all(
        e["pid"] == HEALTH_TRACE_PID
        for e in trace["traceEvents"]
        if str(e.get("name", "")).startswith("health.")
    )
    # ...and write_artifacts drops health.json next to the trace
    ins.write_artifacts(tmp_path)
    dump = json.loads((tmp_path / "health.json").read_text())
    assert dump["worst_status"] == STATUS_OK


# -- zero-overhead contract --------------------------------------------------


def _count_health_calls(fn):
    counts = {"health": 0, "total": 0}

    def profiler(frame, event, arg):
        if event == "call":
            counts["total"] += 1
            # observability/health.py specifically: this test file is
            # *test_*health.py and would otherwise count its own frames
            fname = frame.f_code.co_filename.replace("\\", "/")
            if fname.endswith("observability/health.py"):
                counts["health"] += 1

    sys.setprofile(profiler)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return counts, result


def test_facade_without_monitor_runs_zero_health_code():
    from repro.dft.scf import SCFOptions, run_scf

    cfg = dimer("H", "H", 1.5, 12.0)
    ins = Instrumentation()  # telemetry on, health off
    counts, result = _count_health_calls(
        lambda: run_scf(cfg, SCFOptions(ecut=4.0, tol=1e-3, max_iter=4),
                        instrumentation=ins)
    )
    assert counts["total"] > 0
    assert counts["health"] == 0
    assert result.iterations > 0


def test_facade_with_monitor_does_enter_health_code():
    from repro.dft.scf import SCFOptions, run_scf

    cfg = dimer("H", "H", 1.5, 12.0)
    ins = Instrumentation(health=HealthMonitor())
    counts, _ = _count_health_calls(
        lambda: run_scf(cfg, SCFOptions(ecut=4.0, tol=1e-3, max_iter=4),
                        instrumentation=ins)
    )
    assert counts["health"] > 0
    assert ins.health.counts  # invariants actually evaluated


def test_monitor_shares_the_tracer_clock():
    mon = HealthMonitor()
    ins = Instrumentation(health=mon)
    assert mon.clock is ins.tracer._clock


def test_energy_drift_magnitudes_document_the_thresholds():
    """The calibration behind HealthThresholds' defaults: nominal surrogate
    dynamics sit orders of magnitude under the WARN band, the 10x timestep
    orders of magnitude over the FAIL band."""
    mon_ok = _drift_monitor()
    _run_surrogate_qmd(4.0, 60, mon_ok)
    mon_bad = HealthMonitor(invariants=[EnergyDriftInvariant(THR)],
                            keep_ok=True)
    _run_surrogate_qmd(40.0, 200, mon_bad)
    drifts_bad = [r.value for r in mon_bad.records
                  if r.invariant == "energy_drift"]
    assert max(drifts_bad) > THR.energy_drift_fail
    assert np.isfinite(max(drifts_bad))
