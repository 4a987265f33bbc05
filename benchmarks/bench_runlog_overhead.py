"""BENCH-RUNLOG-OVERHEAD — the run ledger's zero-overhead contract.

The runlog subsystem rides the Instrumentation facade and inherits its
promise (DESIGN.md §15): no recorder means *zero* ledger code on the hot
path — every recorder/flight-recorder touch point sits behind an
``is not None`` guard.  This bench pins the contract:

* ``runlog_calls_disabled`` — Python calls entering the runlog or flight
  recorder modules during a recorder-less (but otherwise
  fully instrumented) QMD run, counted with ``sys.setprofile`` and gated
  **exactly at zero**;
* ``enabled_ledger_ok`` — 1.0 when the recorder-enabled twin of the same
  run produced a schema-valid manifest whose content hashes verify and
  whose invocation log names ``qmd.run`` (proving the probe measures a
  live ledger, not a stub);
* ``manifest_artifacts`` / ``flight_events_enabled`` — ledger/ring
  coverage of the enabled run, gated against decrease;
* disabled/enabled wall-clock and the overhead percentage, ledgered for
  the record but never gated (host-dependent).
"""

import os
import sys
import tempfile
import time

import numpy as np

from _harness import fmt_row, report
from _schemas import SCHEMAS

from repro.md.integrator import initialize_velocities
from repro.md.qmd import QMDDriver
from repro.observability import Instrumentation
from repro.observability.runlog import RunRecorder, verify_run
from repro.systems import water_molecule

_NEEDLES = (
    os.sep + "runlog.py",
    os.sep + "flightrec.py",
)

NSTEPS = 40


class SpringEngine:
    """Toy force engine: every atom on a harmonic spring to where it
    started, one 'SCF iteration' per call.  The bench measures the ledger
    around the driver, so the engine only has to be cheap and smooth."""

    STIFFNESS = 0.5  # Hartree / Bohr²

    def __init__(self) -> None:
        self.anchor = None

    def forces(self, config):
        if self.anchor is None:
            self.anchor = config.positions.copy()
        offset = config.positions - self.anchor
        energy = 0.5 * self.STIFFNESS * float(np.sum(offset**2))
        return -self.STIFFNESS * offset, energy, 1


def _config():
    cfg = water_molecule(center=(10.0, 10.0, 10.0))
    initialize_velocities(cfg, 300.0, seed=7)
    return cfg


def run_qmd(instrumentation):
    driver = QMDDriver(
        SpringEngine(), timestep=4.0, instrumentation=instrumentation
    )
    driver.run(_config(), NSTEPS)
    return driver


def count_runlog_calls(instrumentation):
    counts = {"runlog": 0}

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.endswith(_NEEDLES):
            counts["runlog"] += 1

    sys.setprofile(hook)
    try:
        run_qmd(instrumentation)
    finally:
        sys.setprofile(None)
    return counts["runlog"]


def test_runlog_overhead():
    # disabled = a *fully instrumented* run with no recorder attached:
    # the facade is live but must execute zero runlog code
    calls_disabled = count_runlog_calls(Instrumentation())

    with tempfile.TemporaryDirectory() as td:
        rec = RunRecorder(component="bench-probe", root=td)
        calls_enabled = count_runlog_calls(Instrumentation(recorder=rec))
        flight_events = rec.flight.seen
        manifest = rec.finish()
        problems = verify_run(rec.dir)
        invoked = [e["component"] for e in manifest["invocations"]]
        ledger_ok = (
            not problems
            and manifest["status"] == "ok"
            and "qmd.run" in invoked
        )
        n_artifacts = len(manifest["artifacts"])

    # wall-clock without the profiling hook (ledger only)
    t0 = time.perf_counter()
    run_qmd(Instrumentation())
    t_disabled = time.perf_counter() - t0
    with tempfile.TemporaryDirectory() as td:
        rec = RunRecorder(component="bench-probe", root=td)
        t0 = time.perf_counter()
        run_qmd(Instrumentation(recorder=rec))
        t_enabled = time.perf_counter() - t0
        rec.finish()

    overhead_pct = (
        100.0 * (t_enabled / t_disabled - 1.0) if t_disabled > 0 else 0.0
    )
    lines = [
        fmt_row("calls(off)", "calls(on)", "artifacts", "ring",
                "t_off[s]", "t_on[s]", "ovh[%]"),
        fmt_row(calls_disabled, calls_enabled, n_artifacts, flight_events,
                t_disabled, t_enabled, overhead_pct),
    ]
    records = [
        {"metric": "runlog_calls_disabled", "value": float(calls_disabled)},
        {"metric": "enabled_ledger_ok", "value": 1.0 if ledger_ok else 0.0},
        {"metric": "manifest_artifacts", "value": float(n_artifacts)},
        {"metric": "flight_events_enabled", "value": float(flight_events)},
        {"metric": "t_disabled_s", "value": t_disabled},
        {"metric": "t_enabled_s", "value": t_enabled},
        {"metric": "overhead_pct", "value": overhead_pct},
    ]
    report(
        "runlog_overhead",
        "run ledger — zero-overhead contract",
        lines, records=records, schema=SCHEMAS["runlog_overhead"],
    )
    assert calls_disabled == 0
    assert calls_enabled > 0
    assert ledger_ok
    assert flight_events > 0
    assert np.isfinite(t_enabled)


def main():
    off = count_runlog_calls(Instrumentation())
    with tempfile.TemporaryDirectory() as td:
        rec = RunRecorder(component="bench-probe", root=td)
        on = count_runlog_calls(Instrumentation(recorder=rec))
        rec.finish()
    print(f"runlog calls: disabled={off} enabled={on}")


if __name__ == "__main__":
    main()
