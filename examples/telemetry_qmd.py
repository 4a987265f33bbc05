"""Instrumented QMD run: one ledger entry, one trace, one breakdown.

Demonstrates the observability subsystem end-to-end on a tiny LDC-QMD
trajectory (the acceptance flow of the telemetry + run-ledger PRs):

1. thread one ``Instrumentation`` facade — with an attached
   ``RunRecorder`` — through the QMD driver, the LDC engine, the
   multigrid Poisson solver, and the eigensolvers;
2. finish the run: ``telemetry/runs/<run_id>/`` now holds ``trace.json``,
   ``metrics.{json,csv}``, and a schema'd ``manifest.json`` whose content
   hashes verify.

Open the run's ``trace.json`` in chrome://tracing or
https://ui.perfetto.dev to see the measured spans, or print the
per-phase table of the run directory::

    python -m repro.observability.report telemetry/runs/<run_id>

Run:  PYTHONPATH=src python examples/telemetry_qmd.py
"""

from repro.core.ldc import LDCOptions
from repro.md.integrator import initialize_velocities
from repro.md.qmd import LDCEngine, QMDDriver
from repro.observability import Instrumentation
from repro.observability.report import phase_breakdown, render_breakdown
from repro.observability.runlog import RunRecorder, verify_run
from repro.systems import dimer


def main() -> None:
    config = dimer("H", "H", 1.5, 12.0)
    initialize_velocities(config, 300.0, seed=0)
    opts = LDCOptions(
        ecut=4.0, domains=(2, 1, 1), buffer=1.5, tol=1e-4, max_iter=10,
        poisson="multigrid",
    )

    recorder = RunRecorder(component="example:telemetry_qmd")
    ins = Instrumentation(recorder=recorder)

    # A short instrumented QMD trajectory (warm-started LDC solves).
    driver = QMDDriver(LDCEngine(opts), timestep=5.0, instrumentation=ins)
    driver.run(config, nsteps=2)

    manifest = recorder.finish()
    problems = verify_run(recorder.dir)
    print(f"run ledger entry: {recorder.dir}")
    print(f"artifacts: {', '.join(sorted(manifest['artifacts']))}")
    print(f"hashes verify: {'yes' if not problems else problems}\n")

    events = ins.tracer.to_chrome_trace()["traceEvents"]
    print("== measured spans ==")
    print(render_breakdown(phase_breakdown(events), top=8))

    resid = ins.metrics.get("scf.residual", engine="ldc")
    print(f"\nper-iteration SCF residuals ({len(resid.values)} iterations):")
    print("  " + "  ".join(f"{r:.2e}" for r in resid.values[:8]) + " ...")


if __name__ == "__main__":
    main()
