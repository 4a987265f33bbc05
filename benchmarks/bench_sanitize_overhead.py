"""BENCH-SANITIZE-OVERHEAD — the runtime sanitizers' zero-overhead contract.

The numerics checkpoints are calls on the drivers' one observability
handle (DESIGN.md §13, §21): on the off observer they do nothing, so
disabled means *zero* ``repro.sanitize`` code on the hot path.  This bench
pins the contract as a count:

* ``sanitizer_calls_disabled`` — Python calls entering ``repro/sanitize``
  modules during a sanitizer-disabled LDC + SCF solve, counted with
  ``sys.setprofile`` and gated **exactly at zero**;
* ``enabled_path_active`` — the same counter's sign for an enabled run
  (1.0), proving the probe would catch a regression;
* ``numerics_checks`` — checkpoints crossed by the enabled run (gated
  against decrease: losing a checkpoint is a coverage regression);
* disabled/enabled wall-clock and the overhead percentage, ledgered for
  the record but never gated (host-dependent).
"""

import os
import sys
import time

from _harness import fmt_row, report
from _schemas import SCHEMAS

from repro.core.ldc import LDCOptions, run_ldc
from repro.dft.scf import SCFOptions, run_scf
from repro.observability import Instrumentation
from repro.observe import OFF
from repro.sanitize import NumericsSanitizer
from repro.systems import dimer

LDC_OPTS = LDCOptions(ecut=4.0, tol=1e-4, max_iter=4, domains=(2, 1, 1))
SCF_OPTS = SCFOptions(ecut=4.0, tol=1e-4, max_iter=4)

_NEEDLE = os.sep + "sanitize" + os.sep


def solve_both(instrumentation=OFF):
    # OFF, not None: off whatever REPRO_SANITIZE the environment exported
    cfg = dimer("H", "H", 1.5, 12.0)
    run_ldc(cfg, LDC_OPTS, instrumentation=instrumentation)
    run_scf(cfg, SCF_OPTS, instrumentation=instrumentation)


def armed():
    return Instrumentation(numerics=NumericsSanitizer())


def count_sanitize_calls(instrumentation=OFF):
    counts = {"sanitize": 0}

    def hook(frame, event, arg):
        if event == "call" and _NEEDLE in frame.f_code.co_filename:
            counts["sanitize"] += 1

    sys.setprofile(hook)
    try:
        solve_both(instrumentation)
    finally:
        sys.setprofile(None)
    return counts["sanitize"]


def test_sanitize_overhead():
    calls_disabled = count_sanitize_calls()
    enabled = armed()
    calls_enabled = count_sanitize_calls(enabled)

    # wall-clock without the profiling hook (ledger only; the enabled run
    # pays for the tracer and the metrics of its Instrumentation too)
    t0 = time.perf_counter()
    solve_both()
    t_disabled = time.perf_counter() - t0
    t0 = time.perf_counter()
    solve_both(armed())
    t_enabled = time.perf_counter() - t0

    overhead_pct = (
        100.0 * (t_enabled / t_disabled - 1.0) if t_disabled > 0 else 0.0
    )
    lines = [
        fmt_row("calls(off)", "calls(on)", "checks", "t_off[s]",
                "t_on[s]", "ovh[%]"),
        fmt_row(calls_disabled, calls_enabled, enabled.numerics.checks,
                t_disabled, t_enabled, overhead_pct),
    ]
    records = [
        {"metric": "sanitizer_calls_disabled", "value": float(calls_disabled)},
        {"metric": "enabled_path_active",
         "value": 1.0 if calls_enabled > 0 else 0.0},
        {"metric": "numerics_checks", "value": float(enabled.numerics.checks)},
        {"metric": "t_disabled_s", "value": t_disabled},
        {"metric": "t_enabled_s", "value": t_enabled},
        {"metric": "overhead_pct", "value": overhead_pct},
    ]
    report(
        "sanitize_overhead",
        "runtime sanitizers — zero-overhead contract",
        lines, records=records, schema=SCHEMAS["sanitize_overhead"],
    )
    assert calls_disabled == 0
    assert calls_enabled > 0
    assert enabled.numerics.checks > 0


def main():
    off = count_sanitize_calls()
    on = count_sanitize_calls(armed())
    print(f"sanitize calls: disabled={off} enabled={on}")


if __name__ == "__main__":
    main()
