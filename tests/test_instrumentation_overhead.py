"""Regression test: what the un-instrumented path executes.

The drivers call one observability handle unconditionally (DESIGN.md §21);
``instrumentation=None`` (the default) gives them the off observer of
``repro/observe.py``, whose verbs do nothing.  Pinned here with
``sys.setprofile``: an un-instrumented run enters no function defined in
``repro/observability``, never computes a telemetry-only value, makes no
handle call from inside a kernel, and makes a bounded number of no-op calls
per SCF pass.  The last test pins how ``None`` / ``OFF`` resolve.
"""

import sys

from repro.core import LDCOptions, LDCWorkspace, run_ldc
from repro.dft.scf import SCFOptions, run_scf
from repro.observability import Instrumentation
from repro.observe import OFF, observer
from repro.systems import dimer

OPTS = SCFOptions(ecut=4.0, tol=1e-3, max_iter=4)


def _count_observability_calls(fn):
    counts = {"observability": 0, "total": 0}

    def profiler(frame, event, arg):
        if event == "call":
            counts["total"] += 1
            filename = frame.f_code.co_filename
            if "observability" in filename:
                counts["observability"] += 1

    sys.setprofile(profiler)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return counts, result


def test_noop_path_never_enters_observability_code():
    cfg = dimer("H", "H", 1.5, 12.0)
    counts, result = _count_observability_calls(lambda: run_scf(cfg, OPTS))
    assert counts["total"] > 0  # the profiler actually saw the run
    assert counts["observability"] == 0
    assert result.iterations > 0


def test_workspace_ldc_noop_path_never_enters_observability_code():
    """Same pin over the sites the SCF memory added to ``run_ldc``: two
    workspace solves (fresh mixer, then carried pairs, the quasi-Newton
    final iterate and the drop bookkeeping) without instrumentation."""
    cfg = dimer("H", "H", 1.5, 12.0)
    opts = LDCOptions(ecut=4.0, domains=(2, 1, 1), tol=1e-3, max_iter=6)
    ws = LDCWorkspace()

    def two_steps():
        run_ldc(cfg, opts, workspace=ws)
        return run_ldc(cfg, opts, workspace=ws)

    counts, result = _count_observability_calls(two_steps)
    assert counts["total"] > 0 and counts["observability"] == 0
    assert ws.warm_domains > 0 and ws._mixer.pairs > 0
    assert result.iterations > 0


def test_enabled_path_does_enter_observability_code():
    """Sanity check that the counter would catch regressions: the same run
    with instrumentation enabled must cross into observability code."""
    cfg = dimer("H", "H", 1.5, 12.0)
    ins = Instrumentation()
    counts, _ = _count_observability_calls(
        lambda: run_scf(cfg, OPTS, instrumentation=ins)
    )
    assert counts["observability"] > 0
    assert len(ins.metrics.get("scf.residual", engine="ldc").values) > 0


def test_disabled_timer_import_not_triggered_in_hot_loop():
    """The uninstrumented run allocates no Span objects (the null span of
    the off observer is one shared object of another class)."""
    from repro.observability.tracer import Span

    cfg = dimer("H", "H", 1.5, 12.0)
    before = sys.getrefcount(Span)
    run_scf(cfg, OPTS)
    after = sys.getrefcount(Span)
    assert after == before



# -- what off executes --------------------------------------------------------


#: No-op handle calls one SCF pass (the final consistent pass counted as
#: one) may make in the two-domain, stack-of-one run below: measured 46.7
#: (420 over 9 passes) — 11 from the loop, 5 + 2 per domain from the
#: global half of the pass (its boundary-error sample and eigenvalue
#: share), 12 per domain solve (its span and ``record_solve``), the rest
#: per run (8 of them the four ``ldc.workspace_bytes`` gauges).  The same
#: run applies H 15.8 times per pass: one emission per ``H·ψ`` would read
#: 62.4.
NULL_CALLS_PER_PASS = 50


def test_off_path_is_a_bounded_number_of_null_calls_outside_the_kernels():
    cfg = dimer("H", "H", 1.5, 12.0)
    opts = LDCOptions(
        ecut=4.0, domains=(2, 1, 1), tol=1e-3, max_iter=6,
        batch_domains=False,
    )
    ws = LDCWorkspace()
    seen = {"total": 0, "tooling": 0, "null": 0, "kernel": 0, "applies": 0}
    kernel_files = ("dft/basis.py", "dft/hamiltonian.py")

    def profiler(frame, event, arg):
        if event != "call":
            return
        seen["total"] += 1
        code = frame.f_code
        filename = code.co_filename.replace("\\", "/")
        if "repro/observability/" in filename:
            seen["tooling"] += 1
        elif code.co_name == "apply" and filename.endswith("dft/hamiltonian.py"):
            seen["applies"] += 1
        elif filename.endswith("repro/observe.py"):
            seen["null"] += 1
            caller = frame.f_back.f_code
            if (
                caller.co_filename.replace("\\", "/").endswith(kernel_files)
                or caller.co_name == "_lockstep_lobpcg"
            ):
                seen["kernel"] += 1

    sys.setprofile(profiler)
    try:
        first = run_ldc(cfg, opts, workspace=ws)
        second = run_ldc(cfg, opts, workspace=ws)
    finally:
        sys.setprofile(None)
    passes = first.iterations + second.iterations + 2  # + the final passes
    assert seen["total"] > 0 and seen["null"] > 0  # the profiler saw the run
    assert seen["tooling"] == 0
    assert seen["kernel"] == 0
    assert seen["null"] <= NULL_CALLS_PER_PASS * passes, (seen, passes)
    # the bound is one a per-H·ψ emission would break
    assert seen["null"] + seen["applies"] > NULL_CALLS_PER_PASS * passes


# -- None / OFF -----------------------------------------------------------------


def test_handle_resolution():
    """``None`` is the off observer, a handle is itself; there is nothing
    to arm and no environment to read."""
    assert observer(None) is OFF
    ins = Instrumentation()
    assert observer(ins) is ins
    for handle in (OFF, ins):
        assert not any(
            hasattr(handle, verb) for verb in ("check", "log", "numerics")
        )
