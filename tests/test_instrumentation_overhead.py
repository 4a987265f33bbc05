"""Regression test: the disabled-instrumentation path costs nothing.

The drivers' contract is that ``instrumentation=None`` (the default)
executes *zero* observability code — every telemetry statement sits behind
an ``if instrumentation is not None`` guard.  We enforce it with
``sys.setprofile``: during an uninstrumented SCF run, no Python call may
enter a function defined in ``repro/observability``.
"""

import sys


from repro.core import LDCOptions, LDCWorkspace, run_ldc
from repro.dft.scf import SCFOptions, run_scf
from repro.observability import Instrumentation
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
        first = run_ldc(cfg, opts, workspace=ws)
        return run_ldc(cfg, opts, workspace=ws, rho0=first.density)

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
    assert len(ins.metrics.get("scf.residual", engine="pw").values) > 0


def test_disabled_timer_import_not_triggered_in_hot_loop():
    """The ``Timer`` adapter (which does allocate spans) must not be on the
    SCF hot path: the uninstrumented run allocates no Span objects."""
    from repro.observability.tracer import Span

    cfg = dimer("H", "H", 1.5, 12.0)
    before = sys.getrefcount(Span)
    run_scf(cfg, OPTS)
    after = sys.getrefcount(Span)
    assert after == before
