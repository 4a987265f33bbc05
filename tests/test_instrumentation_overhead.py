"""Regression test: what the un-instrumented path executes.

The drivers call one observability handle unconditionally (DESIGN.md §21);
``instrumentation=None`` (the default) gives them the off observer of
``repro/observe.py``, whose verbs do nothing.  Pinned here with
``sys.setprofile``: an un-instrumented run enters no function defined in
``repro/observability`` or ``repro/sanitize``, never computes a
telemetry-only value, makes no handle call from inside a kernel, and makes
a bounded number of no-op calls per SCF pass.  The second half pins how
``None`` / ``OFF`` / ``Instrumentation(numerics=)`` / ``REPRO_SANITIZE``
resolve.
"""

import sys

import pytest

from repro.core import LDCOptions, LDCWorkspace, run_ldc
from repro.dft.scf import SCFOptions, run_scf
from repro.observability import Instrumentation
from repro.observe import OFF, env_numerics, observer
from repro.sanitize import NumericsSanitizer
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
    """The uninstrumented run allocates no Span objects (the null span of
    the off observer is one shared object of another class)."""
    from repro.observability.tracer import Span

    cfg = dimer("H", "H", 1.5, 12.0)
    before = sys.getrefcount(Span)
    run_scf(cfg, OPTS)
    after = sys.getrefcount(Span)
    assert after == before



# -- what off executes --------------------------------------------------------


@pytest.fixture()
def environment(monkeypatch):
    """Call it with a spec to put ``REPRO_SANITIZE`` there (``None``:
    unset) and forget the process's one resolution of it; starts unset,
    forgets again on the way out."""

    def set_spec(spec):
        if spec is None:
            monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        else:
            monkeypatch.setenv("REPRO_SANITIZE", spec)
        env_numerics.cache_clear()

    set_spec(None)
    yield set_spec
    env_numerics.cache_clear()


#: No-op handle calls one SCF pass (the final consistent pass counted as
#: one) may make in the two-domain, stack-of-one run below: measured 57.2
#: (515 over 9 passes) — 13 from the loop, 9 + 3 per domain from the
#: global half of the pass (its boundary-error sample, eigenvalue share and
#: ``band_densities`` checkpoint), 13 per domain solve (its span and
#: ``record_solve``), the rest per run (10 of them the five
#: ``ldc.workspace_bytes`` gauges).  The same run applies H 15.8 times per
#: pass: one emission per ``H·ψ`` would read 74.
NULL_CALLS_PER_PASS = 60


def test_off_path_is_a_bounded_number_of_null_calls_outside_the_kernels(
    environment,
):
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
        if "repro/observability/" in filename or "repro/sanitize/" in filename:
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
        second = run_ldc(cfg, opts, workspace=ws, rho0=first.density)
    finally:
        sys.setprofile(None)
    passes = first.iterations + second.iterations + 2  # + the final passes
    assert seen["total"] > 0 and seen["null"] > 0  # the profiler saw the run
    assert seen["tooling"] == 0
    assert seen["kernel"] == 0
    assert seen["null"] <= NULL_CALLS_PER_PASS * passes, (seen, passes)
    # the bound is one a per-H·ψ emission would break
    assert seen["null"] + seen["applies"] > NULL_CALLS_PER_PASS * passes


# -- None / OFF / Instrumentation(numerics=) / REPRO_SANITIZE ------------------


def test_handle_resolution(environment):
    cfg = dimer("H", "H", 1.5, 12.0)
    assert observer(None) is OFF and OFF.numerics is None
    ins = Instrumentation()
    assert observer(ins) is ins and ins.numerics is None

    environment("numerics")
    armed = env_numerics()
    assert isinstance(armed, NumericsSanitizer)
    run_scf(cfg, OPTS)  # None: the environment arms the checkpoints
    fired = armed.checks
    assert fired > 0
    run_scf(cfg, OPTS, instrumentation=OFF)  # OFF is off whatever it says
    assert armed.checks == fired
    # an Instrumentation without numerics= defers to the environment ...
    assert Instrumentation().numerics is armed
    # ... and one with numerics= does not
    own = NumericsSanitizer()
    run_scf(cfg, OPTS, instrumentation=Instrumentation(numerics=own))
    assert own.checks > 0 and armed.checks == fired


def test_environment_is_resolved_once_and_a_malformed_spec_is_an_error(
    environment, monkeypatch
):
    cfg = dimer("H", "H", 1.5, 12.0)
    environment("numerics")
    armed = observer(None).numerics
    assert armed is not None
    # read once per process: a later change of the variable has no effect
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert observer(None).numerics is armed
    environment("collective,typo")
    with pytest.raises(ValueError, match="unknown sanitizer.*typo"):
        run_scf(cfg, OPTS)
    with pytest.raises(ValueError, match="unknown sanitizer.*typo"):
        run_ldc(cfg, LDCOptions(ecut=4.0, domains=(1, 1, 1), max_iter=2))
