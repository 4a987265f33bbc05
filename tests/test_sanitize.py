"""The runtime sanitizer layer: the numerics tripwires in the real drivers
(armed through ``Instrumentation(numerics=...)``), the ``REPRO_SANITIZE``
spec, and the contract of the disabled path: no frame of
``repro/sanitize`` is entered.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

from repro.core.ldc import LDCOptions, make_global_grid, run_ldc
from repro.dft.scf import SCFOptions, run_scf
from repro.observability import Instrumentation
from repro.observe import OFF
from repro.sanitize import NumericsError, NumericsSanitizer, from_spec
from repro.systems import dimer

LDC_OPTS = LDCOptions(ecut=4.0, tol=1e-3, max_iter=3, domains=(1, 1, 1))
SCF_OPTS = SCFOptions(ecut=4.0, tol=1e-3, max_iter=4)


def h2():
    return dimer("H", "H", 1.5, 12.0)


# -- a clean run under every sanitizer ------------------------------------------


def test_parallel_ldc_run_passes_under_full_sanitizers():
    """A two-domain LDC solve with every sanitizer armed: a clean run
    stays clean (no false positives) and the checkpoints fire."""
    numerics = from_spec("all")
    result = run_ldc(
        h2(),
        LDCOptions(ecut=4.0, tol=1e-3, max_iter=3, domains=(2, 1, 1)),
        instrumentation=Instrumentation(numerics=numerics),
    )
    assert np.isfinite(result.energy)
    assert numerics.checks > 0


# -- numerics tripwires in the real drivers ----------------------------------


def test_nan_in_density_update_is_caught_in_run_ldc():
    cfg = h2()
    grid = make_global_grid(cfg, LDC_OPTS)
    rho0 = np.full(grid.shape, 0.01)
    rho0[0, 0, 0] = np.nan
    armed = Instrumentation(numerics=NumericsSanitizer())
    with pytest.raises(NumericsError) as exc:
        run_ldc(cfg, LDC_OPTS, rho0=rho0, instrumentation=armed)
    msg = str(exc.value)
    assert "'rho0'" in msg and "ldc.init" in msg
    assert "NaN/Inf" in msg


def test_nan_in_density_update_is_caught_in_run_scf():
    cfg = h2()
    armed = Instrumentation(numerics=NumericsSanitizer())
    ok = run_scf(cfg, SCF_OPTS, instrumentation=armed)  # clean run passes
    assert ok.iterations > 0 and armed.numerics.checks > 0
    rho0 = np.full_like(ok.density, 0.01)
    rho0[0, 0, 0] = np.inf
    with pytest.raises(NumericsError):
        run_scf(cfg, SCF_OPTS, rho0=rho0, instrumentation=armed)


def test_numerics_collect_mode_records_instead_of_raising():
    san = NumericsSanitizer(mode="collect")
    san.check("rho", np.array([1.0, np.nan]), where="test")
    san.check("psi", np.ones(4, dtype=np.float32), expect_dtype=np.float64)
    assert len(san.events) == 2
    assert "dtype demotion" in san.events[1]


def test_numerics_demotion_rules():
    san = NumericsSanitizer()
    with pytest.raises(NumericsError):
        san.check("psi", np.ones(2, dtype=np.float64),
                  expect_dtype=np.complex128)
    san.check("rho", np.ones(2, dtype=np.float64), expect_dtype=np.float32)
    san.check("n", np.ones(2, dtype=np.int64), expect_dtype=np.int64)


# -- spec parsing -------------------------------------------------------------


def test_from_spec_off_values_return_none():
    for spec in ("", "0", "off", "none", "false", "  OFF  "):
        assert from_spec(spec) is None


def test_from_spec_all_and_subsets():
    for spec in ("1", "all", "on", "true", "numerics", " Numerics "):
        assert isinstance(from_spec(spec), NumericsSanitizer)
    with pytest.raises(ValueError):
        from_spec("numerics,typo")
    # the race sanitizer went with the thread fan-out it guarded, the
    # collective one with the SPMD emulation
    for gone in ("race", "collective", "collective,numerics"):
        name = gone.split(",")[0]
        with pytest.raises(ValueError, match=f"unknown sanitizer.*{name}"):
            from_spec(gone)


# -- the zero-overhead contract ----------------------------------------------


def _count_sanitize_calls(fn):
    """Calls entering ``repro/sanitize`` modules during ``fn()``."""
    needle = os.sep + "sanitize" + os.sep
    counts = {"sanitize": 0, "total": 0}

    def profiler(frame, event, arg):
        if event == "call":
            counts["total"] += 1
            if needle in frame.f_code.co_filename:
                counts["sanitize"] += 1

    sys.setprofile(profiler)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return counts, result


def test_disabled_path_executes_zero_sanitizer_code():
    # OFF, not None: off whatever REPRO_SANITIZE the surrounding CI job
    # exported
    cfg = h2()
    counts, result = _count_sanitize_calls(
        lambda: run_ldc(cfg, LDC_OPTS, instrumentation=OFF)
    )
    assert counts["total"] > 0  # the profiler actually saw the run
    assert counts["sanitize"] == 0
    counts, _ = _count_sanitize_calls(
        lambda: run_scf(cfg, SCF_OPTS, instrumentation=OFF)
    )
    assert counts["sanitize"] == 0
    assert result.iterations > 0


def test_enabled_path_does_enter_sanitizer_code():
    """Sanity check that the counter would catch regressions."""
    cfg = h2()
    armed = Instrumentation(numerics=NumericsSanitizer())
    counts, _ = _count_sanitize_calls(
        lambda: run_ldc(cfg, LDC_OPTS, instrumentation=armed)
    )
    assert counts["sanitize"] > 0
    assert armed.numerics.checks > 0
