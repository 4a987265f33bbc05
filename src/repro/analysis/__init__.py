"""Physics-aware static analysis for the repro codebase (DESIGN.md §9).

A small AST-visitor framework plus six codebase-specific, file-scope rules
(RP001–RP004, RP006, RP008) covering the defect classes that silently
corrupt large QMD runs: dtype upcasts in BLAS3 hot paths, undocumented
in-place argument mutation, shared mutable state, hand-typed physical
constants, telemetry misuse, and SPMD nondeterminism.

Run it as ``python -m repro.analysis src/`` (CI does) or from code::

    from repro.analysis import run_paths, unsuppressed
    findings = run_paths(["src/repro"])
    assert not unsuppressed(findings)

Per-line suppression: ``# repro: noqa[RP002] <why>``.
"""

from repro.analysis.engine import (
    CHECKERS,
    Checker,
    FileContext,
    Finding,
    all_checkers,
    iter_python_files,
    register,
    run_paths,
    unsuppressed,
)
from repro.analysis.reporters import render_json, render_text

__all__ = [
    "CHECKERS",
    "Checker",
    "FileContext",
    "Finding",
    "all_checkers",
    "iter_python_files",
    "register",
    "render_json",
    "render_text",
    "run_paths",
    "unsuppressed",
]
