"""Tier-1 gate: the full checker suite runs clean over ``src/repro``.

This is the contract the CI ``analysis`` job enforces; keeping it in the
test suite means a PR cannot reintroduce a dtype upcast, an undocumented
argument mutation, shared mutable state, a hand-typed constant, a leaked
span or an unseeded RNG without either fixing it or leaving an auditable
``# repro: noqa[RULE]`` justification.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

from repro.analysis import all_checkers, run_paths, unsuppressed

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"


def test_all_rules_registered():
    rules = {c.rule for c in all_checkers()}
    assert rules == {
        "RP001", "RP002", "RP003", "RP004", "RP006", "RP008",
    }


def test_source_tree_is_clean():
    findings = run_paths([SRC])
    bad = unsuppressed(findings)
    assert not bad, "unsuppressed findings:\n" + "\n".join(
        f.format() for f in bad
    )


def test_constants_table_matches_repro_constants():
    """The checker's embedded table must not drift from repro.constants."""
    import repro.constants as constants
    from repro.analysis.checkers.units import KNOWN_CONSTANTS

    for symbol, value in KNOWN_CONSTANTS.items():
        assert getattr(constants, symbol) == value, symbol


def test_cli_exit_codes_and_json(tmp_path):
    """End-to-end: the module CLI exits 0 on clean input, 1 on findings."""
    clean = tmp_path / "clean.py"
    clean.write_text('"""ok"""\nX = 1\n')
    dirty = tmp_path / "dirty.py"
    dirty.write_text('"""bad"""\ndef f(x=[]):\n    return x\n')

    env_src = str(REPO / "src")
    base = [sys.executable, "-m", "repro.analysis"]

    ok = subprocess.run(
        base + [str(clean)], capture_output=True, text=True,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
    )
    assert ok.returncode == 0, ok.stdout + ok.stderr
    assert "clean" in ok.stdout

    bad = subprocess.run(
        base + [str(dirty), "--format", "json"], capture_output=True,
        text=True, env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
    )
    assert bad.returncode == 1, bad.stdout + bad.stderr
    import json

    doc = json.loads(bad.stdout)
    assert doc["ok"] is False
    assert doc["counts"].get("RP003") == 1
    assert doc["findings"][0]["rule"] == "RP003"
