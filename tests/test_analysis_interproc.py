"""The RP008 rule and the stale-suppression audit."""

from __future__ import annotations

import pathlib

from repro.analysis import run_paths, unsuppressed
from repro.analysis.engine import run_paths_full, unused_suppressions

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "analysis"


# -- RP008 fixture coverage -------------------------------------------------


def test_rp008_flags_each_nondeterminism_kind():
    findings = [
        f for f in unsuppressed(run_paths([FIXTURES / "bad_rp008.py"]))
        if f.rule == "RP008"
    ]
    assert sorted(f.line for f in findings) == [11, 18, 31, 43, 48]
    messages = " | ".join(f.message for f in findings)
    assert "set" in messages  # unordered-set iteration feeding a reduction
    assert "default_rng" in messages
    assert "np.random.rand" in messages or "legacy" in messages
    assert "random.random" in messages


# -- stale-suppression audit -------------------------------------------------


def test_unused_suppressions_reports_stale_entries(tmp_path):
    src = tmp_path / "stale.py"
    src.write_text(
        '"""m"""\n'
        "def f(rho, dv):\n"
        "    rho /= dv  # repro: noqa[RP002,RP004] only RP002 fires\n"
        "    x = 1  # repro: noqa nothing fires here\n"
        "    return rho, x\n"
    )
    run = run_paths_full([src])
    stale = unused_suppressions(run.findings, run.noqa_by_file)
    assert len(stale) == 2
    by_line = {s.line: s for s in stale}
    assert by_line[3].rules == ("RP004",)
    assert by_line[4].rules == ("*",)
    assert "unused suppression" in by_line[4].format()


def test_live_suppressions_are_not_reported():
    run = run_paths_full([FIXTURES / "suppressed.py"])
    assert not unused_suppressions(run.findings, run.noqa_by_file)
