"""Interprocedural RP005, the RP008 rule, and the stale-suppression audit.

The first test pins the interprocedural pass: a rank-conditional that
reaches a collective only through helpers is flagged.
"""

from __future__ import annotations

import pathlib

from repro.analysis import check_file, unsuppressed
from repro.analysis.engine import run_paths_full, unused_suppressions

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "analysis"
INTERPROC = FIXTURES / "bad_rp005_interproc.py"


def rp005_rank_findings(findings):
    return [
        f for f in unsuppressed(findings)
        if f.rule == "RP005" and "rank-conditional" in f.message
    ]


# -- collectives reached through helpers ------------------------------------


def test_interprocedural_mode_catches_cross_function_collective():
    findings = rp005_rank_findings(check_file(INTERPROC))
    # reduce_energy (one helper deep) and reduce_energy_deep (two deep)
    assert sorted(f.line for f in findings) == [23, 37]
    by_line = {f.line: f.message for f in findings}
    assert "'reduce_energy'" in by_line[23]
    assert "allreduce" in by_line[23]
    assert "reached through helper(s) 'do_sum'" in by_line[23]
    assert "'reduce_energy_deep'" in by_line[37]
    assert "'deep_reduce'" in by_line[37]


def test_interprocedural_p2p_reports_roots_only():
    findings = [
        f for f in unsuppressed(check_file(INTERPROC))
        if f.rule == "RP005" and "point-to-point" in f.message
    ]
    # paired_exchange balances over its call tree; send_half/recv_half are
    # non-roots; only unbalanced_root (2 sends vs 1 recv) is reported.
    assert len(findings) == 1
    msg = findings[0].message
    assert "'unbalanced_root'" in msg
    assert "2 send(s) vs 1 recv(s)" in msg
    assert "over its call tree" in msg
    assert all("'paired_exchange'" not in f.message for f in findings)


# -- RP008 fixture coverage -------------------------------------------------


def test_rp008_flags_each_nondeterminism_kind():
    findings = [
        f for f in unsuppressed(check_file(FIXTURES / "bad_rp008.py"))
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
