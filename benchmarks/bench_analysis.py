"""BENCH-ANALYSIS — self-lint throughput of the repro.analysis framework.

Times a full `python -m repro.analysis src/` pass (all six file-scope RP
checkers over the whole package) and reports per-file / per-KLOC
throughput.  The self-lint
is part of tier-1, so this pins how much wall-clock the gate costs.
"""

import time

from _harness import fmt_row, report
from _schemas import SCHEMAS

from repro.analysis import all_checkers, iter_python_files, run_paths, unsuppressed

SRC = "src"


def run_self_lint():
    findings = run_paths([SRC])
    files = list(iter_python_files([SRC]))
    nlines = 0
    for path in files:
        with open(path, "r", encoding="utf-8") as fh:
            nlines += sum(1 for _ in fh)
    return findings, len(files), nlines


def test_self_lint_throughput(benchmark):
    (findings, nfiles, nlines) = benchmark.pedantic(
        run_self_lint, rounds=3, warmup_rounds=1
    )
    elapsed = benchmark.stats.stats.mean
    open_findings = unsuppressed(findings)
    nrules = len(all_checkers())

    per_file_ms = 1e3 * elapsed / max(nfiles, 1)
    kloc_per_s = (nlines / 1e3) / elapsed if elapsed > 0 else float("inf")

    lines = [
        fmt_row("files", "KLOC", "rules", "time [s]", "ms/file", "KLOC/s"),
        fmt_row(
            nfiles, nlines / 1e3, nrules, elapsed, per_file_ms, kloc_per_s
        ),
        "",
        f"findings: {len(open_findings)} unsuppressed, "
        f"{len(findings) - len(open_findings)} suppressed",
    ]
    report(
        "analysis",
        "repro.analysis — full self-lint of src/",
        lines,
        records=[
            {
                "files": nfiles,
                "lines": nlines,
                "rules": nrules,
                "seconds": elapsed,
                "ms_per_file": per_file_ms,
                "kloc_per_s": kloc_per_s,
                "unsuppressed_findings": len(open_findings),
            }
        ],
        schema=SCHEMAS["analysis"],
    )

    # The gate must stay clean and cheap: tier-1 runs it on every push.
    assert not open_findings
    assert nrules == 6
    assert elapsed < 30.0


def main():
    t0 = time.perf_counter()
    findings, nfiles, nlines = run_self_lint()
    elapsed = time.perf_counter() - t0
    print(
        f"{nfiles} files / {nlines} lines in {elapsed:.3f} s "
        f"({len(unsuppressed(findings))} unsuppressed findings)"
    )


if __name__ == "__main__":
    main()
