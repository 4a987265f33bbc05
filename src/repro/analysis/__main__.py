"""CLI: ``python -m repro.analysis [paths...]``.

Exit codes: 0 clean (or suppressed-only), 1 unsuppressed findings,
2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.engine import (
    all_checkers,
    run_paths_full,
    unsuppressed,
    unused_suppressions,
)
from repro.analysis.reporters import render_json, render_text


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Physics-aware static analysis for the repro codebase.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyse (default: src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore", default=None,
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--show-suppressed", action="store_true",
        help="include suppressed findings in text output",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--unused-noqa", action="store_true",
        help="also report stale '# repro: noqa[...]' suppressions (they "
        "count toward the exit code)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for checker in all_checkers():
            print(f"{checker.rule}  {checker.name}: {checker.description}")
        return 0

    run = run_paths_full(
        args.paths,
        select=args.select.split(",") if args.select else None,
        ignore=args.ignore.split(",") if args.ignore else None,
    )
    findings = run.findings
    if args.format == "json":
        print(render_json(findings))
    else:
        print(render_text(findings, show_suppressed=args.show_suppressed))
    stale = (
        unused_suppressions(findings, run.noqa_by_file)
        if args.unused_noqa
        else []
    )
    for item in stale:
        print(item.format())
    return 1 if (unsuppressed(findings) or stale) else 0


if __name__ == "__main__":
    sys.exit(main())
