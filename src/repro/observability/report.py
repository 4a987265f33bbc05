"""Per-phase breakdown reports from Chrome-trace JSON.

Renders the paper-style accounting table (phase | total | calls | mean | %)
from a trace produced by :class:`~repro.observability.tracer.SpanTracer` or
:meth:`Instrumentation.write_trace`::

    python -m repro.observability.report trace.json
    python -m repro.observability.report trace.json --by cat --top 10
    python -m repro.observability.report trace.json --flops

The positional argument also accepts a run directory
(``telemetry/runs/<run_id>/``, :mod:`repro.observability.runlog`).

The percentage column is relative to the trace's wall-clock extent
(max end − min start over the spans), matching how the paper
reports per-phase fractions of the run (Sec. 4.2).

``--flops`` switches to the roofline-style accounting of Tables 1-2:
per-phase time, estimated FLOPs (attributed from the solve sizes stamped
on spans via :mod:`repro.observability.costattr`), achieved GFLOP/s, and —
with ``--peak-gflops`` — the achieved fraction of peak.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any


def resolve_trace(arg) -> pathlib.Path:
    """Resolve the CLI's positional argument to a trace path: a trace file,
    or a run directory (containing ``trace.json``)."""
    path = pathlib.Path(arg)
    return path / "trace.json" if path.is_dir() else path


def load_trace(path) -> list[dict[str, Any]]:
    """Read a Chrome-trace file; accepts both the object format
    (``{"traceEvents": [...]}``) and the bare JSON-array format."""
    with open(path) as fh:
        data = json.load(fh)
    events = data["traceEvents"] if isinstance(data, dict) else data
    if not isinstance(events, list):
        raise ValueError(f"{path}: not a Chrome trace")
    return events


def duration_events(events: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """The complete (``"X"``) events: every measured span."""
    return [e for e in events if e.get("ph") == "X"]


def phase_breakdown(
    events: list[dict[str, Any]],
    by: str = "name",
) -> dict[str, dict[str, float]]:
    """Aggregate ``"X"`` events by name (or category).

    Returns ``{phase: {"seconds", "calls", "mean", "percent"}}`` sorted by
    descending total, with percent relative to the wall-clock extent.
    """
    evs = duration_events(events)
    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    t0 = float("inf")
    t1 = float("-inf")
    for e in evs:
        key = str(e.get(by) or e.get("name") or "?")
        dur = float(e.get("dur", 0.0))
        ts = float(e.get("ts", 0.0))
        totals[key] = totals.get(key, 0.0) + dur
        counts[key] = counts.get(key, 0) + 1
        t0 = min(t0, ts)
        t1 = max(t1, ts + dur)
    wall_us = max(t1 - t0, 0.0) if evs else 0.0
    out: dict[str, dict[str, float]] = {}
    for key in sorted(totals, key=lambda k: -totals[k]):
        sec = totals[key] / 1e6
        out[key] = {
            "seconds": sec,
            "calls": counts[key],
            "mean": sec / counts[key],
            "percent": 100.0 * totals[key] / wall_us if wall_us > 0 else 0.0,
        }
    return out


def render_breakdown(
    breakdown: dict[str, dict[str, float]], top: int | None = None
) -> str:
    """The paper-style fixed-width table."""
    rows = list(breakdown.items())
    if top is not None:
        rows = rows[:top]
    width = max([len(k) for k, _ in rows] + [5])
    lines = [
        f"{'phase':<{width}}  {'total[s]':>12}  {'calls':>7}  "
        f"{'mean[s]':>12}  {'% wall':>7}"
    ]
    lines.append("-" * len(lines[0]))
    for key, rec in rows:
        lines.append(
            f"{key:<{width}}  {rec['seconds']:>12.6f}  {rec['calls']:>7d}  "
            f"{rec['mean']:>12.6f}  {rec['percent']:>7.2f}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.observability.report",
        description="Per-phase wall-clock breakdown of a Chrome-trace JSON.",
    )
    parser.add_argument(
        "trace",
        help="a trace .json file or a run directory",
    )
    parser.add_argument(
        "--by", choices=("name", "cat"), default="name",
        help="aggregate by span name (default) or category",
    )
    parser.add_argument(
        "--top", type=int, default=None, help="show only the N largest phases"
    )
    parser.add_argument(
        "--flops", action="store_true",
        help="roofline-style table: per-phase time, estimated FLOPs "
             "(from repro.perfmodel.flops), achieved GFLOP/s",
    )
    parser.add_argument(
        "--peak-gflops", type=float, default=None,
        help="machine peak used for the %% of peak column in --flops mode",
    )
    args = parser.parse_args(argv)

    try:
        events = load_trace(resolve_trace(args.trace))
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.flops:
        from repro.observability.costattr import render_roofline, roofline_table

        table = roofline_table(
            duration_events(events),
            peak_gflops=args.peak_gflops,
        )
        if not table:
            print("trace contains no duration events")
            return 1
        print(render_roofline(table, top=args.top))
        return 0
    breakdown = phase_breakdown(events, by=args.by)
    if not breakdown:
        print("trace contains no duration events")
        return 1
    print(render_breakdown(breakdown, top=args.top))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
