"""Per-phase breakdown reports from Chrome-trace JSON.

Renders the paper-style accounting table (phase | total | calls | mean | %)
from a trace produced by :class:`~repro.observability.tracer.SpanTracer`,
:meth:`Instrumentation.write_trace`, or the :class:`CostTracker` adapter::

    python -m repro.observability.report trace.json
    python -m repro.observability.report trace.json --by cat --top 10

The positional argument also accepts a run directory or a (prefix of a)
ledger run id — the trace is resolved through the run ledger
(:mod:`repro.observability.runlog`), and dropped-subscriber counts
recorded in the manifest are surfaced as warnings::

    python -m repro.observability.report 20260808-143022-qmd-1a2b3c

The percentage column is relative to the trace's wall-clock extent
(max end − min start over the selected events), matching how the paper
reports per-phase fractions of the run (Sec. 4.2).

``--flops`` switches to the roofline-style accounting of Tables 1-2:
per-phase time, estimated FLOPs (attributed from the solve sizes stamped
on spans via :mod:`repro.observability.costattr`), achieved GFLOP/s, and —
with ``--peak-gflops`` — the achieved fraction of peak.

Two views read the *virtual machine* lanes of the trace (the simulated-rank
slices exported under ``pid=2``, stamped with ``seq``/``kind``/``phase``/
``wait`` args by :mod:`repro.observability.cost_trace`):

* ``--comm`` — the communication observatory table: per algorithmic phase,
  compute / transfer / wait rank-seconds, bytes moved, collective calls,
  parallel efficiency, load imbalance, and the laggard rank (the Fig. 5/6
  quantities, measured rather than modeled);
* ``--critical-path`` — the longest dependency chain through the rank
  timelines: which rank's which segment the run is actually waiting on.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any


def resolve_run(arg) -> tuple[pathlib.Path, pathlib.Path | None]:
    """Resolve the CLI's positional argument to ``(trace_path, run_dir)``.

    Accepts a trace file, a run directory (containing ``trace.json``), or a
    ledger run id / unique prefix; ``run_dir`` is ``None`` for a bare file.
    """
    path = pathlib.Path(arg)
    if path.is_dir():
        return path / "trace.json", path
    if path.exists():
        return path, None
    from repro.observability.runlog import find_run

    run_dir = find_run(str(arg))  # raises FileNotFoundError with detail
    return run_dir / "trace.json", run_dir


def _warn_dropped(run_dir: pathlib.Path) -> None:
    """Surface the manifest's dropped-subscriber records on stderr."""
    from repro.observability.runlog import load_manifest

    try:
        manifest = load_manifest(run_dir)
    except (OSError, json.JSONDecodeError):
        return
    dropped = manifest.get("telemetry", {}).get("dropped") or []
    if dropped:
        print(
            f"warning: {len(dropped)} telemetry subscriber(s) were dropped "
            "mid-run; events published after the drop are missing from "
            "the artifacts:",
            file=sys.stderr,
        )
        for entry in dropped:
            sub, err = (list(entry) + ["", ""])[:2]
            print(f"  {sub}: {err}", file=sys.stderr)


def load_trace(path) -> list[dict[str, Any]]:
    """Read a Chrome-trace file; accepts both the object format
    (``{"traceEvents": [...]}``) and the bare JSON-array format."""
    with open(path) as fh:
        data = json.load(fh)
    events = data["traceEvents"] if isinstance(data, dict) else data
    if not isinstance(events, list):
        raise ValueError(f"{path}: not a Chrome trace")
    return events


def duration_events(
    events: list[dict[str, Any]], pid: int | None = None
) -> list[dict[str, Any]]:
    """Complete (``"X"``) events, optionally filtered to one pid."""
    out = []
    for e in events:
        if e.get("ph") != "X":
            continue
        if pid is not None and e.get("pid") != pid:
            continue
        out.append(e)
    return out


def phase_breakdown(
    events: list[dict[str, Any]],
    by: str = "name",
    pid: int | None = None,
) -> dict[str, dict[str, float]]:
    """Aggregate ``"X"`` events by name (or category).

    Returns ``{phase: {"seconds", "calls", "mean", "percent"}}`` sorted by
    descending total, with percent relative to the wall-clock extent.
    """
    evs = duration_events(events, pid=pid)
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


def render_comm(profiler) -> str:
    """The observatory table: per-phase decomposition + per-kind traffic."""
    by_phase = profiler.by_phase()
    width = max([len(p or "(unphased)") for p in by_phase] + [5])
    lines = [
        f"{'phase':<{width}}  {'compute[s]':>11}  {'transfer[s]':>11}  "
        f"{'wait[s]':>11}  {'bytes':>12}  {'calls':>6}  {'eff':>6}  "
        f"{'imbal':>6}  {'laggard':>7}"
    ]
    lines.append("-" * len(lines[0]))
    for phase, agg in sorted(
        by_phase.items(), key=lambda kv: -kv[1]["compute_s"]
    ):
        lines.append(
            f"{phase or '(unphased)':<{width}}  {agg['compute_s']:>11.6f}  "
            f"{agg['transfer_s']:>11.6f}  {agg['wait_s']:>11.6f}  "
            f"{agg['nbytes']:>12.0f}  {agg['calls']:>6d}  "
            f"{agg['efficiency']:>6.3f}  {agg['imbalance']:>6.3f}  "
            f"{agg['laggard']:>7d}"
        )
    by_kind = profiler.by_kind()
    if by_kind:
        lines.append("")
        kwidth = max([len(k) for k in by_kind] + [10])
        lines.append(
            f"{'collective':<{kwidth}}  {'calls':>6}  {'bytes':>12}  "
            f"{'transfer[s]':>11}  {'wait[s]':>11}"
        )
        lines.append("-" * len(lines[-1]))
        for label, agg in sorted(
            by_kind.items(), key=lambda kv: -kv[1]["transfer_s"]
        ):
            lines.append(
                f"{label:<{kwidth}}  {agg['calls']:>6d}  {agg['nbytes']:>12.0f}  "
                f"{agg['transfer_s']:>11.6f}  {agg['wait_s']:>11.6f}"
            )
    lines.append("")
    lines.append(
        f"ranks: {profiler.nranks}   "
        f"parallel efficiency: {profiler.parallel_efficiency():.4f}   "
        f"wait fraction: {profiler.wait_fraction():.4f}   "
        f"total bytes: {profiler.bytes_total:.0f}"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.observability.report",
        description="Per-phase wall-clock breakdown of a Chrome-trace JSON.",
    )
    parser.add_argument(
        "trace",
        help="a trace .json file, a run directory, or a ledger run id",
    )
    parser.add_argument(
        "--by", choices=("name", "cat"), default="name",
        help="aggregate by span name (default) or category",
    )
    parser.add_argument(
        "--pid", type=int, default=None,
        help="restrict to one trace pid (1=real spans, 2=simulated ranks)",
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
    parser.add_argument(
        "--comm", action="store_true",
        help="communication observatory: per-phase compute/transfer/wait, "
             "bytes, efficiency, imbalance, laggard (from the VM lanes)",
    )
    parser.add_argument(
        "--critical-path", action="store_true",
        help="walk the simulated-rank timelines and print the critical "
             "path (the dependency chain the run actually waits on)",
    )
    args = parser.parse_args(argv)

    try:
        trace_path, run_dir = resolve_run(args.trace)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if run_dir is not None:
        _warn_dropped(run_dir)
    try:
        events = load_trace(trace_path)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.comm or args.critical_path:
        from repro.observability.cost_trace import COST_TRACE_PID
        from repro.observability.critpath import (
            critical_path,
            events_from_chrome,
            render_critical_path,
        )

        vm_events, nranks = events_from_chrome(
            events, pid=COST_TRACE_PID if args.pid is None else args.pid
        )
        if not vm_events:
            print(
                "trace contains no virtual-machine events (pid "
                f"{COST_TRACE_PID if args.pid is None else args.pid}); "
                "was the run recorded with an attached CostTracker?",
                file=sys.stderr,
            )
            return 1
        if args.comm:
            from repro.observability.comms import profile_events

            print(render_comm(profile_events(vm_events, nranks)))
            if args.critical_path:
                print()
        if args.critical_path:
            segments = critical_path(vm_events, nranks)
            print(render_critical_path(segments, top=args.top))
        return 0
    if args.flops:
        from repro.observability.costattr import render_roofline, roofline_table

        table = roofline_table(
            duration_events(events, pid=args.pid),
            peak_gflops=args.peak_gflops,
        )
        if not table:
            print("trace contains no duration events")
            return 1
        print(render_roofline(table, top=args.top))
        return 0
    breakdown = phase_breakdown(events, by=args.by, pid=args.pid)
    if not breakdown:
        print("trace contains no duration events")
        return 1
    print(render_breakdown(breakdown, top=args.top))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
