"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric): both values, the ratio B/A
(base: A), the bound (from ``BENCHMARK.json``; ``FULL_SET_ONLY`` for the
wall-clock timings only full sets can hold), the spread of the estimate,
and a verdict:

``ok``          B is no worse than A by more than the bound
``worse``       B is worse than A by more than the bound
``unresolved``  the spread is wider than the bound, so the row can show
                neither — unless every estimate of B beats every estimate
                of A, which is ``ok``

The spread is the interquartile distance of a file's leave-one-repeat-out
estimates as a share of its value (the wider of the two files).  A
workload with more failed checks in B than in A is ``worse`` too.  Exit
code 1 on any ``worse``.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
#: ``BENCHMARK.json`` gates single runs, whose wall-clock readings spread
#: 10-30 % on the bench host; full sets (per-index minima over interleaved
#: repeats) hold 10 %, so the timings are compared here
FULL_SET_ONLY = (
    {"name": "step_s", "better": "lower", "bound": 0.10},
    {"name": "traj_wall_s", "better": "lower", "bound": 0.10},
    {"name": "first_step_s", "better": "lower", "bound": 0.10},
)


def spread(entry: dict) -> float:
    values = entry["leave_one_out"]
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / entry["value"]


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    if max(spread(a), spread(b)) > bound:
        runs_a = [sign * v for v in a["leave_one_out"] + [a["value"]]]
        runs_b = [sign * v for v in b["leave_one_out"] + [b["value"]]]
        return "ok" if max(runs_b) < min(runs_a) else "unresolved"
    worse_by = sign * (b["value"] - a["value"]) / a["value"]
    return "worse" if worse_by > bound else "ok"


def compare(a: dict, b: dict, spec: dict) -> list[tuple]:
    """Rows ``(workload, metric, A, B, ratio, bound, spread, verdict)``."""
    rows = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for m in spec["end_to_end"] + list(FULL_SET_ONLY):
            ea, eb = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            rows.append((
                name, m["name"], ea["value"], eb["value"],
                eb["value"] / ea["value"], m["bound"],
                max(spread(ea), spread(eb)),
                verdict(ea, eb, m["better"], m["bound"]),
            ))
        rows.append((
            name, "failed", wa["failed"], wb["failed"], float("nan"), 0.0,
            0.0, "worse" if wb["failed"] > wa["failed"] else "ok",
        ))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(pathlib.Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(a, b, spec)
    print(f"{'workload':<22}{'metric':<14}{'A':>12}{'B':>12}"
          f"{'B/A':>8}{'bound':>7}{'spread':>8}  verdict")
    for name, metric, va, vb, ratio, bound, spr, word in rows:
        print(f"{name:<22}{metric:<14}{va:>12.5g}{vb:>12.5g}"
              f"{ratio:>8.3f}{bound:>7.2f}{spr:>8.3f}  {word}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
