"""The end-to-end QMD benchmark: wall-clock per MD step, and where it went.

Two ways in, one set of definitions (see README.md for the glossary):

``python benchmarks/e2e/run.py [--seed 7] [--workload NAME]... [--out F]``
    The full set: every workload untraced (``--repeats`` runs each,
    interleaved round-robin so host drift hits all alike) for the
    end-to-end metrics, then once traced for the per-layer metrics, then
    ``lial_drift_serial`` once with the program's own instrumentation on.
    Prints every metric by name with its unit, checks the outputs, writes
    the result JSON, exits 1 on a failed check.

``... run.py --workload NAME --seed N --seconds S --trace 0|1``
    One run of one workload (the ``BENCHMARK.json`` contract): the last
    stdout line is one JSON object with ``correct``, ``attempted``,
    ``failed`` and the end-to-end (``--trace 0``) or per-layer
    (``--trace 1``) metrics.

Every workload run is a child process (``worker.py``), one at a time, with
the BLAS/OpenMP pools pinned to one thread: unpinned OpenBLAS on a 2-core
host makes a step 2x slower and doubles its scatter.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
REFERENCE = HERE / "reference_seed7.json"
DEFAULT_SEED = 7

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: set-up samples per driver-mode run (the measuring child is one of them)
SETUP_SAMPLES = 3
E2E_UNITS = {"step_s": "s", "traj_wall_s": "s", "first_step_s": "s",
             "scf_per_step": "count", "setup_s": "s", "peak_rss_mb": "MB"}
#: a traced run whose shims miss more than this share of a step is wrong
MAX_UNATTRIBUTED = 0.01
#: a workload and its ``parity_with`` twin agree to this (Ha) at every index
PARITY_TOL = 1e-10
#: the workload the full set re-runs with the program's instrumentation on
INSTRUMENTED = "lial_drift_serial"
#: |E_total(k) - E_total(0)| per atom allowed on the NVE workload (Ha)
NVE_DRIFT_TOL = 1e-2


def repro_variable(environ) -> str | None:
    """The first ``REPRO_*`` variable set, if any: ``REPRO_BATCH_DOMAINS``,
    ``REPRO_ASPC_DEPTH``, ``REPRO_ADAPTIVE_BUFFER``, ``REPRO_SANITIZE`` and
    ``REPRO_BACKEND`` silently switch the execution path being measured."""
    return next((k for k in sorted(environ) if k.startswith("REPRO_")), None)


def spawn(workload: str, seed: int, seconds: float, *, trace: int = 0,
          instrumented: int = 0, setup_only: bool = False) -> dict:
    """Run one worker to completion and return its record."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--instrumented", str(instrumented),
        "--trace-out", str(RESULTS / f"trace_{workload}.json"),
    ]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.time())]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"worker failed ({done.returncode}): {' '.join(cmd)}")
    return json.loads(done.stdout.splitlines()[-1])


# -- correctness -------------------------------------------------------------

def step_failures(record: dict, reference: list[float] | None = None,
                  twin: dict | None = None) -> dict[int, str]:
    """``step index -> reason`` for every failed step of one run.

    A step fails if its SCF did not converge, energy or forces are not
    finite, the energy jumps off the smooth path its neighbours define,
    the NVE total energy drifts by more than ``NVE_DRIFT_TOL`` per atom,
    the energy differs from the committed reference (default seed only)
    or from the ``parity_with`` twin (``twin``) at the same index.
    """
    failures: dict[int, str] = {}
    steps = record["steps"]
    energy = [s["energy"] for s in steps]
    for s in steps:
        k = s["k"]
        reason = None
        if not s["finite"]:
            reason = "non-finite energy or forces"
        elif not s["converged"]:
            reason = f"SCF not converged in {s['scf_iterations']} iterations"
        elif (record["smooth_tol"] is not None and k >= 2 and abs(
                energy[k] - 2 * energy[k - 1] + energy[k - 2]
        ) > record["smooth_tol"]):
            reason = "energy jumps off the smooth path"
        elif s["total_energy"] is not None and abs(
                s["total_energy"] - steps[0]["total_energy"]
        ) / record["natoms"] > NVE_DRIFT_TOL:
            reason = "NVE total energy drift"
        elif (reference is not None and k < len(reference) and abs(
                s["energy"] - reference[k]) > record["reference_tol"]):
            reason = (f"energy {s['energy']!r} != reference {reference[k]!r}")
        elif (twin is not None and k < len(twin["steps"]) and abs(
                s["energy"] - twin["steps"][k]["energy"]) > PARITY_TOL):
            reason = f"energy != {twin['workload']} energy"
        if reason:
            failures[k] = reason
    return failures


def per_layer(record: dict) -> dict:
    """The per-layer metrics of a traced run: what the worker derived from
    its spans, the NVE drift |E_total(last) - E_total(first)| per atom (0
    off the NVE workload), and the cold-step timings of this run as
    ``bench.*`` diagnostics."""
    first, last = record["steps"][0], record["steps"][-1]
    drift = 0.0
    if first["total_energy"] is not None:
        drift = abs(last["total_energy"] - first["total_energy"]
                    ) / record["natoms"]
    timings = end_to_end([record], [record["setup_s"]])
    return dict(record["layers"], **{
        "md.qmd.nve_drift_ha_per_atom": drift,
        "bench.traj_wall_s": timings["traj_wall_s"],
        "bench.first_step_s": timings["first_step_s"],
    })


def load_reference(seed: int) -> dict[str, list[float]]:
    if seed != DEFAULT_SEED or not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text())["energies"]


# -- aggregation -------------------------------------------------------------

def per_index_min(records: list[dict]) -> list[float]:
    """Fastest wall time seen at each step index over the repeats.

    Inputs are fixed, so the work at index *k* is deterministic and host
    noise only ever adds time: the minimum over repeats is the estimate
    least polluted by it.  With one repeat it is that repeat."""
    n = max(len(r["steps"]) for r in records)
    return [
        min(r["steps"][k]["wall_s"] for r in records if k < len(r["steps"]))
        for k in range(n)
    ]


def end_to_end(records: list[dict], setup_samples: list[float]) -> dict:
    """The end-to-end metrics of one workload from its untraced repeats."""
    best = per_index_min(records)
    first = records[0]
    return {
        "step_s": statistics.fmean(best[first["steady_from"]:]),
        "traj_wall_s": sum(best[:first["min_steps"]]),
        "first_step_s": best[0],
        # a count over the fixed trajectory only, so it repeats exactly for
        # one seed whatever the host did: any repeat will do
        "scf_per_step": statistics.fmean(
            s["scf_iterations"]
            for s in first["steps"][first["steady_from"]:first["min_steps"]]
        ),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }


def leave_one_out(records: list[dict]) -> dict[str, list[float]]:
    """Each metric recomputed with one repeat left out, in turn — how far
    the per-index-minimum estimate still moves with the repeats in hand
    (``compare.py`` calls a row unresolved when that exceeds the bound)."""
    if len(records) < 2:
        return {}
    subsets = [records[:i] + records[i + 1:] for i in range(len(records))]
    rows = [end_to_end(sub, [r["setup_s"] for r in sub]) for sub in subsets]
    return {name: [row[name] for row in rows] for name in rows[0]}


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile that still has ten
    samples beyond it; the median when there are too few samples."""
    ordered = sorted(samples)
    if len(ordered) < 20:
        return 50.0, statistics.median(ordered)
    index = len(ordered) - 11
    return 100.0 * index / (len(ordered) - 1), ordered[index]


# -- the BENCHMARK.json contract: one run of one workload --------------------

def driver_run(args, spec: dict) -> int:
    workload = args.workload[0]
    record = spawn(workload, args.seed, args.seconds, trace=args.trace)
    failures = step_failures(
        record, load_reference(args.seed).get(workload)
    )
    for k, reason in sorted(failures.items()):
        print(f"step {k} failed: {reason}", file=sys.stderr)
    correct = not failures
    if args.trace:
        values = per_layer(record)
        names = spec["per_layer"]
        if values["bench.unattributed_share"] > MAX_UNATTRIBUTED:
            print("unattributed share above limit", file=sys.stderr)
            correct = False
    else:
        setups = [record["setup_s"]] + [
            spawn(workload, args.seed, 0, setup_only=True)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        values = end_to_end([record], setups)
        names = spec["end_to_end"]
    print(json.dumps({
        "correct": correct, "attempted": len(record["steps"]),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in names},
    }))
    return 0


# -- the full set -------------------------------------------------------------

def fingerprint(seed: int, versions: dict, load_start: str) -> dict:
    def git_sha() -> str:
        try:
            return subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return "unknown"  # the driver's checkout is not a repository

    return {
        "git_sha": git_sha(), "nproc": os.cpu_count(), "seed": seed,
        "blas_threads": 1, **versions,
        "loadavg_start": load_start, "loadavg_end": loadavg(),
    }


def loadavg() -> str:
    try:
        return pathlib.Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unknown"


def print_metrics(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:<46}{value:>14.6g} {units.get(name, '')}")


def suite_run(args, spec: dict) -> int:
    import layers

    load_start = loadavg()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    units = dict(E2E_UNITS, **{m["name"]: m["unit"]
                               for m in spec["per_layer"]})
    # a reference about to be rewritten cannot veto its own replacement
    reference = {} if args.update_reference else load_reference(args.seed)

    untraced: dict[str, list[dict]] = {name: [] for name in names}
    for repeat in range(args.repeats):
        for name in names:
            print(f"[untraced {repeat + 1}/{args.repeats}] {name}",
                  file=sys.stderr)
            untraced[name].append(spawn(name, args.seed, args.seconds))
    traced = {}
    for name in names:
        print(f"[traced] {name}", file=sys.stderr)
        traced[name] = spawn(name, args.seed, args.seconds, trace=1)
    instrumented = None
    if INSTRUMENTED in names:
        print(f"[instrumented] {INSTRUMENTED}", file=sys.stderr)
        instrumented = spawn(INSTRUMENTED, args.seed, args.seconds,
                             instrumented=1)

    result = {"workloads": {}, "suite": {}}
    total_failed = 0
    for name in names:
        records = untraced[name]
        twin = untraced.get(records[0]["parity_with"], [None])[0]
        failures: dict[str, str] = {}
        attempted = 0
        for i, record in enumerate(records + [traced[name]]):
            attempted += len(record["steps"])
            for k, reason in step_failures(
                record, reference.get(name), twin
            ).items():
                failures[f"run{i}.step{k}"] = reason
        e2e = end_to_end(records, [r["setup_s"] for r in records])
        loo = leave_one_out(records)
        layer_values = per_layer(traced[name])
        steady = records[0]["steady_from"]
        pooled = [s["wall_s"] for r in records for s in r["steps"][steady:]]
        pct, tail_s = tail(pooled)
        # a single traced (or instrumented) run is compared with what single
        # untraced runs read, not with the per-index minimum over all of them
        single = statistics.median(
            statistics.fmean(s["wall_s"] for s in r["steps"][steady:])
            for r in records)
        bench = {
            "bench.fail_share": len(failures) / attempted,
            "bench.trace_overhead_pct":
                100 * (layer_values["bench.step_mean_s"] / single - 1),
            "bench.noise_ratio": statistics.median(pooled) / e2e["step_s"],
            "bench.pooled_median_s": statistics.median(pooled),
            "bench.pooled_tail_s": tail_s,
            "bench.pooled_tail_percentile": pct,
            "bench.pooled_samples": len(pooled),
        }
        if layer_values["bench.unattributed_share"] > MAX_UNATTRIBUTED:
            failures["traced"] = "unattributed share above limit"
        if name == INSTRUMENTED:
            on = statistics.fmean(
                s["wall_s"] for s in instrumented["steps"][steady:])
            bench["observability.on_overhead_pct"] = 100 * (on / single - 1)
        total_failed += len(failures)

        print(f"\n=== {name}  (seed {args.seed}, {len(records)} repeats) ===")
        print_metrics("end to end (tracing off, per-index minima):",
                      e2e, units)
        print_metrics("per layer (one traced run, per steady-state step):",
                      layer_values, units)
        print("\n".join(layers.layer_table(layer_values)))
        print_metrics("the run itself:", bench, {})
        for where, reason in failures.items():
            print(f"  FAILED {where}: {reason}")
        result["workloads"][name] = {
            "end_to_end": {
                m: {"value": v, "unit": units[m], "leave_one_out":
                    loo.get(m, [])} for m, v in e2e.items()},
            "per_layer": layer_values, "bench": bench,
            "attempted": attempted, "failed": len(failures),
            "failures": failures,
            "per_index_min_s": per_index_min(records),
            "step_wall_s": [[s["wall_s"] for s in r["steps"]]
                            for r in records],
            "energies": [s["energy"] for s in records[0]["steps"]],
            "scf_iterations": [s["scf_iterations"]
                               for s in records[0]["steps"]],
        }

    result["fingerprint"] = fingerprint(
        args.seed, untraced[names[0]][0]["versions"], load_start)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1))
    print(f"\nresults: {args.out}   traces: {RESULTS}/trace_<workload>.json")
    if total_failed:
        print(f"{total_failed} failed checks")
        return 1
    if args.update_reference:
        REFERENCE.write_text(json.dumps({
            "seed": args.seed,
            "energies": {n: result["workloads"][n]["energies"]
                         for n in names},
        }, indent=1))
        print(f"reference rewritten: {REFERENCE}")
    return 0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", action="append", choices=known)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="keep stepping past the fixed trajectory until this"
                    " many seconds of stepping have passed")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="run one workload once and print the result line")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out", type=pathlib.Path,
                    default=RESULTS / "results.json")
    ap.add_argument("--update-reference", action="store_true",
                    help="rewrite reference_seed7.json if every check passes")
    args = ap.parse_args(argv)

    # before NumPy loads anywhere: this process and every child inherit it
    os.environ.update({v: "1" for v in THREAD_VARS})
    offending = repro_variable(os.environ)
    if offending is not None:
        print(f"refusing to run: {offending} is set and would switch the "
              "execution path being measured", file=sys.stderr)
        return 2
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            ap.error("--trace needs exactly one --workload")
        return driver_run(args, spec)
    if args.update_reference and args.seed != DEFAULT_SEED:
        ap.error(f"--update-reference needs --seed {DEFAULT_SEED}")
    return suite_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
