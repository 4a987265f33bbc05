"""One workload run in a process of its own (started by ``run.py``).

The load is a closed loop with one client: set the session up, then run
one step at a time until ``min_steps`` steps are done *and* ``--seconds``
of stepping have passed.  The raw per-step record (wall seconds, energy,
SCF iterations, convergence) goes to stdout as one JSON line; aggregation
and the correctness verdicts happen in the parent.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import resource
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

#: a time-bounded run never drifts further than this many frames
MAX_STEPS = 40


def run_steps(session, min_steps: int, seconds: float, recorder=None,
              noise=None) -> list[dict]:
    steps = []
    begin = time.perf_counter()
    k = 0
    # past the fixed trajectory, take another step only if one as long as
    # the last still ends inside the time budget
    while k < min_steps or (
        k < MAX_STEPS
        and time.perf_counter() - begin + steps[-1]["wall_s"] <= seconds
    ):
        if recorder is not None:
            noise.sample()
            span = recorder.begin("bench.step", ())
        t0 = time.perf_counter()
        out = session.step(k)
        wall = time.perf_counter() - t0
        if recorder is not None:
            recorder.end(span, {"k": k})
        steps.append({
            "k": k, "wall_s": wall, "energy": float(out.energy),
            "total_energy": out.total_energy,
            "scf_iterations": int(out.scf_iterations),
            "converged": bool(out.converged),
            "finite": bool(np.isfinite(out.energy)
                           and np.all(np.isfinite(out.forces))),
        })
        k += 1
    return steps


def traced_layers(recorder, noise, workload, trace_path) -> dict:
    """Per-layer metrics of a traced run, host ceilings included."""
    import calibrate
    import layers
    import tracing

    spans = recorder.spans
    metrics = layers.layer_metrics(spans, workload.steady_from)
    inside, _ = layers.steady_spans(spans, workload.steady_from)

    def dominant(names, work):
        """Attributes of the span shape that did the most work."""
        totals: dict[tuple, float] = {}
        for s in inside:
            if s.name in names:
                key = tuple(sorted(s.attrs.items()))
                totals[key] = totals.get(key, 0.0) + work(s)
        return dict(max(totals, key=totals.get)) if totals else None

    fft = dominant(layers.FFT_SPANS,
                   lambda s: layers.fft_flops(s.attrs["field_shape"]))
    nl = dominant(("NonlocalProjectors.apply",),
                  lambda s: layers.nonlocal_flops(s.attrs))
    nl = nl or {"npw": 617, "nproj": 3, "nband": 7}  # stacked-path default
    host_fft = calibrate.fft_gflops(fft["field_shape"])
    host_zgemm = calibrate.zgemm_gflops(nl["npw"], nl["nproj"], nl["nband"])
    metrics.update({
        "host.fft_gflops": host_fft,
        "host.zgemm_gflops": host_zgemm,
        "host.dgemm_gflops": calibrate.dgemm_gflops(),
        "host.kernel_cv": noise.cv(),
        "dft.basis.fft_ceiling_ratio":
            metrics["dft.basis.fft_gflops"] / host_fft,
        "dft.pseudopotential.nonlocal_ceiling_ratio":
            metrics["dft.pseudopotential.nonlocal_gflops"] / host_zgemm,
    })
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracing.write_chrome_trace(
        spans, trace_path,
        {"workload": workload.name, "calibrated_fft_shape": fft["field_shape"],
         "calibrated_zgemm_shape": nl},
    )
    return metrics


def blas_library() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--instrumented", type=int, choices=(0, 1), default=0,
                    help="attach a default repro Instrumentation()")
    ap.add_argument("--t0", type=float, required=True,
                    help="time.time() when the parent started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", type=pathlib.Path)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    recorder = noise = patches = ins = None
    if args.trace:
        import calibrate
        import tracing

        recorder = tracing.SpanRecorder()
        noise = calibrate.NoiseSampler()
        patches = tracing.install(recorder)
    if args.instrumented:
        from repro.observability import Instrumentation

        ins = Instrumentation()
    session = workload.setup(args.seed, ins)
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "instrumented": args.instrumented,
        "setup_s": time.time() - args.t0,
        "min_steps": workload.min_steps, "steady_from": workload.steady_from,
        "reference_tol": workload.reference_tol,
        "smooth_tol": workload.smooth_tol, "natoms": workload.natoms,
        "parity_with": workload.parity_with,
    }
    if not args.setup_only:
        record["steps"] = run_steps(
            session, workload.min_steps, args.seconds, recorder, noise
        )
        if args.trace:
            tracing.remove(patches)
            record["layers"] = traced_layers(
                recorder, noise, workload, args.trace_out
            )
        record["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        record["versions"] = {
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_library(),
        }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
