"""Per-kernel FLOP cost attribution for tracer spans.

The drivers stamp their solve spans with the *sizes* of the work they did
(``npw``, ``nband``, ``grid_points``, ``fft_stages``, ``nproj``,
``cg_iterations`` for eigensolves — ``fft_stages`` being the basis's staged
transform line counts, so pruned FFT lines are not credited; a span
without it is counted as dense 3-D transforms; ``grid_points``, ``cycles``,
``sweeps`` for multigrid solves).
This module turns those sizes into FLOP estimates using the operation
counts of :mod:`repro.perfmodel.flops` — the same model behind the paper's
Tables 1-2 %-of-peak accounting — *at report time*, so the attribution
costs nothing while the simulation runs.

:func:`estimate_event_flops` maps one Chrome-trace event (or span) to its
estimated FLOPs; :func:`roofline_table` aggregates a trace into the
paper-style per-phase accounting (time, est. FLOPs, achieved GFLOP/s and,
given a peak, the achieved fraction)::

    python -m repro.observability.report trace.json --flops
    python -m repro.observability.report trace.json --flops --peak-gflops 50
"""

from __future__ import annotations

from typing import Any, Callable

from repro.perfmodel.flops import domain_scf_flops, multigrid_vcycle_flops


def _eigensolve_flops(args: dict[str, Any]) -> float | None:
    npw = args.get("npw")
    nband = args.get("nband")
    grid_points = args.get("grid_points")
    if not npw or not nband or not grid_points:
        return None
    return domain_scf_flops(
        npw=int(npw),
        nband=int(nband),
        grid_points=int(grid_points),
        nproj=int(args.get("nproj") or 0),
        cg_iterations=max(int(args.get("cg_iterations") or 1), 1),
        fft_stages=args.get("fft_stages"),
    ).total


def _domain_solve_flops(args: dict[str, Any]) -> float | None:
    """One stack of LDC domain solves (``ldc.domain_solve``).

    The span's ``cg_iterations`` is the *sum* over the stack's
    ``n_domains`` members, so the per-iteration FFT/nonlocal/subspace terms
    of :func:`domain_scf_flops` already count the whole stack; only the
    per-solve orthonormalization setup must be repeated ``n_domains``
    times.  A span without ``n_domains`` is one domain.
    """
    counts_total = _eigensolve_flops(args)
    if counts_total is None:
        return None
    n_domains = max(int(args.get("n_domains") or 1), 1)
    ortho = domain_scf_flops(
        npw=int(args["npw"]),
        nband=int(args["nband"]),
        grid_points=int(args["grid_points"]),
        nproj=int(args.get("nproj") or 0),
        cg_iterations=1,
    ).orthonormalization
    return counts_total + (n_domains - 1) * ortho


def _poisson_flops(args: dict[str, Any]) -> float | None:
    grid_points = args.get("grid_points")
    if not grid_points:
        return None
    cycles = max(int(args.get("cycles") or 1), 1)
    sweeps = int(args.get("sweeps") or 4)
    return cycles * multigrid_vcycle_flops(int(grid_points), sweeps=sweeps)


#: span name → FLOP estimator over the span's attribute dict.  Returning
#: ``None`` means "sizes missing, cannot attribute" (the span predates the
#: attribution contract or was recorded by other tooling).
ESTIMATORS: dict[str, Callable[[dict[str, Any]], float | None]] = {
    "scf.eigensolve": _eigensolve_flops,
    "ldc.domain_solve": _domain_solve_flops,
    # the stacked solves' span name before the one seam; kept so that old
    # traces still attribute
    "ldc.batched_solve": _domain_solve_flops,
    "poisson.solve": _poisson_flops,
}


def estimate_event_flops(name: str, args: dict[str, Any] | None) -> float | None:
    """Estimated FLOPs of one trace event; ``None`` when not attributable."""
    fn = ESTIMATORS.get(name)
    if fn is None or not args:
        return None
    try:
        return fn(args)
    except (TypeError, ValueError):
        return None


def roofline_table(
    events: list[dict[str, Any]],
    peak_gflops: float | None = None,
) -> dict[str, dict[str, float | None]]:
    """Aggregate Chrome ``"X"`` events into a per-phase cost table.

    Returns ``{phase: {seconds, calls, est_gflop, gflops, fraction_of_peak,
    attributed_calls}}`` sorted by descending time.  ``gflops`` and
    ``fraction_of_peak`` are ``None`` for phases with no attributable spans
    (or when no peak is given, for the fraction).
    """
    totals: dict[str, dict[str, float]] = {}
    for e in events:
        if e.get("ph") != "X":
            continue
        name = str(e.get("name", "?"))
        rec = totals.setdefault(
            name, {"us": 0.0, "calls": 0, "flop": 0.0, "attributed": 0}
        )
        rec["us"] += float(e.get("dur", 0.0))
        rec["calls"] += 1
        flops = estimate_event_flops(name, e.get("args"))
        if flops is not None:
            rec["flop"] += flops
            rec["attributed"] += 1
    out: dict[str, dict[str, float | None]] = {}
    for name in sorted(totals, key=lambda n: -totals[n]["us"]):
        rec = totals[name]
        seconds = rec["us"] / 1e6
        attributed = int(rec["attributed"])
        gflop = rec["flop"] / 1e9 if attributed else None
        gflops = (
            gflop / seconds if gflop is not None and seconds > 0 else None
        )
        out[name] = {
            "seconds": seconds,
            "calls": int(rec["calls"]),
            "attributed_calls": attributed,
            "est_gflop": gflop,
            "gflops": gflops,
            "fraction_of_peak": (
                gflops / peak_gflops
                if gflops is not None and peak_gflops
                else None
            ),
        }
    return out


def render_roofline(
    table: dict[str, dict[str, float | None]],
    top: int | None = None,
) -> str:
    """Fixed-width roofline-style accounting table."""
    rows = list(table.items())
    if top is not None:
        rows = rows[:top]
    width = max([len(k) for k, _ in rows] + [5])
    header = (
        f"{'phase':<{width}}  {'total[s]':>12}  {'calls':>7}  "
        f"{'est GFLOP':>12}  {'GFLOP/s':>10}  {'% peak':>7}"
    )
    lines = [header, "-" * len(header)]
    for name, rec in rows:
        gflop = "-" if rec["est_gflop"] is None else f"{rec['est_gflop']:.3f}"
        rate = "-" if rec["gflops"] is None else f"{rec['gflops']:.2f}"
        frac = (
            "-"
            if rec["fraction_of_peak"] is None
            else f"{100.0 * rec['fraction_of_peak']:.2f}"
        )
        lines.append(
            f"{name:<{width}}  {rec['seconds']:>12.6f}  {rec['calls']:>7d}  "
            f"{gflop:>12}  {rate:>10}  {frac:>7}"
        )
    return "\n".join(lines)
