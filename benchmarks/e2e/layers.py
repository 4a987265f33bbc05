"""Per-layer metrics from one traced run.

Layers are this repo's module names.  Every ``*_s`` metric is *self*
seconds per steady-state step (so the table sums to the traced step
wall); counts are exact per steady-state step.  Which end-to-end metric
each line should move, and on which workload, is tabulated in README.md.
"""

from __future__ import annotations

import math
import statistics

from tracing import METRIC_OF, Span, self_times

STEP_SPAN = "bench.step"

FFT_SPANS = ("PlaneWaveBasis.to_grid", "PlaneWaveBasis.from_grid",
             "PlaneWaveBasis.to_grid_batch", "PlaneWaveBasis.from_grid_batch")
SOLVE_SPANS = ("solve_all_band", "solve_all_band_batched")
APPLY_SPANS = ("Hamiltonian.apply", "BatchedHamiltonian.apply")
EXTRAPOLATE_SPANS = ("extrapolate_fields", "extrapolate_orbitals",
                     "DomainHistory.predict", "DomainHistory.push")

#: every time metric, in table order
TIME_METRICS = tuple(dict.fromkeys(METRIC_OF.values()))


def fft_flops(field_shape) -> float:
    """5·N·log2(N) per 3-D band field (the usual complex-FFT count)."""
    n = math.prod(field_shape[-3:])
    return 5.0 * n * math.log2(n) * math.prod(field_shape[:-3])


def nonlocal_flops(attrs: dict) -> float:
    """Two complex GEMMs (project, expand): 8 real flops per complex MAC."""
    return 16.0 * attrs["npw"] * attrs["nproj"] * attrs["nband"]


def _step_of(span: Span) -> Span | None:
    while span.parent is not None:
        span = span.parent
    return span if span.name == STEP_SPAN else None


def steady_spans(spans: list[Span], steady_from: int):
    """(spans inside steady-state steps, those steps' root spans)."""
    roots = [s for s in spans
             if s.name == STEP_SPAN and s.attrs["k"] >= steady_from]
    keep = {id(r) for r in roots}
    inside = [s for s in spans
              if s.name != STEP_SPAN and id(_step_of(s)) in keep]
    return inside, roots


def layer_metrics(spans: list[Span], steady_from: int) -> dict[str, float]:
    """Every trace-derived per-layer metric (``host.*`` ratios are added by
    the caller once the ceilings are measured)."""
    inside, roots = steady_spans(spans, steady_from)
    n = len(roots)
    selfs = self_times(spans)
    out = {m: 0.0 for m in TIME_METRICS}
    for s in inside:
        out[METRIC_OF[s.name]] += selfs[id(s)] / n

    def per_step(names, weight=lambda s: 1.0):
        return sum(weight(s) for s in inside if s.name in names) / n

    fft_work = per_step(FFT_SPANS, lambda s: fft_flops(s.attrs["field_shape"]))
    nl_work = per_step(("NonlocalProjectors.apply",),
                       lambda s: nonlocal_flops(s.attrs))
    fft_s = out["dft.basis.fft_s"]
    nl_s = out["dft.pseudopotential.nonlocal_s"]
    out.update({
        "dft.basis.fft_calls": per_step(FFT_SPANS),
        "dft.basis.fft_gflops": fft_work / fft_s / 1e9 if fft_s else 0.0,
        "dft.eigensolver.iters": per_step(
            SOLVE_SPANS, lambda s: s.attrs["iterations"]),
        "dft.eigensolver.solves": per_step(
            SOLVE_SPANS, lambda s: s.attrs.get("domains", 1)),
        "dft.hamiltonian.applies": per_step(APPLY_SPANS),
        "dft.pseudopotential.nonlocal_gflops":
            nl_work / nl_s / 1e9 if nl_s else 0.0,
        "core.ldc.scf_passes": per_step(
            ("run_ldc",), lambda s: s.attrs["iterations"]),
        "core.batched.solves": per_step(("batched_domain_pass",)),
        "md.extrapolate.calls": per_step(EXTRAPOLATE_SPANS),
        "multigrid.poisson.solves": per_step(("MultigridPoisson.solve",)),
        "dft.ewald.calls": per_step(("ewald",)),
        "dft.scf.iterations": per_step(
            ("run_scf",), lambda s: s.attrs["iterations"]),
    })
    walls = [r.duration for r in roots]
    step_wall = sum(walls) / n
    out["bench.step_mean_s"] = step_wall
    out["bench.step_median_s"] = statistics.median(walls)
    # what the shims did not see: the step's own self time
    out["bench.unattributed_share"] = (
        sum(selfs[id(r)] for r in roots) / n / step_wall
    )
    return out


def layer_table(metrics: dict[str, float]) -> list[str]:
    """The printed self-time table; its rows sum to the traced step wall."""
    wall = metrics["bench.step_mean_s"]
    rows = sorted(((metrics[m], m) for m in TIME_METRICS), reverse=True)
    rows.append((metrics["bench.unattributed_share"] * wall,
                 "(unattributed)"))
    lines = [f"  {'layer (self time per steady step)':<40}{'s':>10}{'share':>9}"]
    for value, name in rows:
        lines.append(f"  {name:<40}{value:>10.4f}{100 * value / wall:>8.1f}%")
    total = sum(v for v, _ in rows)
    lines.append(f"  {'sum':<40}{total:>10.4f}{100 * total / wall:>8.1f}%")
    lines.append(f"  {'traced step wall':<40}{wall:>10.4f}")
    return lines
