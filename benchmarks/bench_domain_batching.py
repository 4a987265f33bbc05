"""EXP-BATCH — the domain-solve seam at stack width 1 vs a whole shape class.

The paper's Sec. 3.4 converts band-by-band BLAS2 work into blocked BLAS3
kernels; ``repro.core.batched`` lifts the same transformation across the
LDC hierarchy, stacking same-shape domains into ``(n_domains, …)`` kernels
(batched FFT applies, one batched nonlocal GEMM, stacked subspace
``eigh``).  This bench replays the deterministic LiAl QMD trajectory of the
warm-start bench with a 4-domain decomposition, twice, through the one
lockstep solver:

* **width 1** — ``batch_domains=False``: every domain a stack of one;
* **width n** — ``batch_domains=True``: one four-domain shape-class stack
  per SCF pass.

Gated claims: both widths solve the same physics (per-step energies match
to ≤ 1e-10 Ha — by construction exactly, the stacked kernels act on their
slices independently), run the *identical* eigensolver iterations (each
domain retires from its stack at its own iteration), and perform **zero**
stack-pool arena allocations once warm, at both widths — asserted both via
the workspace allocation counter and a tracemalloc trace of the pool's
``np.empty`` call site.  Per-stack FLOPs come from the ``ldc.domain_solve`` span
attribution (``repro.observability.costattr``).  CPU seconds and their
ratio (``speedup``) are ledgered only: with one solver at two kernel sizes
there is no path-vs-path claim left to gate.

The ratio is a property of the host as much as of the code: run it with
``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1``, as ``benchmarks/e2e`` does
(unpinned OpenBLAS on a 2-core host makes both arms ~4x slower in CPU
seconds and puts the ratio below 1).  History of the number, when the
width-1 arm was still a separate per-domain solver: 1.12-1.13 (PR 13),
1.33-1.44 after the staged row-blocked transforms (PR 15), 1.06-1.12 once
both families wrote through pooled ``out=`` stages (PR 16) — the data
behind the executor decision in DESIGN.md section 14.  Iteration counts
since the seam are the lockstep solver's at both widths (the per-domain
solver's were 311/291 on steps 1-2).
"""

import inspect
import linecache
import time
import tracemalloc

import numpy as np
from _harness import fmt_row, report
from _schemas import SCHEMAS

from repro.core import LDCOptions, LDCWorkspace, run_ldc
from repro.core import workspace as workspace_mod
from repro.observability import Instrumentation
from repro.observability.costattr import estimate_event_flops
from repro.systems.lialloy import lial_nanoparticle

_STEP_AMPLITUDE = 0.02
_N_STEPS = 3
_REPS = 2

_OPTS = dict(
    ecut=3.0, domains=(2, 2, 1), buffer=2.0, tol=1e-5, max_iter=40,
    kt=0.02, extra_bands=4,
)


def _trajectory() -> list:
    """A deterministic 3-frame Li₄Al₄ trajectory (seeded random walk)."""
    rng = np.random.default_rng(7)
    frames = []
    pos = None
    for _ in range(_N_STEPS):
        cfg = lial_nanoparticle(4, cell=[13.0, 13.0, 9.0])
        if pos is not None:
            cfg.positions = pos.copy()
        frames.append(cfg)
        pos = cfg.positions + _STEP_AMPLITUDE * rng.standard_normal(
            cfg.positions.shape
        )
    return frames


def _replay(frames, batched: bool):
    """Run the warm trajectory; returns per-step (eig_iters, energy), CPU
    seconds, the workspace, and the arm's domain-solve spans."""
    opts = LDCOptions(**_OPTS, batch_domains=batched)
    ws = LDCWorkspace()
    rho = None
    rows = []
    spans = []
    t0 = time.process_time()
    for cfg in frames:
        ins = Instrumentation()
        r = run_ldc(
            cfg, opts, workspace=ws, rho0=rho, instrumentation=ins,
        )
        assert r.converged
        rho = r.input_density
        eig = ins.metrics.get("eigensolver.iterations", solver="all_band")
        rows.append((int(eig.value), r.energy))
        spans.extend(
            s for s in ins.tracer.spans() if s.name == "ldc.domain_solve"
        )
    return rows, time.process_time() - t0, ws, spans


def _pool_empty_linenos() -> list[int]:
    """Line numbers of the scratch pool's ``np.empty`` allocation sites."""
    src, start = inspect.getsourcelines(workspace_mod.DomainScratch.get)
    return [start + i for i, line in enumerate(src) if "np.empty" in line]


def _warm_pass_pool_allocations(frames, ws: LDCWorkspace, batched: bool) -> int:
    """tracemalloc blocks allocated by the pool during one warm re-solve
    at the stack width ``ws`` was warmed at."""
    opts = LDCOptions(**_OPTS, batch_domains=batched)
    pool_lines = _pool_empty_linenos()
    wsfile = workspace_mod.__file__
    tracemalloc.start()
    try:
        run_ldc(frames[-1], opts, workspace=ws)
        snap = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    count = 0
    for stat in snap.statistics("lineno"):
        frame = stat.traceback[0]
        if frame.filename == wsfile and frame.lineno in pool_lines:
            count += stat.count
    # sanity: the call sites we filtered on actually exist in the source
    assert pool_lines and all(
        "np.empty" in linecache.getline(wsfile, n) for n in pool_lines
    )
    return count


def test_domain_batching_throughput(benchmark):
    frames = _trajectory()

    def replay_both():
        per_domain = min(
            (_replay(frames, batched=False) for _ in range(_REPS)),
            key=lambda r: r[1],
        )
        batch = min(
            (_replay(frames, batched=True) for _ in range(_REPS)),
            key=lambda r: r[1],
        )
        return per_domain, batch

    (pd_rows, t_pd, pd_ws, _), (b_rows, t_b, ws, spans) = benchmark.pedantic(
        replay_both, rounds=1, iterations=1
    )

    speedup = t_pd / t_b
    energy_dev = max(abs(p[1] - b[1]) for p, b in zip(pd_rows, b_rows))
    pd_eig = sum(r[0] for r in pd_rows)
    b_eig = sum(r[0] for r in b_rows)

    # per-shape-class FLOP attribution from the stacked arm's solve spans
    by_class: dict = {}
    for s in spans:
        key = (s.attrs["npw"], s.attrs["nband"], s.attrs["nproj"])
        flop = estimate_event_flops("ldc.domain_solve", s.attrs) or 0.0
        agg = by_class.setdefault(key, [0, 0.0])
        agg[0] += 1
        agg[1] += flop
    total_gflop = sum(f for _, f in by_class.values()) / 1e9

    # scratch reuse: once shapes are warm, re-solving must not grow the
    # pool (counter) nor allocate in the pool at all (tracemalloc), at
    # either width — the solve phase and the densities phase alike
    pool_allocs = alloc_delta = 0
    for arm_ws, batched in ((pd_ws, False), (ws, True)):
        allocs_before = arm_ws.scratch_allocations()
        pool_allocs += _warm_pass_pool_allocations(frames, arm_ws, batched)
        alloc_delta += arm_ws.scratch_allocations() - allocs_before

    lines = [fmt_row("step", "w1 eig", "wn eig", "energy dev",
                     widths=[4, 9, 9, 12])]
    for k, (pdr, br) in enumerate(zip(pd_rows, b_rows)):
        lines.append(fmt_row(k, pdr[0], br[0], abs(pdr[1] - br[1]),
                             widths=[4, 9, 9, 12]))
    lines += [
        "",
        f"wall (CPU): width 1={t_pd:.2f}s width n={t_b:.2f}s "
        f"-> {speedup:.2f}x",
        f"shape classes: {len(by_class)}  attributed "
        f"{total_gflop:.2f} GFLOP over {len(spans)} stacked solves",
        f"warm-pass pool allocations: {pool_allocs} "
        f"(counter delta {alloc_delta})",
    ]
    records = [
        {"metric": "speedup", "value": float(speedup)},
        {"metric": "max_energy_dev_ha", "value": float(energy_dev)},
        {"metric": "perdomain_eig_iters", "value": float(pd_eig)},
        {"metric": "batched_eig_iters", "value": float(b_eig)},
        {"metric": "n_shape_classes", "value": float(len(by_class))},
        {"metric": "batched_solve_gflop", "value": float(total_gflop)},
        {"metric": "warm_pool_allocations", "value": float(pool_allocs)},
        {"metric": "t_perdomain_s", "value": float(t_pd)},
        {"metric": "t_batched_s", "value": float(t_b)},
    ]
    report(
        "domain_batching",
        "Domain-solve seam: stack width 1 vs one shape-class stack (LiAl)",
        lines, records=records, schema=SCHEMAS["domain_batching"],
    )

    # the acceptance claims, asserted at bench time as well as gated
    # against the committed baseline by repro.observability.regress
    assert energy_dev <= 1e-10
    assert b_eig == pd_eig, "a domain's iterations must not depend on its stack"
    assert alloc_delta == 0 and pool_allocs == 0
