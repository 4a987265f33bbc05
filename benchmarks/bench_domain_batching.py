"""EXP-BATCH — domain-batched BLAS3 kernels vs the per-domain LDC path.

The paper's Sec. 3.4 converts band-by-band BLAS2 work into blocked BLAS3
kernels; ``repro.core.batched`` lifts the same transformation across the
LDC hierarchy, stacking same-shape domains into ``(n_domains, …)`` kernels
(batched FFT applies, one batched nonlocal GEMM, stacked subspace
``eigh``).  This bench replays the deterministic LiAl QMD trajectory of the warm-start
bench with a 4-domain decomposition, twice:

* **per-domain** — PR 4's path: each active domain solved on its own
  (``batch_domains=False``, pinned so the CI batched matrix leg cannot
  flip this arm);
* **batched** — the same trajectory with ``batch_domains=True``: one
  shape-class stack per SCF pass.

Gated claims: the batched arm wins wall-clock (speedup > 1), solves the
same physics (per-step energies match to ≤ 1e-10 Ha — in practice 1e-14),
runs the *identical* eigensolver iterations (the lockstep stack retires
each domain at its serial iteration), and performs **zero** scratch-pool
array allocations once warm — asserted both via the workspace allocation
counter and a tracemalloc trace of the pool's ``np.empty`` call sites.
Per-shape-class FLOPs come from the ``ldc.batched_solve`` span attribution
(``repro.observability.costattr``).  Wall times are ledgered only;
speedup gates on decrease with a noise band.

The speedup is a property of the host as much as of the code: run it with
``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1``, as ``benchmarks/e2e`` does.
On the 2-core PR 13 host unpinned OpenBLAS makes both arms ~4x slower in
CPU seconds and puts the ratio below 1 (0.89 at the parent commit, 0.96
with PR 13); pinned it is 1.12 -> 1.13, against the 1.39 of the host the
first baseline came from.  The baseline was re-taken pinned in PR 13,
whose SCF memory (both arms replay a workspace trajectory) lowered the
eigensolver-iteration counts of steps 1-2 from 317/298 to 311/291.

PR 15 moved the two kernel families differently and the baseline was
re-taken again (pinned, same host): with the staged, row-blocked
transforms CPU seconds fell 4.73 -> 3.63 per-domain and 3.91 -> 2.59
batched (the parent's stacked FFTs burned a second scipy worker thread
for no wall-clock return), so the ratio reads 1.33-1.44 over four runs
(1.40 committed; parent 1.21 the same day).  ``batched_solve_gflop`` fell
6.02 -> 3.44 because the FLOP attribution now counts the staged
transform's lines, not dense 3-D FFTs; iteration counts are unchanged.

PR 16 put both families on one transform library with pooled ``out=``
stages, and the ratio left its band downwards with both arms faster: the
per-domain arm was the one paying the page-fault churn of fresh stage
outputs, so CPU seconds fell 3.86-3.96 -> 2.47-2.95 per-domain and
2.70-2.81 -> 2.30-2.65 batched (parent the same day 1.39 / 1.43 / 1.45,
change 1.06 / 1.07 / 1.12 / 1.12).  Baseline re-taken at 1.07 (pinned, same
host); what is left of the stacked path's lead is its subspace algebra,
and ``speedup > 1`` now holds by a few per cent only -- the number
ROADMAP's ``ldc_workers`` vs ``batch_domains`` decision is waiting for
(EXPERIMENTS.md EXP-HOTPATH-NUMPY).
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
    seconds, the workspace, and the batched arm's solve spans."""
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
        rho = r.density
        eig = ins.metrics.get("eigensolver.iterations", solver="all_band")
        rows.append((int(eig.value), r.energy))
        spans.extend(
            s for s in ins.tracer.spans() if s.name == "ldc.batched_solve"
        )
    return rows, time.process_time() - t0, ws, spans


def _pool_empty_linenos() -> list[int]:
    """Line numbers of the scratch pool's ``np.empty`` allocation sites."""
    src, start = inspect.getsourcelines(workspace_mod.DomainScratch.get)
    return [start + i for i, line in enumerate(src) if "np.empty" in line]


def _warm_pass_pool_allocations(frames, ws: LDCWorkspace) -> int:
    """tracemalloc blocks allocated by the pool during one warm re-solve."""
    opts = LDCOptions(**_OPTS, batch_domains=True)
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

    (pd_rows, t_pd, _, _), (b_rows, t_b, ws, spans) = benchmark.pedantic(
        replay_both, rounds=1, iterations=1
    )

    speedup = t_pd / t_b
    energy_dev = max(abs(p[1] - b[1]) for p, b in zip(pd_rows, b_rows))
    pd_eig = sum(r[0] for r in pd_rows)
    b_eig = sum(r[0] for r in b_rows)

    # per-shape-class FLOP attribution from the batched solve spans
    by_class: dict = {}
    for s in spans:
        key = (s.attrs["npw"], s.attrs["nband"], s.attrs["nproj"])
        flop = estimate_event_flops("ldc.batched_solve", s.attrs) or 0.0
        agg = by_class.setdefault(key, [0, 0.0])
        agg[0] += 1
        agg[1] += flop
    total_gflop = sum(f for _, f in by_class.values()) / 1e9

    # scratch reuse: once shapes are warm, re-solving must not grow the
    # pool (counter) nor allocate in the pool at all (tracemalloc)
    allocs_before = ws.scratch_allocations()
    pool_allocs = _warm_pass_pool_allocations(frames, ws)
    alloc_delta = ws.scratch_allocations() - allocs_before

    lines = [fmt_row("step", "pd eig", "batch eig", "energy dev",
                     widths=[4, 9, 9, 12])]
    for k, (pdr, br) in enumerate(zip(pd_rows, b_rows)):
        lines.append(fmt_row(k, pdr[0], br[0], abs(pdr[1] - br[1]),
                             widths=[4, 9, 9, 12]))
    lines += [
        "",
        f"wall (CPU): per-domain={t_pd:.2f}s batched={t_b:.2f}s "
        f"-> {speedup:.2f}x",
        f"shape classes: {len(by_class)}  attributed "
        f"{total_gflop:.2f} GFLOP over {len(spans)} batched solves",
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
        "Domain-batched BLAS3 kernels vs per-domain LDC solves (LiAl)",
        lines, records=records, schema=SCHEMAS["domain_batching"],
    )

    # the tentpole acceptance claims, asserted at bench time as well as
    # gated against the committed baseline by repro.observability.regress
    assert speedup > 1.0, (t_pd, t_b)
    assert energy_dev <= 1e-10
    assert b_eig == pd_eig, "lockstep stack must match serial iterations"
    assert alloc_delta == 0 and pool_allocs == 0
