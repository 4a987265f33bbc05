"""EXP-SCF-ASPC — SCF work per MD step: ASPC extrapolation vs. warm start.

PR 4's warm start reuses each domain's *last* converged state; this bench
gates the next rung — the time-reversible ASPC predictor
(:mod:`repro.md.extrapolate`) extrapolating both the per-domain orbitals
and the global density over a depth-3 history window.  A smooth
(constant-velocity) LiAl drift trajectory is replayed through
:class:`~repro.md.qmd.LDCEngine` in two arms:

* **warm** — ``history_depth=1``: the PR 4 last-state warm start;
* **aspc** — ``history_depth=3``: ASPC-predicted seeds (gauge-aligned,
  Löwdin-orthonormalized ψ; nonnegative-clipped ρ).

The extrapolated density is the big lever: the density-mixing loop starts
near the step's fixed point and converges in roughly half the SCF passes,
each of which costs a full sweep of eigensolver iterations.

Gated claims: the ASPC arm cuts post-first-step eigensolver iterations a
further ≥ 15% below the warm arm while solving the same physics (per-step
energies match < 1e-6 Ha), and replaying the ASPC arm with every domain
solved as a stack of one (``batch_domains=False``) instead of as one
shape-class stack reproduces its energies to ≤ 1e-10 (expected: exactly)
with identical iteration counts — the predictor seeds flow through
``DomainState.psi`` whatever the stack width.  Iteration counts are
deterministic; wall times are ledgered only.

Both arms replay a workspace trajectory, so since PR 13 both carry the
SCF quasi-Newton memory (DESIGN.md section 17).  It pays where the ASPC
prediction puts the first residual inside the range the carried secant
pairs were learned over: the aspc arm fell from 250 to 194 eigensolver
iterations over steps 1-5 (4 -> 2 SCF passes on the steady steps), the
warm arm, whose starting residual is ~100x larger, from 546 to 519; the
gated further cut moved from 54.2 % to 62.6 % and the baseline was
re-taken.

With the one domain-solve seam both arms run the lockstep LOBPCG on
shape-class stacks by default (they ran the per-domain solver before); the
thread fan-out replay and its ``parity_threaded_dev_ha`` field went with
the fan-out, and the baseline was re-taken.
"""

import time

import numpy as np
from _harness import fmt_row, report
from _schemas import SCHEMAS

from repro.core import LDCOptions
from repro.md.qmd import LDCEngine, QMDOptions
from repro.observability import Instrumentation
from repro.systems.lialloy import lial_nanoparticle

#: per-step drift (Bohr) along a fixed random direction — a smooth
#: trajectory segment, the regime ASPC extrapolation targets
_STEP_AMPLITUDE = 0.04
_N_STEPS = 6

_OPTS = dict(
    ecut=3.0, domains=(2, 1, 1), buffer=2.0, tol=1e-5, max_iter=40,
    kt=0.02, extra_bands=4,
)


def _trajectory() -> list:
    """A deterministic 6-frame Li₂Al₂ constant-velocity drift."""
    base = lial_nanoparticle(2, cell=[14.0, 14.0, 14.0])
    rng = np.random.default_rng(7)
    direction = rng.standard_normal(base.positions.shape)
    direction /= np.linalg.norm(direction)
    frames = []
    for k in range(_N_STEPS):
        cfg = lial_nanoparticle(2, cell=[14.0, 14.0, 14.0])
        cfg.positions = base.positions + k * _STEP_AMPLITUDE * direction
        frames.append(cfg)
    return frames


def _replay(frames, depth: int, **extra_opts):
    """Drive the trajectory through one LDCEngine; returns per-step
    (eig_iters, scf_passes, energy), the wall time, and the engine."""
    ins = Instrumentation()
    engine = LDCEngine(
        LDCOptions(**_OPTS, **extra_opts),
        instrumentation=ins,
        qmd_options=QMDOptions(history_depth=depth),
    )
    rows = []
    t0 = time.perf_counter()
    for cfg in frames:
        _, energy, scf_passes = engine.forces(cfg)
        eig = ins.metrics.get("qmd.eig_iterations", engine="ldc").values[-1]
        rows.append((int(eig), int(scf_passes), energy))
    return rows, time.perf_counter() - t0, engine


def test_scf_extrapolation_throughput(benchmark):
    frames = _trajectory()

    def replay_all():
        warm = _replay(frames, depth=1)
        aspc = _replay(frames, depth=3)
        one_wide = _replay(frames, depth=3, batch_domains=False)
        return warm, aspc, one_wide

    (
        (warm_rows, t_warm, _),
        (aspc_rows, t_aspc, engine),
        (one_rows, _, _),
    ) = benchmark.pedantic(replay_all, rounds=1, iterations=1)

    # step 0 is cold in every arm; the predictors act from step 1 on
    warm_eig = sum(r[0] for r in warm_rows[1:])
    aspc_eig = sum(r[0] for r in aspc_rows[1:])
    warm_scf = sum(r[1] for r in warm_rows[1:])
    aspc_scf = sum(r[1] for r in aspc_rows[1:])
    further = 100.0 * (1.0 - aspc_eig / warm_eig)
    energy_dev = max(
        abs(w[2] - a[2]) for w, a in zip(warm_rows, aspc_rows)
    )
    bat_dev = max(abs(b[2] - a[2]) for b, a in zip(one_rows, aspc_rows))
    bat_eig_dev = sum(abs(b[0] - a[0]) for b, a in zip(one_rows, aspc_rows))
    residual = engine.workspace.predictor_residual

    lines = [fmt_row("step", "warm eig", "aspc eig", "warm scf", "aspc scf",
                     widths=[4, 9, 9, 9, 9])]
    for k, (w, a) in enumerate(zip(warm_rows, aspc_rows)):
        lines.append(fmt_row(k, w[0], a[0], w[1], a[1],
                             widths=[4, 9, 9, 9, 9]))
    lines += [
        "",
        f"eigensolver iterations (steps 1..{_N_STEPS - 1}): "
        f"warm={warm_eig} aspc={aspc_eig} ({further:.1f}% further cut)",
        f"stack width 1 vs shape class (aspc arm): dev={bat_dev:.2e} Ha, "
        f"eig iteration dev={bat_eig_dev}",
        f"wall: warm={t_warm:.2f}s aspc={t_aspc:.2f}s",
    ]
    records = [
        {"metric": "warm_eig_iters", "value": float(warm_eig)},
        {"metric": "aspc_eig_iters", "value": float(aspc_eig)},
        {"metric": "warm_scf_passes", "value": float(warm_scf)},
        {"metric": "aspc_scf_passes", "value": float(aspc_scf)},
        {"metric": "further_reduction_pct", "value": float(further)},
        {"metric": "max_energy_dev_ha", "value": float(energy_dev)},
        {"metric": "parity_batched_dev_ha", "value": float(bat_dev)},
        {"metric": "parity_eig_iters_dev", "value": float(bat_eig_dev)},
        {"metric": "predictor_residual", "value": float(residual)},
        {"metric": "t_warm_s", "value": float(t_warm)},
        {"metric": "t_aspc_s", "value": float(t_aspc)},
    ]
    report(
        "scf_extrapolation",
        "SCF work per MD step — ASPC extrapolation vs. warm start (LiAl)",
        lines, records=records, schema=SCHEMAS["scf_extrapolation"],
    )

    # the tentpole acceptance claims, asserted at bench time as well as
    # gated against the committed baseline by repro.observability.regress
    assert further >= 15.0, (warm_rows, aspc_rows)
    assert energy_dev < 1e-6
    assert bat_dev <= 1e-10
    assert bat_eig_dev == 0
    assert engine.workspace.warm_domains == 2
    assert engine.workspace.cold_domains == 0
