"""BENCH-OBS — communication & scaling observatory.

Two ledgers for the comm-profiling subsystem:

* ``comm_observatory`` — the Fig. 5 weak-scaling ladder replayed through a
  16-lane virtual machine with a deterministic per-rank skew, profiled from
  its event log by :func:`profile_events`.  Pins the *measured* (event-log) parallel
  efficiency, wait fraction, and critical-path communication fraction per
  ladder point, plus the accounting identity (``reconcile_rel_err``) that
  makes the ``--comm`` report agree with ``CostTracker.elapsed()``.
* ``comm_observatory_overhead`` — the zero-overhead contract: a charge
  loop must execute *no* observability code (counted via ``sys.setprofile``
  and pinned exactly at zero), with its host wall-clock ledgered for the
  record.  The charge path has no observer to dispatch to, so the pin
  holds by construction; profiling happens after the run.
"""

import sys
import time

import numpy as np

from _harness import fmt_row, report
from _schemas import SCHEMAS

from repro.observability.comms import profile_events
from repro.observability.critpath import measured_efficiency
from repro.parallel.trace import CostTracker
from repro.perfmodel.scaling import WeakScalingModel

CORE_COUNTS = [16, 64, 256, 1024, 4096, 16_384, 65_536, 262_144, 786_432]
NRANKS = 16       # VM lanes replaying each ladder point
STEPS = 3         # QMD steps per replay
SKEW = 0.05       # deterministic per-rank imbalance on the domain solves

HALO_BYTES = 64 * 1024.0
TREE_BYTES = 8 * 1024.0


def replay_point(breakdown):
    """Replay one ladder point's modeled phase breakdown on the VM.

    Domain solves get a fixed ±2.5% linear skew across ranks (so waits are
    non-zero but fully deterministic); halo, tree, and the software
    overhead term are synchronizing all-rank charges — only the domain
    solve counts as *useful* compute, which is what lets the measured
    efficiency decay along the ladder exactly like the Fig. 5 model.
    """
    tracker = CostTracker(NRANKS)
    factors = 1.0 + SKEW * (np.arange(NRANKS) / (NRANKS - 1) - 0.5)
    for _ in range(STEPS):
        with tracker.phase("domain"):
            for rank in range(NRANKS):
                tracker.charge_compute(
                    [rank], breakdown["domain"] * float(factors[rank]),
                    label="ldc solve",
                )
        with tracker.phase("halo"):
            tracker.charge_collective(
                None, breakdown["halo"], nbytes=HALO_BYTES, label="halo",
            )
        with tracker.phase("tree"):
            tracker.charge_collective(
                None, breakdown["tree"], nbytes=TREE_BYTES, label="gather",
            )
        with tracker.phase("software"):
            tracker.charge_collective(
                None, breakdown["software"], label="overhead",
            )
    return profile_events(tracker.events, NRANKS), tracker


def run_ladder():
    model = WeakScalingModel()
    out = []
    for cores in CORE_COUNTS:
        point = model.point(cores)
        prof, tracker = replay_point(point.breakdown)
        out.append((cores, point, prof, tracker))
    return out


def test_comm_observatory_ladder(benchmark):
    ladder = benchmark(run_ladder)
    lines = [fmt_row("cores", "eff(model)", "eff(meas)", "wait_frac",
                     "comm_frac", "reconcile")]
    records = []
    for cores, point, prof, tracker in ladder:
        eff = measured_efficiency(tracker)
        rec = {
            "cores": cores,
            "efficiency_measured": float(eff["efficiency"]),
            "wait_fraction": float(prof.wait_fraction()),
            "critical_comm_fraction": float(eff["critical_comm_fraction"]),
            "reconcile_rel_err": float(prof.reconcile(tracker)),
        }
        records.append(rec)
        lines.append(fmt_row(
            cores, point.efficiency, rec["efficiency_measured"],
            rec["wait_fraction"], rec["critical_comm_fraction"],
            rec["reconcile_rel_err"],
        ))
        # the accounting identity: compute + wait + transfer == clocks
        assert rec["reconcile_rel_err"] < 1e-12
        # the skew makes the last lane the laggard of every domain phase
        assert prof.by_phase()["domain"]["laggard"] == NRANKS - 1
        assert 0.0 < rec["efficiency_measured"] <= 1.0
    # communication (and the waits it induces) grows with the tree fan-in,
    # so the measured efficiency decays monotonically along the ladder
    effs = [r["efficiency_measured"] for r in records]
    assert all(a >= b for a, b in zip(effs, effs[1:]))
    report(
        "comm_observatory",
        "communication observatory — measured weak-scaling ladder",
        lines, records=records, schema=SCHEMAS["comm_observatory"],
    )


def _charge_loop(tracker, n):
    for i in range(n):
        tracker.charge_compute([i % NRANKS], 1e-3, label="work")


def test_comm_observatory_overhead():
    n = 2000

    # count observability frames entered by the charge loop
    counts = {"observability": 0}

    def hook(frame, event, arg):
        if event == "call" and "observability" in frame.f_code.co_filename:
            counts["observability"] += 1

    bare = CostTracker(NRANKS)
    sys.setprofile(hook)
    try:
        _charge_loop(bare, n)
    finally:
        sys.setprofile(None)

    # time the loop without the hook (host wall-clock, ledger only)
    t0 = time.perf_counter()
    _charge_loop(CostTracker(NRANKS), n)
    t_unprofiled = time.perf_counter() - t0

    lines = [
        fmt_row("events", "obs calls", "t_bare[s]"),
        fmt_row(n, counts["observability"], t_unprofiled),
    ]
    records = [
        {"metric": "observability_calls_unprofiled",
         "value": float(counts["observability"])},
        {"metric": "events_charged", "value": float(n)},
        {"metric": "t_unprofiled_s", "value": t_unprofiled},
    ]
    report(
        "comm_observatory_overhead",
        "communication observatory — zero-overhead contract",
        lines, records=records,
        schema=SCHEMAS["comm_observatory_overhead"],
    )
    assert counts["observability"] == 0
    # the log holds every charge for a profile built after the run
    prof = profile_events(bare.events, NRANKS)
    assert prof.calls_total == n
    assert prof.bytes_total == 0.0  # compute moves no bytes
