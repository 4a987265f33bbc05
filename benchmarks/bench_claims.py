"""The claims record: every paper number this repo evaluates from a model,
the KMC or a one-off measurement, one row each, labelled with its source.

Eleven artifacts — Figs. 5, 6, 9(a), 9(b), Tables 1-2 and Secs. 4.2, 5.2
(crossover, time-to-solution), 5.4 and 6 — are evaluated here, and each
row of ``BENCH_claims.json`` carries:

* ``artifact`` and ``metric`` — the row's key; a curve point is
  ``metric@point`` (``efficiency@cores=786432``);
* ``value`` and ``paper`` — the repo's number and the paper's (``null``
  where the paper states none);
* ``label`` — where ``value`` comes from, one of :data:`LABELS`:

  - *measured on this engine*: a reading of this package run on this
    host (the LDC prototype, the KMC, the host DGEMM);
  - *model predicted from measured constants*: a model evaluated at
    published hardware or paper inputs; any fitted constant it reads was
    fitted to another number, and is named in ``constants``;
  - *model fitted to this number*: a constant in ``constants`` was set so
    that this row lands on ``paper`` — agreement is a calibration check,
    not a reproduction;
  - *designed-in constant*: the value is an input restated (the paper's
    own bookkeeping, a barrier written into the KMC, a curve's reference
    point);
* ``constants`` — the fitted constants the row depends on.

Every row's tolerance band is declared in ``_schemas.py``
(``SCHEMAS["claims"]``).  The asserts below are the artifacts' shape and
magnitude claims; they run once the record is written.
"""

import time

import numpy as np
from _harness import report
from _schemas import (
    ARRHENIUS_T,
    PARTICLE_PAIRS,
    RACKS,
    SCHEMAS,
    STRONG_CORES,
    WEAK_CORES,
)

from repro.core import LDCOptions, run_ldc
from repro.core.complexity import (
    crossover_length,
    crossover_natoms,
    optimal_core_length,
    speedup_factor,
    total_cost,
)
from repro.parallel.collective_io import CollectiveIOModel
from repro.parallel.machine import BLUE_GENE_Q, XEON_E5_2665
from repro.perfmodel import threading as flop_model
from repro.perfmodel.campaign import (
    PAPER_PRODUCTION,
    PAPER_VERIFICATION,
    plan_campaign,
)
from repro.perfmodel.metrics import (
    PRIOR_ART,
    atom_iterations_per_second,
    speedup_over,
)
from repro.perfmodel.scaling import StrongScalingModel, WeakScalingModel
from repro.perfmodel.threading import (
    flops_table,
    rack_table,
    xeon_portability_estimate,
)
from repro.reactive import kmc
from repro.reactive.analysis import arrhenius_fit, rate_with_error
from repro.reactive.kmc import KMCOptions, run_kmc
from repro.reactive.sites import site_census
from repro.systems import amorphous_cdse, lial_nanoparticle

MEASURED = "measured on this engine"
PREDICTED = "model predicted from measured constants"
FITTED = "model fitted to this number"
DESIGNED = "designed-in constant"
LABELS = (MEASURED, PREDICTED, FITTED, DESIGNED)

# -- the fitted constants, as the rows name them ------------------------------
CALIBRATION = ("domain_time_calibration="
               f"{WeakScalingModel.domain_time_calibration} (441 s/SCF)")
IMBALANCE = ("StrongScalingModel.imbalance_fraction="
             f"{StrongScalingModel.imbalance_fraction}")
SOFTWARE = "WeakScalingModel software overhead 1.05e-3 per log2(P)"
BGQ = (f"BLUE_GENE_Q simd_efficiency={BLUE_GENE_Q.simd_efficiency}, "
       f"issue_efficiency={BLUE_GENE_Q.issue_efficiency}")
STRONG_DILUTION = f"STRONG_DILUTION={flop_model.STRONG_DILUTION}"
WEAK_DILUTION = f"WEAK_DILUTION={flop_model.WEAK_DILUTION}"
RACK_BASE = f"RACK_BASE_FRACTION={flop_model.RACK_BASE_FRACTION}"
XEON = (f"XEON_E5_2665 simd_efficiency={XEON_E5_2665.simd_efficiency}, "
        f"issue_efficiency={XEON_E5_2665.issue_efficiency}")
BARRIER = f"EA_DISSOCIATION={kmc.EA_DISSOCIATION} eV"
ATTEMPT = f"ATTEMPT_FREQUENCY={kmc.ATTEMPT_FREQUENCY:.3g}/s"
IO_MODEL = "CollectiveIOModel defaults (set to keep I/O under 1 % of a run)"


def claim(artifact, metric, value, paper, label, *constants) -> dict:
    """One row of the record; an artifact function returns the row's
    ``(metric, value, paper, label, *constants)``."""
    return {
        "artifact": artifact, "metric": metric, "value": float(value),
        "paper": paper, "label": label, "constants": "; ".join(constants),
    }


def fig5_weak_scaling():
    """Fig. 5: 64·P-atom SiC on P cores; efficiency 0.984 at 786,432."""
    points = WeakScalingModel().curve(WEAK_CORES)
    rows = []
    for p in points:
        at = f"@cores={p.cores}"
        full = p.cores == WEAK_CORES[-1]
        rows += [
            ("natoms" + at, p.natoms, 50_331_648 if full else None,
             DESIGNED),
            ("wall_clock_s" + at, p.wall_clock, None, PREDICTED, CALIBRATION,
             SOFTWARE),
            ("efficiency" + at, p.efficiency, 0.984 if full else None,
             FITTED if full else DESIGNED if p.cores == WEAK_CORES[0]
             else PREDICTED, SOFTWARE),
        ]

    def check():
        full = points[-1]
        assert abs(full.efficiency - 0.984) < 0.01
        assert full.natoms == 50_331_648
        # near-flat wall-clock is the figure's visual claim
        times = [p.wall_clock for p in points]
        assert max(times) / min(times) < 1.05

    return rows, check


def fig6_strong_scaling():
    """Fig. 6: 77,889-atom LiAl-water; speedup 12.85 (0.803) at 16x."""
    model = StrongScalingModel()
    points = model.curve(STRONG_CORES)
    rows = []
    for p in points:
        at = f"@cores={p.cores}"
        full, base = p.cores == STRONG_CORES[-1], p.cores == STRONG_CORES[0]
        label = FITTED if full else DESIGNED if base else PREDICTED
        rows += [
            ("wall_clock_s" + at, p.wall_clock, None, PREDICTED, CALIBRATION,
             IMBALANCE),
            ("speedup" + at, model.speedup(p.cores), 12.85 if full else None,
             label, IMBALANCE),
            ("efficiency" + at, p.efficiency, 0.803 if full else None, label,
             IMBALANCE),
        ]

    def check():
        assert abs(model.speedup(786_432) - 12.85) < 0.8
        # wall-clock must decrease monotonically with cores
        times = [p.wall_clock for p in points]
        assert all(b < a for a, b in zip(times, times[1:]))

    return rows, check


def fig9a_arrhenius():
    """Fig. 9(a): Li30Al30 H2 rate at 300/600/1500 K; E_a 0.068 eV and
    1.04e9 /s per pair at 300 K."""
    particle = lial_nanoparticle(30)
    census = site_census(particle)
    rates = []
    for t in ARRHENIUS_T:
        runs = [
            run_kmc(particle, KMCOptions(temperature=t, max_time=2e-8, seed=s),
                    census)
            for s in range(5)
        ]
        rates.append(rate_with_error(runs)[0])
    fit = arrhenius_fit(ARRHENIUS_T, np.array(rates))
    k300_pair = fit.rate(300.0) / census.n_pairs
    rows = [
        (f"rate_per_pair@T={t:.0f}K", r / census.n_pairs, None, MEASURED,
         BARRIER, ATTEMPT)
        for t, r in zip(ARRHENIUS_T, rates)
    ] + [
        ("activation_mev", fit.activation_ev * 1e3, 68.0, DESIGNED, BARRIER),
        ("r_squared", fit.r_squared, None, MEASURED),
        ("k300_per_pair", k300_pair, 1.04e9, FITTED, ATTEMPT),
    ]

    def check():
        assert abs(fit.activation_ev - 0.068) < 0.025
        assert fit.r_squared > 0.95
        # order-of-magnitude agreement of the absolute 300 K rate
        assert 1e8 < k300_pair < 1e10
        # rates increase with temperature (the figure's visual content)
        assert rates[0] < rates[1] < rates[2]

    return rows, check


def fig9b_size_scaling():
    """Fig. 9(b): the H2 rate per surface atom at 1,500 K is constant
    across particle sizes."""
    raw, normalized, rows = [], [], []
    for n in PARTICLE_PAIRS:
        particle = lial_nanoparticle(n)
        census = site_census(particle)
        runs = [
            run_kmc(particle,
                    KMCOptions(temperature=1500.0, max_time=4e-9, seed=s),
                    census)
            for s in range(4)
        ]
        mean, err = rate_with_error(runs)
        raw.append(mean)
        normalized.append(mean / census.n_surface)
        at = f"@pairs={n}"
        rows += [
            ("n_surface" + at, census.n_surface, None, MEASURED),
            ("rate" + at, mean, None, MEASURED, BARRIER, ATTEMPT),
            ("rate_per_surface" + at, normalized[-1], None, MEASURED,
             BARRIER, ATTEMPT),
            ("stderr_per_surface" + at, err / census.n_surface, None,
             MEASURED),
        ]
    spread = max(normalized) / min(normalized)
    rows.append(("rate_per_surface_spread", spread, None, MEASURED, BARRIER,
                 ATTEMPT))

    def check():
        # the figure's claim: normalized rate constant across sizes (within
        # ~2x here, since the smallest particle has large error bars)
        assert spread < 2.0
        # raw rate must grow with particle size
        assert raw[0] < raw[1] < raw[2]

    return rows, check


def sec42_collective_io():
    """Sec. 4.2: optimal I/O group of 192; a 12-hour run on 786,432 cores
    writes in 99 s (0.23 %) and reads in 9.1 s (0.02 %)."""
    ranks, snapshot, run_seconds = 786_432, 0.5e12, 12 * 3600.0
    model = CollectiveIOModel()
    times = {
        g: model.io_time(snapshot, ranks, g, write=True)
        for g in (1, 4, 16, 48, 96, 192, 384, 1024, 8192, ranks)
    }
    opt_g, opt_t = model.optimal_group_size(snapshot, ranks)
    t_read = model.io_time(snapshot, ranks, opt_g, write=False)
    rows = [
        (metric, value, paper, PREDICTED, IO_MODEL)
        for metric, value, paper in (
            ("optimal_group_size", opt_g, 192.0),
            ("write_time_s", opt_t, 99.0),
            ("read_time_s", t_read, 9.1),
            ("write_percent_of_run", 100 * opt_t / run_seconds, 0.23),
        )
    ]

    def check():
        # optimum is an interior group size, in the paper's neighborhood
        assert 48 <= opt_g <= 1024
        assert times[1] > opt_t
        assert times[ranks] > opt_t
        # I/O stays a sub-percent fraction of the production run
        assert opt_t / run_seconds < 0.01
        assert t_read < opt_t

    return rows, check


#: (tolerance, b_dc, b_ldc, paper speedup at nu = 2, at nu = 3): the
#: buffers of the paper's Fig. 7 discussion at 1e-2 and 5e-3; at 1e-3
#: assumed, not back-solved.  Only the 5e-3 worked example lands on the
#: paper: ``speedup_factor`` gives 4.31 / 8.94 at 1e-2 and 1.93 / 2.68 at
#: 1e-3 for the paper's 2.59 / 4.18 and 1.42 / 1.69, so every row is the
#: model's prediction at its buffers, none a fit
TOLERANCE_TABLE = (
    (1e-2, 5.40, 3.00, 2.59, 4.18),
    (5e-3, 4.72, 3.57, 2.03, 2.89),
    (1e-3, 4.73 * 1.13, 4.20, 1.42, 1.69),
)


def sec52_crossover():
    """Sec. 5.2: LDC/DC speedups at three tolerances (CdSe, l = 11.416
    a.u.) and the O(N) <-> O(N^3) crossover at 125 / 422 atoms."""
    length, density = 11.416, 512 / 45.664**3
    rows, speedups = [], {}
    for tol, b_dc, b_ldc, *papers in TOLERANCE_TABLE:
        for nu, paper in zip((2, 3), papers):
            speedups[tol, nu] = speedup_factor(length, b_dc, b_ldc, float(nu))
            rows.append((
                f"speedup_nu{nu}@{tol:.0e}", speedups[tol, nu], paper,
                PREDICTED, f"nu={nu} (assumed)",
            ))
    crossover = crossover_natoms(3.57, density, 2.0)
    strict = crossover_natoms(3.57 * 1.5, density, 2.0)
    rows += [
        ("crossover_atoms", crossover, 125.0,
              PREDICTED, "nu=2 (assumed)"),
        ("crossover_strict_atoms", strict, 422.0,
              PREDICTED, "nu=2 (assumed)"),
    ]

    def check():
        # the 5e-3 row is the paper's worked example
        assert abs(speedups[5e-3, 2] - 2.03) < 0.05
        assert abs(speedups[5e-3, 3] - 2.89) < 0.1
        assert abs(crossover - 125) < 10
        assert abs(strict - 422) < 30
        # crossover length relation L = 8b for nu = 2
        assert abs(crossover_length(3.0, 2.0) - 24.0) < 1e-9
        # and T(l*) is indeed the minimum
        l_star = optimal_core_length(3.57, 2.0)
        assert (total_cost(l_star, 45.664, 3.57)
                <= total_cost(1.2 * l_star, 45.664, 3.57))

    return rows, check


def sec52_time_to_solution():
    """Sec. 5.2: 441 s per SCF iteration of 50,331,648 atoms on 786,432
    cores = 114,000 atom*iteration/s, 5,800x and 62x over prior art; and
    this package's LDC prototype on this host, on the 16-atom amorphous
    CdSe of Fig. 7."""
    cdse16 = amorphous_cdse((2, 1, 1), displacement=0.3, seed=3)
    opts = LDCOptions(
        ecut=3.0, domains=(2, 1, 1), buffer=1.8, tol=1e-6, max_iter=40,
        kt=0.02, extra_bands=8,
    )
    t0 = time.perf_counter()
    proto = run_ldc(cdse16, opts)
    proto_rate = atom_iterations_per_second(
        len(cdse16), proto.iterations, time.perf_counter() - t0
    )
    weak = WeakScalingModel()
    full = weak.point(786_432)
    projection = atom_iterations_per_second(
        full.natoms, 1, full.wall_clock / weak.scf_per_step
    )
    headline = PRIOR_ART["this_paper"].atom_iterations_per_second
    rows = [
        ("paper_headline_atom_iter_per_s", headline, 114_000.0, DESIGNED),
        ("model_projection_atom_iter_per_s", projection, 114_000.0, FITTED,
         CALIBRATION),
        ("prototype_atom_iter_per_s", proto_rate, None, MEASURED),
        ("prototype_scf_iterations", proto.iterations, None, MEASURED),
        ("speedup_vs_hasegawa2011",
         speedup_over(headline, PRIOR_ART["hasegawa2011"]), 5800.0, DESIGNED),
        ("speedup_vs_oseikuffuor2014",
         speedup_over(headline, PRIOR_ART["oseikuffuor2014"]), 62.0,
         DESIGNED),
    ]

    def check():
        assert abs(headline - 114_000) / 114_000 < 0.01
        # the model projection should land within 3x of the paper's number
        assert 0.33 < projection / headline < 3.0
        assert proto_rate > 0
        assert proto.converged

    return rows, check


def measure_host_gemm(n: int = 1024, repeats: int = 5) -> float:
    """Measured DGEMM GFLOP/s on the present host."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=(n, n))
    b = rng.normal(size=(n, n))
    a @ b  # warm-up
    t0 = time.perf_counter()
    for _ in range(repeats):
        a @ b
    return 2.0 * n**3 * repeats / (time.perf_counter() - t0) / 1e9


def sec54_portability():
    """Sec. 5.4: 217.6 GFLOP/s = 55 % of peak on one dual Xeon E5-2665
    node; this host's DGEMM as the modern analogue."""
    row = xeon_portability_estimate(XEON_E5_2665)
    host = measure_host_gemm()
    rows = [
        ("model_gflops", row.gflops, 217.6, FITTED, XEON),
        ("model_percent_peak", row.percent_peak, 55.0, FITTED, XEON),
        ("host_dgemm_gflops", host, None, MEASURED),
    ]

    def check():
        # the model must land near the paper's 55%-of-peak measurement
        assert abs(row.percent_peak - 55.0) < 6.0
        assert abs(row.gflops - 217.6) / 217.6 < 0.12
        assert host > 1.0  # any real BLAS beats 1 GF/s

    return rows, check


def sec6_production():
    """Sec. 6: 16,661 atoms for 21,140 steps = 129,208 SCF iterations at
    0.242 fs, in ~12-hour sessions on 786,432 cores."""
    plan = plan_campaign(PAPER_PRODUCTION)
    small = plan_campaign(PAPER_VERIFICATION)
    spec = plan.spec
    rows = [
        (metric, value, paper, DESIGNED)
        for metric, value, paper in (
            ("atoms", spec.natoms, 16_661.0),
            ("qmd_steps", spec.nsteps, 21_140.0),
            ("scf_iterations", spec.scf_iterations, 129_208.0),
            ("scf_per_step", spec.scf_per_step, 6.11),
            ("simulated_ps", spec.simulated_ps, None),
        )
    ] + [
        (metric, value, None, PREDICTED, *constants)
        for metric, value, constants in (
            ("seconds_per_scf", plan.seconds_per_scf,
             (CALIBRATION, IMBALANCE)),
            ("campaign_hours", plan.total_hours, (CALIBRATION, IMBALANCE)),
            ("sessions_12h", plan.sessions_12h, (CALIBRATION, IMBALANCE)),
            ("io_seconds_per_session", plan.io_seconds_per_session,
             (IO_MODEL,)),
        )
    ]

    def check():
        # bookkeeping identities from the paper's own numbers
        assert spec.simulated_ps == .242 * 21_140 / 1000
        assert abs(spec.scf_per_step - 6.11) < 0.02
        # the campaign must be feasible: hours, not years, and sessions
        assert 1.0 < plan.total_hours < 2000.0
        assert plan.sessions_12h > 1.0
        # I/O per session stays negligible vs 12 h
        assert plan.io_seconds_per_session < 0.01 * 12 * 3600
        # the smaller verification run costs less per SCF iteration
        assert small.seconds_per_scf < plan.seconds_per_scf

    return rows, check


#: Table 1 (512-atom SiC, 64 MPI ranks): (nodes, threads/core) -> (GFLOP/s,
#: % of peak)
TABLE1 = {
    (4, 1): (236, 28.8), (4, 2): (343, 41.9), (4, 4): (445, 54.3),
    (8, 1): (433, 26.4), (8, 2): (563, 34.4), (8, 4): (746, 45.6),
    (16, 1): (806, 24.6), (16, 2): (1017, 31.0), (16, 4): (1535, 46.8),
}


def table1_threading():
    """Table 1: FLOP/s vs hardware threads per core on Blue Gene/Q."""
    by_key = {(r.nodes, r.threads_per_core): r for r in flops_table()}
    rows = []
    for (nodes, threads), (gflops, percent) in TABLE1.items():
        r, at = by_key[nodes, threads], f"@nodes={nodes},threads={threads}"
        rows += [
            ("gflops" + at, r.gflops, gflops, FITTED, BGQ, STRONG_DILUTION),
            ("percent_peak" + at, r.percent_peak, percent, FITTED, BGQ,
             STRONG_DILUTION),
        ]

    def check():
        for nodes in (4, 8, 16):
            assert (by_key[nodes, 1].gflops < by_key[nodes, 2].gflops
                    < by_key[nodes, 4].gflops)
        for t in (1, 2, 4):
            assert by_key[4, t].percent_peak > by_key[16, t].percent_peak
        # magnitude: within 25 % of every paper cell
        for key, (gflops, _) in TABLE1.items():
            assert abs(by_key[key].gflops - gflops) / gflops < 0.25

    return rows, check


#: Table 2 (weak-scaled SiC, 4 threads/core): racks -> (cores, TFLOP/s, %)
TABLE2 = {1: (16_384, 113.23, 53.99), 2: (32_768, 226.32, 53.96),
          48: (786_432, 5081.0, 50.46)}


def table2_rack_flops():
    """Table 2: FLOP/s on Mira racks; 5.08 PFLOP/s (50.5 %) at 48."""
    table = rack_table(racks=RACKS)
    rows = []
    for racks, r in zip(RACKS, table):
        cores, tflops, percent = TABLE2[racks]
        at = f"@racks={racks}"
        rows += [
            ("cores" + at, r.nodes * 16, cores, DESIGNED),
            ("tflops" + at, r.gflops / 1e3, tflops, FITTED, BGQ, RACK_BASE,
             WEAK_DILUTION),
            ("percent_peak" + at, r.percent_peak, percent, FITTED, BGQ,
             RACK_BASE, WEAK_DILUTION),
        ]

    def check():
        for racks, r in zip(RACKS, table):
            _, tflops, percent = TABLE2[racks]
            assert abs(r.gflops / 1e3 - tflops) / tflops < 0.05
            assert abs(r.percent_peak - percent) < 2.0
        # the paper's headline: 5.08 PFLOP/s, 50.5% of peak at 48 racks
        assert table[-1].gflops / 1e6 > 4.8

    return rows, check


ARTIFACTS = (
    fig5_weak_scaling, fig6_strong_scaling, fig9a_arrhenius,
    fig9b_size_scaling, sec42_collective_io, sec52_crossover,
    sec52_time_to_solution, sec54_portability, sec6_production,
    table1_threading, table2_rack_flops,
)


def test_claims(benchmark):
    evaluated = benchmark.pedantic(
        lambda: [(artifact.__name__, *artifact()) for artifact in ARTIFACTS],
        rounds=1, iterations=1,
    )
    rows = [claim(name, *row) for name, artifact_rows, _ in evaluated
            for row in artifact_rows]
    lines = [f"{'artifact':<23} {'metric':<34} {'value':>11} {'paper':>11}  "
             "label"]
    lines += [
        f"{r['artifact']:<23} {r['metric']:<34} {r['value']:>11.5g} "
        f"{'-' if r['paper'] is None else format(r['paper'], '.5g'):>11}  "
        f"{r['label']}"
        for r in rows
    ]
    schema = SCHEMAS["claims"]
    report("claims", "The claims record — paper vs repo, by source", lines,
           records=rows, schema=schema)

    # every row is labelled and banded, and every band has its row
    assert {r["label"] for r in rows} <= set(LABELS)
    assert {schema.row_key(r) for r in rows} == set(schema.overrides)
    for _, _, check in evaluated:
        check()
