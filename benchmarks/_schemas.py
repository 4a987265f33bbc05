"""Declared record schemas for every benchmark in the suite.

Each benchmark passes ``records=`` rows plus its schema from this module to
``_harness.report``; the harness validates the rows *at report time* (a
schema violation fails the bench) and embeds the schema in the
``BENCH_<name>.json`` payload so ``python -m repro.observability.regress``
can gate fresh results against ``benchmarks/baselines/`` without importing
any benchmark code.

Three shapes are used:

* **tabular** — keyed rows mirroring a paper figure (Fig. 7 keyed by
  ``(mode, buffer)``);
* **metric** — ``{"metric": name, "value": x}`` rows for benches whose
  output is a handful of headline scalars, with per-metric tolerance bands
  via :attr:`RecordSchema.overrides`;
* **claims** — the one record of every modelled paper number
  (``bench_claims.py``), keyed by ``(artifact, metric)`` with a band per
  row.

Band policy: deterministic model/physics outputs get tight bands (drift
either way is a real change); error norms and iteration counts gate only
on *increase* (``direction="lower"``); efficiencies/speedups gate only on
*decrease* (``"higher"``); host-dependent timings are ``compare=False`` —
ledgered, never gated.
"""

from __future__ import annotations

from repro.observability.regress import FieldSpec, RecordSchema, metric_value


def _metric_schema(bench: str, metrics: dict[str, dict]) -> RecordSchema:
    """Metric-style schema: one band declaration per headline scalar."""
    return RecordSchema(
        bench=bench,
        fields=metric_value(),
        key=("metric",),
        overrides={m: {"value": kw} for m, kw in metrics.items()},
    )


_EXACT = {"direction": "both", "rel_tol": 0.0, "abs_tol": 0.0}
_MODEL = {"direction": "both", "rel_tol": 0.01}  # deterministic perf model
_TIMING = {"compare": False}  # host wall-clock: ledger only


# -- the claims record (bench_claims.py) ------------------------------------
#: the curve points the claims record evaluates, one row per point
WEAK_CORES = (16, 64, 256, 1024, 4096, 16_384, 65_536, 262_144, 786_432)
STRONG_CORES = (49_152, 98_304, 196_608, 393_216, 786_432)
ARRHENIUS_T = (300.0, 600.0, 1500.0)
PARTICLE_PAIRS = (30, 135, 441)
RACKS = (1, 2, 48)

_HIGHER = {"direction": "higher", "rel_tol": 0.01}
_KMC = {"direction": "both", "rel_tol": 0.1}


def _points(stems: dict[str, dict], points: list[str]) -> dict[str, dict]:
    """``metric@point`` bands: every stem at every point."""
    return {f"{m}@{p}": band for p in points for m, band in stems.items()}


#: artifact -> metric -> band of ``value``
_CLAIM_BANDS: dict[str, dict[str, dict]] = {
    "fig5_weak_scaling": _points(
        {"natoms": _EXACT, "wall_clock_s": _MODEL,
         "efficiency": {"direction": "higher", "rel_tol": 0.005,
                        "abs_tol": 1e-3}},
        [f"cores={p}" for p in WEAK_CORES],
    ),
    "fig6_strong_scaling": _points(
        {"wall_clock_s": _MODEL, "speedup": _HIGHER, "efficiency": _HIGHER},
        [f"cores={p}" for p in STRONG_CORES],
    ),
    "fig9a_arrhenius": {
        **_points({"rate_per_pair": _KMC},
                  [f"T={t:.0f}K" for t in ARRHENIUS_T]),
        "activation_mev": {"direction": "both", "abs_tol": 5.0,
                           "rel_tol": 0.0},
        "r_squared": {"direction": "higher", "abs_tol": 0.02, "rel_tol": 0.0},
        "k300_per_pair": {"direction": "both", "rel_tol": 0.2},
    },
    "fig9b_size_scaling": {
        **_points({"n_surface": _EXACT, "rate": _KMC,
                   "rate_per_surface": _KMC, "stderr_per_surface": _TIMING},
                  [f"pairs={n}" for n in PARTICLE_PAIRS]),
        "rate_per_surface_spread": _KMC,
    },
    "sec42_collective_io": {
        "optimal_group_size": _EXACT,
        "write_time_s": _MODEL,
        "read_time_s": _MODEL,
        "write_percent_of_run": {"direction": "lower", "rel_tol": 0.0,
                                 "abs_tol": 0.01},
    },
    "sec52_crossover": {
        **_points({"speedup_nu2": {"direction": "both", "rel_tol": 0.001},
                   "speedup_nu3": {"direction": "both", "rel_tol": 0.001}},
                  ["1e-02", "5e-03", "1e-03"]),
        "crossover_atoms": _MODEL,
        "crossover_strict_atoms": _MODEL,
    },
    "sec52_time_to_solution": {
        "paper_headline_atom_iter_per_s": _EXACT,
        "model_projection_atom_iter_per_s": _MODEL,
        "prototype_atom_iter_per_s": _TIMING,
        "prototype_scf_iterations": {"direction": "lower", "rel_tol": 0.0,
                                     "abs_tol": 2.0},
        "speedup_vs_hasegawa2011": _MODEL,
        "speedup_vs_oseikuffuor2014": _MODEL,
    },
    "sec54_portability": {
        "model_gflops": _MODEL,
        "model_percent_peak": {"direction": "both", "rel_tol": 0.0,
                               "abs_tol": 0.5},
        "host_dgemm_gflops": _TIMING,
    },
    "sec6_production": {
        "atoms": _EXACT, "qmd_steps": _EXACT, "scf_iterations": _EXACT,
        "scf_per_step": {"direction": "both", "rel_tol": 0.0,
                         "abs_tol": 0.01},
        "simulated_ps": _EXACT, "seconds_per_scf": _MODEL,
        "campaign_hours": _MODEL, "sessions_12h": _MODEL,
        "io_seconds_per_session": _MODEL,
    },
    "table1_threading": _points(
        {"gflops": _MODEL, "percent_peak": _MODEL},
        [f"nodes={n},threads={t}" for n in (4, 8, 16) for t in (1, 2, 4)],
    ),
    "table2_rack_flops": _points(
        {"cores": _EXACT, "tflops": _MODEL, "percent_peak": _MODEL},
        [f"racks={r}" for r in RACKS],
    ),
}


SCHEMAS: dict[str, RecordSchema] = {
    # -- every modelled paper number, labelled with its source ------------------
    "claims": RecordSchema(
        bench="claims",
        key=("artifact", "metric"),
        fields=[
            FieldSpec("artifact", kind="str", compare=False),
            FieldSpec("metric", kind="str", compare=False),
            FieldSpec("value", **_MODEL),
            FieldSpec("paper", **_EXACT),
            FieldSpec("label", kind="str"),
            FieldSpec("constants", kind="str"),
        ],
        overrides={
            f"{artifact}|{metric}": {"value": band}
            for artifact, bands in _CLAIM_BANDS.items()
            for metric, band in bands.items()
        },
    ),
    # -- LDC physics sweeps (deterministic solves) --------------------------
    "fig7_buffer_convergence": RecordSchema(
        bench="fig7_buffer_convergence",
        key=("mode", "buffer"),
        fields=[
            FieldSpec("mode", kind="str", compare=False),
            FieldSpec("buffer", compare=False),
            FieldSpec("energy_ha", direction="both", rel_tol=0.0,
                      abs_tol=1e-5),
            FieldSpec("abs_de_per_atom", direction="lower", rel_tol=0.25,
                      abs_tol=1e-6),
            FieldSpec("rho_err", direction="lower", rel_tol=0.25,
                      abs_tol=1e-8),
        ],
    ),
    # -- kernel/transformation benches --------------------------------------
    "sec34_blas3": _metric_schema(
        "sec34_blas3",
        {
            "t_blas2_s": _TIMING,
            "t_blas3_s": _TIMING,
            "gflops_blas3": _TIMING,
            # the transformation must keep paying off on any host
            "speedup": {"direction": "higher", "rel_tol": 0.75},
            "max_path_difference": {"direction": "lower", "rel_tol": 0.0,
                                    "abs_tol": 1e-9},
        },
    ),
    # -- verification -----------------------------------------------------------
    "sec55_verification": _metric_schema(
        "sec55_verification",
        {
            "scf_energy_ha": {"direction": "both", "rel_tol": 0.0,
                              "abs_tol": 1e-6},
            "ldc_energy_ha": {"direction": "both", "rel_tol": 0.0,
                              "abs_tol": 1e-5},
            "abs_de_ha": {"direction": "lower", "rel_tol": 0.25,
                          "abs_tol": 1e-5},
            "abs_dmu_ha": {"direction": "lower", "rel_tol": 0.25,
                           "abs_tol": 1e-3},
            "max_force_diff": {"direction": "lower", "rel_tol": 0.25,
                               "abs_tol": 1e-4},
            "kmc_h2_count": _EXACT,
        },
    ),
    # -- ablations ------------------------------------------------------------
    "ablation_poisson": _metric_schema(
        "ablation_poisson",
        {
            "t_fft_s": _TIMING,
            "t_mg_s": _TIMING,
            "fd_vs_spectral_max_dev": {"direction": "lower", "rel_tol": 0.25},
            "cold_cycles": {"direction": "lower", "rel_tol": 0.0,
                            "abs_tol": 1.0},
            "warm_cycles": {"direction": "lower", "rel_tol": 0.0,
                            "abs_tol": 1.0},
        },
    ),
    "ablation_eigensolvers": _metric_schema(
        "ablation_eigensolvers",
        {
            "t_direct_s": _TIMING,
            "t_all_band_s": _TIMING,
            "t_band_by_band_s": _TIMING,
            "err_all_band": {"direction": "lower", "rel_tol": 1.0,
                             "abs_tol": 1e-8},
            "err_band_by_band": {"direction": "lower", "rel_tol": 1.0,
                                 "abs_tol": 1e-7},
        },
    ),
    "ablation_xi": RecordSchema(
        bench="ablation_xi",
        key=("variant",),
        fields=[
            FieldSpec("variant", kind="str", compare=False),
            FieldSpec("abs_de_per_atom", direction="lower", rel_tol=0.25,
                      abs_tol=1e-6),
            FieldSpec("iterations", kind="int", direction="lower",
                      rel_tol=0.0, abs_tol=2.0),
            FieldSpec("converged", kind="int", **_EXACT),
        ],
    ),
    # -- QMD hot path: workspace + orbital warm starts ------------------------
    "qmd_warm_start": _metric_schema(
        "qmd_warm_start",
        {
            # deterministic solves: iteration counts gate on increase
            "cold_eig_iters": {"direction": "lower", "rel_tol": 0.1},
            "warm_eig_iters": {"direction": "lower", "rel_tol": 0.1},
            "cold_scf_iters": {"direction": "lower", "rel_tol": 0.0,
                               "abs_tol": 2.0},
            "warm_scf_iters": {"direction": "lower", "rel_tol": 0.0,
                               "abs_tol": 2.0},
            # the headline claim: the warm start must keep paying off
            "eig_reduction_pct": {"direction": "higher", "rel_tol": 0.0,
                                  "abs_tol": 5.0},
            "warm_domains_per_step": _EXACT,
            # warm and cold trajectories solve the same physics
            "max_energy_dev_ha": {"direction": "lower", "rel_tol": 0.25,
                                  "abs_tol": 1e-6},
            "t_cold_s": _TIMING,
            "t_warm_s": _TIMING,
        },
    ),
    "scf_extrapolation": _metric_schema(
        "scf_extrapolation",
        {
            # deterministic solves: iteration counts gate on increase
            "warm_eig_iters": {"direction": "lower", "rel_tol": 0.1},
            "aspc_eig_iters": {"direction": "lower", "rel_tol": 0.1},
            "warm_scf_passes": {"direction": "lower", "rel_tol": 0.0,
                                "abs_tol": 2.0},
            "aspc_scf_passes": {"direction": "lower", "rel_tol": 0.0,
                                "abs_tol": 2.0},
            # the headline claim: ASPC must keep beating the warm start
            "further_reduction_pct": {"direction": "higher", "rel_tol": 0.0,
                                      "abs_tol": 5.0},
            # both arms solve the same physics, and the ASPC arm does not
            # depend on the stack width its domains are solved at
            "max_energy_dev_ha": {"direction": "lower", "rel_tol": 0.25,
                                  "abs_tol": 1e-6},
            "parity_batched_dev_ha": {"direction": "lower", "rel_tol": 0.0,
                                      "abs_tol": 1e-10},
            "parity_eig_iters_dev": _EXACT,
            # predictor quality: gauge-invariant ψ residual on the last step
            "predictor_residual": {"direction": "lower", "rel_tol": 0.5,
                                   "abs_tol": 1e-4},
            "t_warm_s": _TIMING,
            "t_aspc_s": _TIMING,
        },
    ),
    "domain_batching": _metric_schema(
        "domain_batching",
        {
            # CPU seconds at stack width 1 over width n: host-dependent,
            # ledger only (one solver at two kernel sizes, no claim to gate)
            "speedup": _TIMING,
            # both widths solve the same physics (expected: exactly 0) ...
            "max_energy_dev_ha": {"direction": "lower", "rel_tol": 0.0,
                                  "abs_tol": 1e-10},
            # ... in the same (deterministic, seeded) iteration counts
            "perdomain_eig_iters": {"direction": "lower", "rel_tol": 0.1},
            "batched_eig_iters": {"direction": "lower", "rel_tol": 0.1},
            "n_shape_classes": _EXACT,
            # deterministic span-attributed FLOPs (perfmodel estimate)
            "batched_solve_gflop": _MODEL,
            # warm passes must never allocate in the scratch pool
            "warm_pool_allocations": _EXACT,
            "t_perdomain_s": _TIMING,
            "t_batched_s": _TIMING,
        },
    ),
    "runlog_overhead": _metric_schema(
        "runlog_overhead",
        {
            # the facade contract, pinned as a count: a recorder-less QMD
            # run must execute no runlog/flightrec code at all
            "runlog_calls_disabled": _EXACT,
            # ...while the enabled run really ledgers (1.0 = manifest
            # written, hashes verified, invocation recorded)
            "enabled_ledger_ok": _EXACT,
            "manifest_artifacts": {"direction": "higher", "rel_tol": 0.0,
                                   "abs_tol": 0.0},
            "flight_events_enabled": {"direction": "higher",
                                      "rel_tol": 0.25},
            # host wall-clock: ledgered for the record, never gated
            "t_disabled_s": _TIMING,
            "t_enabled_s": _TIMING,
            "overhead_pct": _TIMING,
        },
    ),
}
