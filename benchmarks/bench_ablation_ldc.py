"""EXP-ABL-LDC — ablations of the LDC design choices.

* the boundary potential ξ (Eq. 2): DC against LDC at two ξ;
* sharp vs smooth partition of unity.

The ξ sweep documents an honest finding of this reproduction: with the
artifact-free restricted global ionic potential (the only one the engine
builds), the domain
error is wave-function confinement, which a local boundary *potential*
cannot remove — DC and LDC perform at parity here (experiments/EXP-F7.md).
"""

from _harness import fmt_row, report
from _schemas import SCHEMAS

from repro.core import LDCOptions, run_ldc
from repro.systems import dimer


def test_xi_sweep(benchmark, cdse16_amorphous, cdse16_reference):
    cfg = cdse16_amorphous
    ref = cdse16_reference

    def sweep():
        out = {}
        base = dict(
            ecut=3.0, domains=(2, 1, 1), buffer=1.2, tol=1e-6,
            max_iter=40, kt=0.02, extra_bands=8,
        )
        out["dc"] = run_ldc(cfg, LDCOptions(mode="dc", **base))
        for xi in (0.333, 0.1):
            out[f"ldc xi={xi}"] = run_ldc(
                cfg, LDCOptions(mode="ldc", xi=xi, **base)
            )
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [fmt_row("variant", "|dE|/atom", "iters", widths=[20, 12, 6])]
    records = []
    for name, r in results.items():
        err = abs(r.energy - ref.energy) / len(cfg)
        lines.append(fmt_row(name, err, r.iterations, widths=[20, 12, 6]))
        records.append(
            {"variant": name, "abs_de_per_atom": float(err),
             "iterations": int(r.iterations), "converged": int(r.converged)}
        )
    lines.append("")
    lines.append("finding: DC ≈ LDC with the artifact-free global potential;")
    lines.append("the paper's LDC gain targets domain-local potential errors")
    report("ablation_xi", "Ablation — boundary potential ξ", lines,
           records=records, schema=SCHEMAS["ablation_xi"])

    for r in results.values():
        assert r.converged
    errs = [abs(r.energy - ref.energy) / len(cfg) for r in results.values()]
    # every variant sits within the paper's Fig.-7 tolerance band at this
    # buffer; the ordering between them is inside the basis-noise floor
    assert max(errs) < 5e-3


def test_support_ablation(benchmark):
    h2 = dimer("H", "H", 1.5, 12.0)

    def run_both():
        base = dict(ecut=5.0, domains=(2, 1, 1), buffer=2.0, tol=1e-5)
        return (
            run_ldc(h2, LDCOptions(support="sharp", **base)),
            run_ldc(h2, LDCOptions(support="smooth", **base)),
        )

    r_sharp, r_smooth = benchmark.pedantic(run_both, rounds=1, iterations=1)
    lines = [
        fmt_row("support", "energy", "iters", widths=[8, 14, 6]),
        fmt_row("sharp", r_sharp.energy, r_sharp.iterations, widths=[8, 14, 6]),
        fmt_row("smooth", r_smooth.energy, r_smooth.iterations, widths=[8, 14, 6]),
    ]
    records = [
        {"support": "sharp", "energy_ha": float(r_sharp.energy),
         "iterations": int(r_sharp.iterations)},
        {"support": "smooth", "energy_ha": float(r_smooth.energy),
         "iterations": int(r_smooth.iterations)},
    ]
    report("ablation_support", "Ablation — partition of unity", lines,
           records=records, schema=SCHEMAS["ablation_support"])
    assert abs(r_sharp.energy - r_smooth.energy) < 5e-3
