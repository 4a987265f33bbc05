"""EXP-ABL-LDC — ablation of the boundary potential ξ (Eq. 2): DC
against LDC at two ξ.

The sweep documents an honest finding of this reproduction: with the
artifact-free restricted global ionic potential (the only one the engine
builds), the domain
error is wave-function confinement, which a local boundary *potential*
cannot remove — DC and LDC perform at parity here (experiments/EXP-F7.md).
"""

from _harness import fmt_row, report
from _schemas import SCHEMAS

from repro.core import LDCOptions, run_ldc


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

