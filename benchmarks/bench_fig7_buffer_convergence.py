"""EXP-F7 — Fig. 7: energy convergence vs the buffer thickness b.

Paper: on 512-atom amorphous CdSe (l = 11.416 a.u.) the potential energy
converges with b; LDC-DFT converges faster than classic DC-DFT (b for the
5·10⁻³ a.u. tolerance drops 4.73 → 3.57 a.u.).

Reproduction scale: a 16-atom amorphous CdSe system (ecut 3 Ha toy basis).
Both the total-energy error and the density error ∫|Δρ|/N_e against the
O(N³) reference are reported; the density error shows the clean exponential
decay (quantum nearsightedness, Eq. 1) while the energy error reaches a
per-domain basis-incommensurability noise floor (documented in
experiments/EXP-F7.md).
"""

import numpy as np
from _harness import fmt_row, report
from _schemas import SCHEMAS

from repro.core import LDCOptions, run_ldc
from repro.core.complexity import fit_decay_constant

BUFFERS = [0.6, 1.2, 1.8, 2.4]


def run_sweep(cfg, mode):
    rows = []
    for b in BUFFERS:
        r = run_ldc(
            cfg,
            LDCOptions(
                ecut=3.0, domains=(2, 1, 1), buffer=b, mode=mode,
                tol=1e-6, max_iter=40, kt=0.02, extra_bands=8,
            ),
        )
        rows.append(r)
    return rows


def test_fig7_buffer_convergence(benchmark, cdse16_amorphous, cdse16_reference):
    cfg = cdse16_amorphous
    ref = cdse16_reference

    def sweep_both():
        return {mode: run_sweep(cfg, mode) for mode in ("dc", "ldc")}

    results = benchmark.pedantic(sweep_both, rounds=1, iterations=1)

    lines = [fmt_row("mode", "b[Bohr]", "E[Ha]", "|dE|/atom", "rho_err")]
    errors = {}
    records = []
    for mode in ("dc", "ldc"):
        errs, rho_errs = [], []
        for b, r in zip(BUFFERS, results[mode]):
            e_err = abs(r.energy - ref.energy) / len(cfg)
            rho_err = (
                r.grid.integrate(np.abs(r.density - ref.density))
                / cfg.n_electrons()
                if r.grid.shape == ref.grid.shape
                else np.nan
            )
            errs.append(e_err)
            rho_errs.append(rho_err)
            lines.append(fmt_row(mode, b, r.energy, e_err, rho_err))
            records.append(
                {"mode": mode, "buffer": b, "energy_ha": float(r.energy),
                 "abs_de_per_atom": float(e_err), "rho_err": float(rho_err)}
            )
        errors[mode] = (np.array(errs), np.array(rho_errs))

    # Exponential decay of the density error (Eq. 1's λ)
    for mode in ("dc", "ldc"):
        _, rho_errs = errors[mode]
        if np.all(np.isfinite(rho_errs)):
            lam, amp = fit_decay_constant(np.array(BUFFERS), rho_errs)
            lines.append(f"{mode}: density error ~ {amp:.3f} exp(-b/{lam:.2f} Bohr)")

    lines.append("")
    lines.append("paper: energy converges within 1e-3 a.u./atom above b = 4 (their")
    lines.append("       basis); here the same trend appears at toy cutoffs, with the")
    lines.append("       density error decaying exponentially per Eq. 1")
    report("fig7_buffer_convergence", "Fig. 7 — buffer convergence", lines,
           records=records, schema=SCHEMAS["fig7_buffer_convergence"])

    # Figure's claims at reproduction scale:
    for mode in ("dc", "ldc"):
        e_errs, rho_errs = errors[mode]
        assert e_errs[-1] < e_errs[0]          # thicker buffer is more accurate
        assert rho_errs[-1] < 0.5 * rho_errs[0]  # density error decays strongly
        assert e_errs[-1] < 5e-3                 # meets the paper's tolerance band
