"""Buffer-thickness convergence (Fig. 7) at example scale.

Sweeps the localization parameter b on a 16-atom amorphous CdSe system (the
paper's Fig.-7 material, downscaled), comparing classic DC-DFT and LDC-DFT
against the O(N³) reference; fits the exponential decay constant λ of Eq. 1
on the density error and, from it, the buffer that meets a target error and
the optimal core length l* = 2b/(ν − 1) (Sec. 3.1's "optimization of DC
computational parameters"); and evaluates the complexity model's speedup
implications.

Run:  python examples/buffer_convergence.py   (takes a few minutes)
"""

import numpy as np

from repro.core import LDCOptions, run_ldc
from repro.core.complexity import (
    crossover_natoms,
    fit_decay_constant,
    optimal_core_length,
    speedup_factor,
)
from repro.dft.scf import SCFOptions, run_scf
from repro.systems import amorphous_cdse

system = amorphous_cdse((2, 1, 1), displacement=0.3, seed=3)

print("computing O(N^3) reference...")
ref = run_scf(
    system, SCFOptions(ecut=3.0, tol=1e-7, extra_bands=8, kt=0.02, eig_tol=1e-8)
)
print(f"reference energy: {ref.energy:+.6f} Ha\n")

buffers = [0.6, 1.2, 1.8, 2.4]
e_errors: dict[str, list[float]] = {"dc": [], "ldc": []}
rho_errors: dict[str, list[float]] = {"dc": [], "ldc": []}
print(f"{'mode':>4} {'b [Bohr]':>9} {'|ΔE|/atom':>10} {'∫|Δρ|/N':>9} {'iters':>6}")
for mode in ("dc", "ldc"):
    for b in buffers:
        r = run_ldc(
            system,
            LDCOptions(
                ecut=3.0, domains=(2, 1, 1), buffer=b, mode=mode,
                tol=1e-6, max_iter=40, kt=0.02, extra_bands=8,
            ),
        )
        e_err = abs(r.energy - ref.energy) / len(system)
        rho_err = (
            r.grid.integrate(np.abs(r.density - ref.density))
            / system.n_electrons()
        )
        e_errors[mode].append(e_err)
        rho_errors[mode].append(rho_err)
        print(f"{mode:>4} {b:>9.1f} {e_err:>10.2e} {rho_err:>9.4f} {r.iterations:>6}")

# -- Eq. 1: fit the decay constant on the (clean) density error -----------------
target = 5e-3  # ∫|Δρ|/N
for mode in ("dc", "ldc"):
    lam, amp = fit_decay_constant(np.array(buffers), np.array(rho_errors[mode]))
    b_target = lam * np.log(amp / target) if amp > target else 0.0
    print(f"\n{mode.upper()}: density error ≈ {amp:.3f} · exp(-b/{lam:.2f} Bohr); "
          f"∫|Δρ|/N ≤ {target:g} at b = {b_target:.2f} Bohr, "
          f"l* = {optimal_core_length(b_target):.2f} Bohr (ν = 2)")

# -- what the paper's buffer numbers imply (Sec. 5.2) --------------------------------
print("\ncomplexity-model implications at the paper's CdSe buffers:")
print(f"  LDC/DC speedup (ν=2): {speedup_factor(11.416, 4.72, 3.57, 2.0):.2f}")
print(f"  LDC/DC speedup (ν=3): {speedup_factor(11.416, 4.72, 3.57, 3.0):.2f}")
density = 512 / 45.664**3
print(f"  O(N)↔O(N³) crossover: {crossover_natoms(3.57, density):.0f} atoms")
