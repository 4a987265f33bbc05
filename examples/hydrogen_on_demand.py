"""Hydrogen-on-demand (Sec. 6): Li_nAl_n nanoparticles splitting water.

Reproduces the science-application pipeline at laptop scale:

1. carve a LiAl nanoparticle and census its surface Lewis acid-base pairs;
2. run the kinetic Monte Carlo reaction engine at 300/600/1500 K;
3. fit the Arrhenius law (Fig. 9(a): E_a ≈ 0.068 eV);
4. compare against a pure-Al particle (orders of magnitude slower);
5. show the Li-dissolution → pH-rise → oxide-inhibition yield mechanism.

Run:  python examples/hydrogen_on_demand.py
"""

from repro.reactive.analysis import arrhenius_fit, rate_with_error
from repro.reactive.kmc import KMCOptions, run_kmc
from repro.reactive.sites import site_census
from repro.systems import lial_nanoparticle

PAIRS = 30  # the paper's smallest particle: Li30Al30

particle = lial_nanoparticle(PAIRS)
census = site_census(particle)
print(f"Li{PAIRS}Al{PAIRS} particle: {census.n_metal} metal atoms, "
      f"{census.n_surface} at the surface, "
      f"{census.n_pairs} Lewis acid-base (Li,Al) pairs")

# -- Fig. 9(a): Arrhenius ---------------------------------------------------
temperatures = [300.0, 600.0, 1500.0]
rates = []
print("\ntemperature sweep (5 KMC replicas each):")
for t in temperatures:
    runs = [
        run_kmc(particle, KMCOptions(temperature=t, max_time=2e-8, seed=s), census)
        for s in range(5)
    ]
    mean, err = rate_with_error(runs)
    rates.append(mean)
    per_pair = mean / census.n_pairs
    print(f"  T = {t:6.0f} K : {per_pair:.3e} ± {err / census.n_pairs:.1e} "
          f"H2 /s /pair")

fit = arrhenius_fit(temperatures, rates)
print(f"\nArrhenius fit: E_a = {fit.activation_ev * 1e3:.1f} meV "
      f"(paper: 68 meV), prefactor = {fit.prefactor:.2e} /s, "
      f"R² = {fit.r_squared:.4f}")
print(f"extrapolated k(300 K) per pair = "
      f"{fit.rate(300.0) / census.n_pairs:.2e} /s  (paper: 1.04e9 /s)")

# -- pure Al baseline ----------------------------------------------------------
print("\npure-Al baseline at 300 K (ref. 47):")
lial = run_kmc(particle, KMCOptions(temperature=300.0, max_time=2e-8, seed=0), census)
pure = run_kmc(particle, KMCOptions(temperature=300.0, max_time=2e-8, seed=0,
                                    pure_al=True))
print(f"  LiAl    : {lial.total_h2} H2 produced in {lial.final_time:.1e} s")
print(f"  pure Al : {pure.total_h2} H2 produced in {pure.final_time:.1e} s")

# -- yield mechanism --------------------------------------------------------------
long_run = run_kmc(
    particle, KMCOptions(temperature=600.0, max_time=3e-7, seed=1), census
)
print(f"\nyield mechanism over a longer 600 K run:")
print(f"  H2 produced        : {long_run.total_h2}")
print(f"  Li dissolved       : {long_run.dissolved_li} "
      f"(pH {long_run.ph_history[0]:.2f} → {long_run.ph_history[-1]:.2f})")
print(f"  passivated sites   : {long_run.passivated_sites} / {long_run.n_sites}")
print(f"  event counts       : {long_run.events}")
