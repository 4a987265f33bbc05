"""Gillespie kinetic Monte Carlo of hydrogen production at LiAl surfaces.

The rate-determining chemistry the paper's QMD identifies, cast as a
site-level stochastic model:

* **Water dissociation** at a Lewis acid-base (Li, Al) surface pair:
  H₂O + site → OH⁻(site) + H*(site), activation 0.068 eV at LiAl pairs
  (the paper's Arrhenius fit, Fig. 9(a)); ≈ 0.4 eV on pure Al (why pure Al
  particles are orders of magnitude slower, ref. 47).
* **H₂ recombination**: two adsorbed H* on neighboring sites → H₂(g).
  Fast (small barrier) — dissociation stays rate-limiting.
* **Li dissolution**: surface Li → Li⁺(aq), raising the solution pH
  (the experimentally observed pH increase).
* **Oxide passivation**: an oxidized site becomes inert; its rate is
  *suppressed* by the basic solution — the yield mechanism ("corrosive
  basic solution inhibits the formation of a reaction-stopping oxide
  layer").  Bridging Li-O-Al oxygens additionally *catalyze* dissociation
  at neighboring sites (the autocatalytic effect), implemented as a mild
  rate enhancement per oxidized neighbor.

Because the barrier enters as exp(-E_a/kT), measuring the H₂ production
rate at several temperatures and fitting Arrhenius recovers E_a with
stochastic error bars — exactly Fig. 9(a) — and running particles of
different sizes with sites taken from the *real* carved geometries gives
Fig. 9(b)'s N_surf scaling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import KB_EV
from repro.reactive.sites import SiteCensus, site_census
from repro.systems.configuration import Configuration

# Site states
PRISTINE = 0
H_ADSORBED = 1
PASSIVATED = 2

# The rate table (eV, s⁻¹): one chemistry, not a choice per run
#: water-dissociation barrier at a LiAl Lewis pair (the paper's value)
EA_DISSOCIATION = 0.068
#: dissociation barrier on a pure-Al site (ref. 47 baseline)
EA_DISSOCIATION_PURE_AL = 0.40
#: H* + H* recombination barrier
EA_RECOMBINATION = 0.02
#: Li dissolution barrier
EA_DISSOLUTION = 0.25
#: oxide passivation barrier at neutral pH
EA_PASSIVATION = 0.35
#: attempt-frequency scale of the dissolution channel (slow vs ν)
DISSOLUTION_SCALE = 0.05
#: attempt-frequency scale of the passivation channel
PASSIVATION_SCALE = 0.02
#: attempt frequency (calibrated so k(300 K) ≈ 1.04·10⁹ s⁻¹ per pair)
ATTEMPT_FREQUENCY = 1.45e10
#: pH suppression of passivation: rate × exp(-κ (pH - 7))
PH_SUPPRESSION = 1.2
#: autocatalytic enhancement per oxidized neighbor site
AUTOCATALYSIS = 0.35
#: pH rise per dissolved Li (effective, volume-lumped)
PH_PER_LI = 0.1
#: a run stops after this many events if ``max_time`` has not come first
MAX_EVENTS = 200_000


@dataclass
class KMCOptions:
    """Run controls; the rates are the module's constants."""

    #: kelvin, > 0
    temperature: float = 300.0
    #: stop after this simulated time (s), > 0
    max_time: float = 1e-6
    #: treat the particle as pure Al (no Li): the baseline chemistry
    pure_al: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        # a non-positive temperature divides by zero or runs with rates
        # above the attempt frequency; a non-positive time ends at once
        for name in ("temperature", "max_time"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be > 0, got {value!r}")


@dataclass
class KMCResult:
    """Trajectory-level observables."""

    times: np.ndarray
    h2_counts: np.ndarray
    ph_history: np.ndarray
    n_sites: int
    n_surface: int
    n_pairs: int
    total_h2: int
    dissolved_li: int
    passivated_sites: int
    final_time: float
    events: dict[str, int] = field(default_factory=dict)

    def production_rate(self) -> float:
        """H₂ molecules per second over the run."""
        if self.final_time <= 0:
            return 0.0
        return self.total_h2 / self.final_time


def _site_graph(census: SiteCensus, positions: np.ndarray, cell: np.ndarray,
                cutoff: float = 7.0) -> list[list[int]]:
    """Neighbor lists between Lewis-pair sites (midpoint distance based)."""
    mids = []
    for li, al in census.lewis_pairs:
        d = positions[al] - positions[li]
        d -= cell * np.round(d / cell)
        mids.append(positions[li] + 0.5 * d)
    mids = np.array(mids) if mids else np.zeros((0, 3))
    n = len(mids)
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        d = mids - mids[i]
        d -= cell * np.round(d / cell)
        r = np.linalg.norm(d, axis=1)
        close = np.flatnonzero((r > 1e-9) & (r < cutoff))
        neighbors[i] = [int(j) for j in close]
    return neighbors


def run_kmc(
    particle: Configuration,
    options: KMCOptions | None = None,
    census: SiteCensus | None = None,
) -> KMCResult:
    """Run the Gillespie simulation on an explicit particle geometry."""
    opts = options or KMCOptions()
    rng = np.random.default_rng(opts.seed)
    if census is None:
        census = site_census(particle)

    if opts.pure_al:
        # pure Al: every adjacent surface Al-Al bond is a (slow) site
        sites = max(census.n_surface, 1)
        neighbors = [[(i + 1) % sites, (i - 1) % sites] for i in range(sites)]
        ea_diss = EA_DISSOCIATION_PURE_AL
        n_li_surface = 0
    else:
        sites = census.n_pairs
        neighbors = _site_graph(
            census, particle.wrapped_positions(), particle.cell
        )
        ea_diss = EA_DISSOCIATION
        n_li_surface = sum(
            1 for i in census.surface_indices if particle.symbols[i] == "Li"
        )

    if sites == 0:
        return KMCResult(
            np.zeros(1), np.zeros(1, dtype=int), np.full(1, 7.0),
            0, census.n_surface, census.n_pairs, 0, 0, 0, 0.0,
        )

    kt = KB_EV * opts.temperature
    nu = ATTEMPT_FREQUENCY
    k_diss0 = nu * np.exp(-ea_diss / kt)
    k_rec = nu * np.exp(-EA_RECOMBINATION / kt)
    k_li = nu * np.exp(-EA_DISSOLUTION / kt) * DISSOLUTION_SCALE
    k_pass0 = nu * np.exp(-EA_PASSIVATION / kt) * PASSIVATION_SCALE

    state = np.full(sites, PRISTINE, dtype=int)
    oxidized = np.zeros(sites, dtype=bool)  # carries a bridging O (Li-O-Al)
    ph = 7.0
    t = 0.0
    h2 = 0
    dissolved = 0
    remaining_li = n_li_surface
    times = [0.0]
    h2_hist = [0]
    ph_hist = [ph]
    event_counts = {"dissociation": 0, "recombination": 0,
                    "dissolution": 0, "passivation": 0}

    for _ in range(MAX_EVENTS):
        # --- build the rate table --------------------------------------
        rates = []
        actions = []
        active = state != PASSIVATED
        for i in np.flatnonzero(active & (state == PRISTINE)):
            boost = 1.0 + AUTOCATALYSIS * sum(
                1 for j in neighbors[i] if oxidized[j]
            )
            rates.append(k_diss0 * boost)
            actions.append(("dissociation", i))
        h_sites = np.flatnonzero(state == H_ADSORBED)
        for i in h_sites:
            partners = [j for j in neighbors[i] if state[j] == H_ADSORBED]
            if partners:
                rates.append(k_rec * len(partners))
                actions.append(("recombination", i))
        if remaining_li > 0 and not opts.pure_al:
            rates.append(k_li * remaining_li)
            actions.append(("dissolution", -1))
        n_pristine = int(np.sum(state == PRISTINE))
        if n_pristine:
            k_pass = k_pass0 * np.exp(-PH_SUPPRESSION * max(ph - 7.0, 0.0))
            rates.append(k_pass * n_pristine)
            actions.append(("passivation", -1))

        if not rates:
            break
        rates = np.asarray(rates)
        total = rates.sum()
        t += rng.exponential(1.0 / total)
        if t > opts.max_time:
            t = opts.max_time
            break
        choice = rng.choice(len(rates), p=rates / total)
        kind, target = actions[choice]
        event_counts[kind] += 1

        if kind == "dissociation":
            state[target] = H_ADSORBED
            oxidized[target] = True  # the OH stays as a bridging oxygen
        elif kind == "recombination":
            partners = [j for j in neighbors[target] if state[j] == H_ADSORBED]
            j = partners[int(rng.integers(len(partners)))]
            state[target] = PRISTINE
            state[j] = PRISTINE
            h2 += 1
        elif kind == "dissolution":
            dissolved += 1
            remaining_li -= 1
            ph += PH_PER_LI
        elif kind == "passivation":
            pristine = np.flatnonzero(state == PRISTINE)
            state[pristine[int(rng.integers(len(pristine)))]] = PASSIVATED

        times.append(t)
        h2_hist.append(h2)
        ph_hist.append(ph)

    return KMCResult(
        times=np.asarray(times),
        h2_counts=np.asarray(h2_hist, dtype=int),
        ph_history=np.asarray(ph_hist),
        n_sites=sites,
        n_surface=census.n_surface,
        n_pairs=census.n_pairs,
        total_h2=h2,
        dissolved_li=dissolved,
        passivated_sites=int(np.sum(state == PASSIVATED)),
        final_time=float(t),
        events=event_counts,
    )
