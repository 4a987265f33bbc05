"""A Morse-pair reactive force field for the Li/Al/O/H system.

Bonds can break and form (no fixed topology): every pair interacts through
a species-pair Morse potential

    E(r) = D_e [(1 - e^{-a (r - r₀)})² - 1]   (r < cutoff, smoothly switched)

whose well depths encode the chemistry the paper's QMD reveals: strong O-H
(water), strong Al-O / Li-O (oxidation), H-H (molecular hydrogen), weaker
metal-metal and metal-hydride bonds.  The parameters are *designed* (not
fitted to ab initio data — see DESIGN.md §2): quantitative rates come from
the KMC layer; this force field supplies realistic geometry/dynamics for
the bond-graph analytics and MD validation path at small scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import EV_TO_HARTREE, ANGSTROM_TO_BOHR
from repro.md.neighbors import NeighborList
from repro.systems.configuration import Configuration


@dataclass(frozen=True)
class MorseParams:
    """Pair parameters: well depth (Hartree), stiffness (1/Bohr), r₀ (Bohr)."""

    depth: float
    stiffness: float
    r0: float


def _mp(depth_ev: float, stiffness_ang: float, r0_ang: float) -> MorseParams:
    """Build params from chemist-friendly units (eV, 1/Å, Å)."""
    return MorseParams(
        depth_ev * EV_TO_HARTREE,
        stiffness_ang / ANGSTROM_TO_BOHR,
        r0_ang * ANGSTROM_TO_BOHR,
    )


#: Designed pair table.  Keys are frozensets of symbols.
DEFAULT_PAIRS: dict[frozenset, MorseParams] = {
    # Stiffnesses are deliberately high (narrow wells): a pure pair
    # potential has no angular terms, so the H-H well must not reach the
    # 1.5 Å H...H distance inside a water molecule.
    frozenset(["O", "H"]): _mp(4.8, 3.2, 0.96),   # water O-H
    frozenset(["H"]): _mp(4.5, 4.0, 0.74),          # H2
    frozenset(["O"]): _mp(2.0, 2.3, 1.35),          # peroxide-ish, weak
    frozenset(["Al", "O"]): _mp(5.2, 1.8, 1.75),   # alumina bond
    frozenset(["Li", "O"]): _mp(3.5, 1.9, 1.70),   # lithia bond
    frozenset(["Al", "H"]): _mp(1.6, 1.6, 1.65),   # alane / hydride
    frozenset(["Li", "H"]): _mp(1.4, 1.5, 1.70),   # lithium hydride
    frozenset(["Al"]): _mp(1.1, 1.2, 2.70),          # metallic Al-Al
    frozenset(["Li"]): _mp(0.6, 1.1, 2.90),          # metallic Li-Li
    frozenset(["Al", "Li"]): _mp(0.9, 1.2, 2.75),  # Zintl Li-Al
}


#: H-O-H equilibrium angle (radians) for the angular term
HOH_ANGLE0 = np.deg2rad(104.52)

#: O-H distance below which an H counts as bonded to an O (Bohr)
OH_BOND_CUT = 2.6


class ReactiveForceField:
    """Smoothly truncated Morse pair potential + H-O-H angular term.

    The angular term (harmonic in cos θ, acting on every H pair bonded to
    the same O) is what keeps water bent: a pure pair potential would let
    the intramolecular H···H attraction fold the molecule.  This is the
    minimal bond-order-like ingredient of real reactive force fields.
    """

    def __init__(
        self,
        pairs: dict[frozenset, MorseParams] | None = None,
        cutoff: float = 9.0,
        switch_width: float = 1.5,
        angle_k: float = 0.15,
    ) -> None:
        if cutoff <= 0 or switch_width <= 0 or switch_width >= cutoff:
            raise ValueError("need 0 < switch_width < cutoff")
        self.pairs = dict(DEFAULT_PAIRS if pairs is None else pairs)
        self.cutoff = float(cutoff)
        self.switch_width = float(switch_width)
        self.angle_k = float(angle_k)
        self._nl = NeighborList(cutoff)

    def pair_params(self, sym_a: str, sym_b: str) -> MorseParams:
        key = frozenset([sym_a, sym_b])
        params = self.pairs.get(key)
        if params is None:
            # unknown pairs: purely repulsive soft wall
            params = MorseParams(0.02, 1.0, 5.0)
        return params

    # -- energetics -----------------------------------------------------------

    def _switch(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """C¹ switching function s(r): 1 below cutoff-width, 0 at cutoff."""
        lo = self.cutoff - self.switch_width
        x = np.clip((r - lo) / self.switch_width, 0.0, 1.0)
        s = 1.0 - x * x * (3.0 - 2.0 * x)
        ds = -6.0 * x * (1.0 - x) / self.switch_width
        return s, ds

    def energy_forces(self, config: Configuration) -> tuple[float, np.ndarray]:
        """Total energy (Hartree) and per-atom forces (Hartree/Bohr)."""
        pairs, disp, dist = self._nl.build(config)
        forces = np.zeros((config.natoms, 3))
        if len(pairs) == 0:
            return 0.0, forces
        symbols = config.symbols
        # group pairs by species pair for vectorized evaluation
        keys = {}
        for p, (i, j) in enumerate(pairs):
            keys.setdefault(frozenset([symbols[i], symbols[j]]), []).append(p)
        energy = 0.0
        for key, idx_list in keys.items():
            idx = np.asarray(idx_list)
            params = self.pair_params(*list(key) * 2 if len(key) == 1 else list(key))
            r = dist[idx]
            e_morse, de_dr = _morse(r, params)
            s, ds = self._switch(r)
            energy += float(np.sum(e_morse * s))
            dtotal = de_dr * s + e_morse * ds
            # force on j along +disp, on i along -disp (disp = r_j - r_i)
            fvec = -(dtotal / r)[:, None] * disp[idx]
            np.add.at(forces, pairs[idx, 1], fvec)
            np.add.at(forces, pairs[idx, 0], -fvec)
        if self.angle_k > 0:
            e_ang = self._angle_terms(config, pairs, dist, forces)
            energy += e_ang
        return energy, forces

    def _angle_terms(
        self,
        config: Configuration,
        pairs: np.ndarray,
        dist: np.ndarray,
        forces: np.ndarray,
    ) -> float:
        """H-O-H angle energy E = K (cosθ - cosθ₀)², with forces in place."""
        symbols = config.symbols
        # collect H neighbors per O from the already-built pair list
        h_of_o: dict[int, list[int]] = {}
        for (i, j), r in zip(pairs, dist):
            if r > OH_BOND_CUT:
                continue
            si, sj = symbols[i], symbols[j]
            if si == "O" and sj == "H":
                h_of_o.setdefault(int(i), []).append(int(j))
            elif si == "H" and sj == "O":
                h_of_o.setdefault(int(j), []).append(int(i))
        c0 = np.cos(HOH_ANGLE0)
        k = self.angle_k
        energy = 0.0
        for o, hs in h_of_o.items():
            for a in range(len(hs)):
                for b in range(a + 1, len(hs)):
                    h1, h2 = hs[a], hs[b]
                    u = config.minimum_image(config.positions[h1] - config.positions[o])
                    v = config.minimum_image(config.positions[h2] - config.positions[o])
                    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
                    cos = float(u @ v) / (nu * nv)
                    energy += k * (cos - c0) ** 2
                    dedcos = 2.0 * k * (cos - c0)
                    dcos_du = v / (nu * nv) - cos * u / nu**2
                    dcos_dv = u / (nu * nv) - cos * v / nv**2
                    forces[h1] -= dedcos * dcos_du
                    forces[h2] -= dedcos * dcos_dv
                    forces[o] += dedcos * (dcos_du + dcos_dv)
        return energy

    def energy(self, config: Configuration) -> float:
        return self.energy_forces(config)[0]


def _morse(r: np.ndarray, p: MorseParams) -> tuple[np.ndarray, np.ndarray]:
    """Morse energy and dE/dr."""
    ex = np.exp(-p.stiffness * (r - p.r0))
    e = p.depth * ((1.0 - ex) ** 2 - 1.0)
    de = 2.0 * p.depth * p.stiffness * ex * (1.0 - ex)
    return e, de
