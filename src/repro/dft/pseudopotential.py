"""Toy pseudopotentials: Gaussian-screened local part + Kleinman–Bylander
separable nonlocal projectors.

Local part (per ion of valence ``Z`` and screening radius ``r_c``):

    v_loc(r) = -Z erf(r / (√2 r_c)) / r
    ṽ_loc(G) = -4π Z e^{-r_c² G²/2} / G²            (3-D Fourier transform)

The ``G = 0`` divergence cancels against the Hartree and Ewald monopoles for
a neutral system; what survives is the standard non-Coulombic correction

    α = ∫ (v_loc(r) + Z/r) d³r = 2π Z r_c²,

which enters the grid potential as ``V(G=0) = Σ_I α_I / Ω``.

Nonlocal part: one normalized Gaussian s-projector per atom,

    χ(r) = (π r_p²)^{-3/4} e^{-r²/(2 r_p²)},   E_nl = Σ_n f_n Σ_I D_I |<χ_I|ψ_n>|²,

applied in the packed BLAS3 form of Sec. 3.4 (Eq. 5).
"""

from __future__ import annotations

import numpy as np

from repro.constants import get_species
from repro.dft.basis import PlaneWaveBasis
from repro.dft.grid import RealSpaceGrid
from repro.systems.configuration import Configuration


def local_potential_ft(g2: np.ndarray, zval: float, rc: float) -> np.ndarray:
    """ṽ_loc(G) for one species on an array of |G|² (G=0 entries → α)."""
    out = np.empty_like(g2, dtype=float)
    nonzero = g2 > 1e-12
    out[nonzero] = (
        -4.0 * np.pi * zval * np.exp(-0.5 * rc * rc * g2[nonzero]) / g2[nonzero]
    )
    out[~nonzero] = 2.0 * np.pi * zval * rc * rc  # the α correction
    return out


def structure_factors(grid: RealSpaceGrid, config: Configuration) -> dict[str, np.ndarray]:
    """Per-species structure factors S_s(G) = Σ_{I∈s} e^{-iG·R_I} on the grid.

    ``e^{-iG·R}`` factorizes over the axes of the orthorhombic grid, so each
    atom costs ``n0 + n1 + n2`` exponentials instead of ``n0·n1·n2``, and
    nothing of size ``ngrid × natoms`` is ever built (the dense evaluation
    had to chunk atoms to bound that matrix).
    """
    out: dict[str, np.ndarray] = {}
    for symbol in config.species_set():
        idx = [i for i, s in enumerate(config.symbols) if s == symbol]
        px, py, pz = (
            np.exp(-1j * np.outer(config.positions[idx, axis], g))
            for axis, g in enumerate(grid.g_components())
        )
        out[symbol] = np.einsum("ai,aj,ak->ijk", px, py, pz)
    return out


def local_potential(grid: RealSpaceGrid, config: Configuration) -> np.ndarray:
    """Total local pseudopotential V_loc(r) on the real grid."""
    g2 = grid.g2()
    vg = np.zeros(grid.shape, dtype=complex)
    sfs = structure_factors(grid, config)
    for symbol, sf in sfs.items():
        sp = get_species(symbol)
        vg += local_potential_ft(g2, sp.zval, sp.rc_loc) * sf
    vg /= grid.volume
    return grid.ifft(vg).real


class NonlocalProjectors:
    """Packed Kleinman–Bylander projectors for a configuration.

    Attributes
    ----------
    b:
        ``(npw, nproj)`` projector matrix B̃ (one column per projecting atom).
    d:
        ``(nproj,)`` diagonal coefficients D_I (Hartree).
    atom_indices:
        Configuration atom index of each projector column.
    """

    def __init__(self, basis: PlaneWaveBasis, config: Configuration) -> None:
        self.basis = basis
        cols: list[np.ndarray] = []
        coeffs: list[float] = []
        atom_indices: list[int] = []
        volume = basis.grid.volume
        for i, symbol in enumerate(config.symbols):
            sp = get_species(symbol)
            if sp.nl_strength == 0.0:
                continue
            rp = sp.nl_radius
            radial = (4.0 * np.pi * rp * rp) ** 0.75 * np.exp(
                -0.5 * rp * rp * basis.g2
            ) / np.sqrt(volume)
            phase = np.exp(-1j * basis.g_vectors @ config.positions[i])
            cols.append(radial * phase)
            coeffs.append(sp.nl_strength)
            atom_indices.append(i)
        if cols:
            self.b = np.column_stack(cols)
            self.d = np.asarray(coeffs, dtype=float)
        else:
            self.b = np.zeros((basis.npw, 0), dtype=complex)
            self.d = np.zeros(0, dtype=float)
        self.atom_indices = atom_indices

    @property
    def nproj(self) -> int:
        return self.b.shape[1]

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """v_nl Ψ via the BLAS3 packed form (Eq. 5)."""
        if self.nproj == 0:
            return np.zeros_like(psi)
        overlaps = self.b.conj().T @ psi
        return self.b @ (self.d[:, None] * overlaps)

    def energy(self, psi: np.ndarray, occupations: np.ndarray) -> float:
        """E_nl = Σ_n f_n Σ_p D_p |<β_p|ψ_n>|²."""
        if self.nproj == 0:
            return 0.0
        overlaps = self.b.conj().T @ psi  # (nproj, nband)
        return float(
            np.sum(np.asarray(occupations) * (self.d[:, None] * np.abs(overlaps) ** 2))
        )

    def dense(self) -> np.ndarray:
        """The dense npw×npw nonlocal matrix (for the direct eigensolver)."""
        if self.nproj == 0:
            n = self.basis.npw
            return np.zeros((n, n), dtype=complex)
        return (self.b * self.d[None, :]) @ self.b.conj().T
