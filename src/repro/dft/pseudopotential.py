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


def species_atoms(config: Configuration) -> list[tuple[str, list[int]]]:
    """``(symbol, atom indices)`` per species of ``config``."""
    return [
        (symbol, [i for i, s in enumerate(config.symbols) if s == symbol])
        for symbol in config.species_set()
    ]


#: bytes one atom block's ``(atoms, n1, n2)`` phase-product table may take
#: in :func:`_phase_sum` (the block rule that keeps a structure factor from
#: building anything of size natoms × ngrid)
PHASE_BLOCK_BYTES = 1 << 18


def local_potential_half(grid: RealSpaceGrid, symbol: str) -> np.ndarray:
    """ṽ_loc(G) of one species on the ``rfftn`` half grid of ``grid``
    (``G = 0`` → α), built once per grid and species parameters and kept
    with the grid's other reciprocal tables."""
    sp = get_species(symbol)
    return grid.table(
        f"v_loc[{sp.zval!r},{sp.rc_loc!r}]",
        lambda: local_potential_ft(grid.g2_half(), sp.zval, sp.rc_loc),
    )


def half_grid_phases(
    grid: RealSpaceGrid, positions: np.ndarray
) -> tuple[tuple[list, list], tuple[list, list]]:
    """Per-axis factors of ``e^{-iG·R}`` on the half grid, and their mirror.

    Returns ``(g, p), (g', q)``: per axis the ``G`` components and the
    ``(natoms, n_axis)`` phases ``p = e^{-i g R}``, then the same for
    ``G' = -G(-m)``, the negative of the vector at the mirrored index —
    ``G`` itself except at the Nyquist index of an even axis, where FFT
    order has one sign for both.  A real field pairs index ``m`` with
    ``-m``, so what its spectrum contracts with is the average of the two
    products: ``½(Π p + Π q)`` is the Hermitian part of the full grid's
    ``e^{-iG·R}``, exactly, and equals ``Π p`` off the Nyquist planes.
    """
    g, p, g_mirror, q = [], [], [], []
    for axis, ga in enumerate(grid.half_g_components()):
        pa = np.exp(-1j * np.outer(positions[:, axis], ga))
        gm, qa = ga, pa
        n = grid.shape[axis]
        if n % 2 == 0:
            gm, qa = ga.copy(), pa.copy()
            gm[n // 2] = -ga[n // 2]
            qa[:, n // 2] = pa[:, n // 2].conj()
        g.append(ga)
        p.append(pa)
        g_mirror.append(gm)
        q.append(qa)
    return (g, p), (g_mirror, q)


def _phase_sum(px: np.ndarray, py: np.ndarray, pz: np.ndarray) -> np.ndarray:
    """``Σ_a px[a,i] py[a,j] pz[a,k]``: per atom block one ``(atoms, n1·n2)``
    table and one GEMM against the first axis' phases."""
    shape = (px.shape[1], py.shape[1], pz.shape[1])
    out = np.zeros((shape[0], shape[1] * shape[2]), dtype=complex)
    block = max(1, PHASE_BLOCK_BYTES // (16 * shape[1] * shape[2]))
    for start in range(0, len(px), block):
        rows = slice(start, start + block)
        yz = py[rows, :, None] * pz[rows, None, :]
        out += px[rows].T @ yz.reshape(len(yz), -1)
    return out.reshape(shape)


def structure_factors(grid: RealSpaceGrid, config: Configuration) -> dict[str, np.ndarray]:
    """Per-species structure factors S_s(G) = Σ_{I∈s} e^{-iG·R_I} on the
    full grid.

    ``e^{-iG·R}`` factorizes over the axes of the orthorhombic grid, so each
    atom costs ``n0 + n1 + n2`` exponentials instead of ``n0·n1·n2``, and
    nothing of size ``ngrid × natoms`` is ever built.
    """
    return {
        symbol: _phase_sum(*(
            np.exp(-1j * np.outer(config.positions[idx, axis], g))
            for axis, g in enumerate(grid.g_components())
        ))
        for symbol, idx in species_atoms(config)
    }


def local_potential(grid: RealSpaceGrid, config: Configuration) -> np.ndarray:
    """Total local pseudopotential V_loc(r) on the real grid.

    Assembled on the half grid — ``Σ_s ṽ_s(G) · ½(Π p + Π q)`` over the
    per-axis phases of :func:`half_grid_phases` — and brought back by one
    real inverse transform: the real part of the full complex transform of
    ``Σ_s ṽ_s S_s``, without the full grid or its discarded imaginary half.
    """
    vg = np.zeros(grid.shape[:2] + (grid.shape[2] // 2 + 1,), dtype=complex)
    for symbol, idx in species_atoms(config):
        (_, p), (_, q) = half_grid_phases(grid, config.positions[idx])
        sf = _phase_sum(*(np.concatenate(pq) for pq in zip(p, q)))
        sf *= local_potential_half(grid, symbol)
        vg += sf
    # ½ of the mirror average, 1/Ω of the potential, N of irfftn's 1/N
    vg *= 0.5 * grid.npoints / grid.volume
    return np.fft.irfftn(vg, s=grid.shape, axes=(0, 1, 2))


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
