"""Ewald summation for the ion-ion interaction (energy and forces).

Point charges ``q_I`` (the valence charges of the pseudo-ions) in a periodic
orthorhombic cell with a uniform neutralizing background.  The standard
split:

    E = E_real + E_recip + E_self + E_background

    E_real  = ½ Σ'_{I,J,images} q_I q_J erfc(η r)/r
    E_recip = (2π/Ω) Σ_{G≠0} e^{-G²/4η²}/G² |S(G)|²,   S(G) = Σ_I q_I e^{iG·R_I}
    E_self  = -(η/√π) Σ_I q_I²
    E_bg    = -(π/2Ωη²) (Σ_I q_I)²

Cutoffs are chosen from a requested tolerance; results are η-independent to
that tolerance (tested).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_erfc = np.frompyfunc(math.erfc, 1, 1)

#: bytes the real-space sum may spend on one block of image shifts — a pair
#: of atoms under one shift takes about 64 (its separation vector and its
#: square, the distance, the cutoff mask, the force coefficient) — so the
#: sum is vectorized over as many shifts as fit and nothing of size
#: n_images × natoms² is ever built
IMAGE_BLOCK_BYTES = 1 << 18


def erfc(x: np.ndarray) -> np.ndarray:
    """Complementary error function of a real array, from the standard
    library (within 1e-14 of ``scipy.special.erfc`` over Ewald's range;
    ~0.2 µs per element, so evaluate it once per use)."""
    return _erfc(x).astype(float)


def _choose_eta(cell: np.ndarray, natoms: int) -> float:
    """Balance real/reciprocal work: η ≈ √π (N/Ω²)^{1/6} (standard heuristic)."""
    volume = float(np.prod(cell))
    return float(np.sqrt(np.pi) * (max(natoms, 1) / volume**2) ** (1.0 / 6.0))


def _real_space_images(cell: np.ndarray, rcut: float) -> np.ndarray:
    """Integer lattice translations with any component within ``rcut``."""
    nmax = np.ceil(rcut / cell).astype(int)
    rng = [np.arange(-n, n + 1) for n in nmax]
    shifts = np.array(
        [(i, j, k) for i in rng[0] for j in rng[1] for k in rng[2]], dtype=float
    )
    return shifts * cell


def _recip_vectors(cell: np.ndarray, gcut: float) -> np.ndarray:
    """Nonzero reciprocal vectors with |G| <= gcut."""
    b = 2.0 * np.pi / cell
    nmax = np.ceil(gcut / b).astype(int)
    rng = [np.arange(-n, n + 1) for n in nmax]
    ms = np.array(
        [(i, j, k) for i in rng[0] for j in rng[1] for k in rng[2]], dtype=float
    )
    gs = ms * b
    g2 = np.sum(gs**2, axis=1)
    keep = (g2 > 1e-12) & (g2 <= gcut**2)
    return gs[keep]


@dataclass(frozen=True)
class EwaldStructure:
    """Geometry-only Ewald setup, reusable across MD steps of a fixed cell.

    The splitting parameter, truncation radii, real-space image shifts, and
    reciprocal vectors depend only on the cell and the atom *count* — not the
    positions — so a QMD trajectory can build this once per cell and pass it
    to :func:`ewald` on every step, skipping the image/G-vector enumeration.
    Held by :class:`repro.core.workspace.LDCWorkspace` (no module-level
    cache; the structure is threaded explicitly).
    """

    cell: np.ndarray
    natoms: int
    eta: float
    shifts: np.ndarray
    gs: np.ndarray

    @classmethod
    def build(
        cls,
        cell: np.ndarray,
        natoms: int,
        eta: float | None = None,
        tolerance: float = 1e-10,
    ) -> EwaldStructure:
        cell = np.asarray(cell, dtype=float).reshape(3)
        if eta is None:
            eta = _choose_eta(cell, natoms)
        x = np.sqrt(max(-np.log(tolerance), 1.0))
        rcut = (x + 1.0) / eta
        gcut = 2.0 * eta * (x + 1.0)
        return cls(
            cell=cell,
            natoms=int(natoms),
            eta=float(eta),
            shifts=_real_space_images(cell, rcut),
            gs=_recip_vectors(cell, gcut),
        )

    def matches(self, cell: np.ndarray, natoms: int) -> bool:
        cell = np.asarray(cell, dtype=float).reshape(3)
        return self.natoms == int(natoms) and bool(
            np.array_equal(self.cell, cell)
        )


def ewald(
    positions: np.ndarray,
    charges: np.ndarray,
    cell: np.ndarray,
    eta: float | None = None,
    tolerance: float = 1e-10,
    compute_forces: bool = True,
    structure: EwaldStructure | None = None,
) -> tuple[float, np.ndarray | None]:
    """Ewald energy (Hartree) and forces (Hartree/Bohr) for point charges.

    Parameters
    ----------
    positions:
        ``(natom, 3)`` Cartesian positions in Bohr.
    charges:
        ``(natom,)`` charges in units of e.
    cell:
        Length-3 orthorhombic cell.
    eta:
        Splitting parameter; auto-chosen when omitted.
    tolerance:
        Truncation tolerance for both sums.
    compute_forces:
        Skip the force accumulation when ``False``.
    structure:
        Precomputed :class:`EwaldStructure` for this (cell, atom count);
        skips the image-shift and G-vector enumeration.  Must match the
        given cell and atom count (checked).

    Returns
    -------
    (energy, forces) — forces is ``None`` if not requested.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    charges = np.asarray(charges, dtype=float)
    cell = np.asarray(cell, dtype=float).reshape(3)
    n = len(positions)
    if charges.shape != (n,):
        raise ValueError("one charge per atom required")
    if structure is not None:
        if not structure.matches(cell, n):
            raise ValueError(
                "EwaldStructure was built for a different cell or atom count"
            )
        eta = structure.eta
    elif eta is None:
        eta = _choose_eta(cell, n)

    # Truncation radii from erfc(η r) ~ tol and exp(-G²/4η²) ~ tol.
    x = np.sqrt(max(-np.log(tolerance), 1.0))
    rcut = (x + 1.0) / eta
    gcut = 2.0 * eta * (x + 1.0)

    volume = float(np.prod(cell))
    qtot = float(np.sum(charges))

    energy = 0.0
    forces = np.zeros((n, 3), dtype=float) if compute_forces else None

    # ---- real-space sum (vectorized over pairs and a block of images) -----
    shifts = (
        structure.shifts if structure is not None
        else _real_space_images(cell, rcut)
    )
    diff = positions[:, None, :] - positions[None, :, :]  # (n, n, 3)
    qq = charges[:, None] * charges[None, :]
    atoms = np.arange(n)
    block = max(1, IMAGE_BLOCK_BYTES // max(64 * n * n, 1))
    for start in range(0, len(shifts), block):
        shift = shifts[start:start + block]
        d = diff + shift[:, None, None, :]  # (block, n, n, 3)
        r2 = np.sum(d * d, axis=-1)
        # exclude self-interaction in the home cell
        home = np.flatnonzero(~shift.any(axis=1))
        r2[home[:, None], atoms, atoms] = np.inf
        mask = r2 <= rcut * rcut
        if not mask.any():
            continue
        r2_in = r2[mask]
        r = np.sqrt(r2_in)
        erfc_r = erfc(eta * r)
        qq_in = np.broadcast_to(qq, r2.shape)[mask]
        energy += 0.5 * float(np.sum(qq_in * (erfc_r / r)))
        if compute_forces:
            # dE/dr of ½ q q erfc(ηr)/r, force on atom I from pair (I,J)
            coef = np.zeros(r2.shape, dtype=float)
            coef[mask] = qq_in * (
                erfc_r / r2_in
                + 2.0 * eta / np.sqrt(np.pi) * np.exp(-(eta * r) ** 2) / r
            ) / r
            forces += np.einsum("bij,bijx->ix", coef, d)

    # ---- reciprocal-space sum ---------------------------------------------
    gs = structure.gs if structure is not None else _recip_vectors(cell, gcut)
    if len(gs):
        g2 = np.sum(gs * gs, axis=1)
        phase = np.exp(1j * (gs @ positions.T))  # (ng, n)
        sg = phase @ charges  # (ng,)
        weight = np.exp(-g2 / (4.0 * eta * eta)) / g2
        energy += (2.0 * np.pi / volume) * float(np.sum(weight * np.abs(sg) ** 2))
        if compute_forces:
            # F_I = +(4π/Ω) q_I Σ_G w(G) G Im[e^{iG·R_I} S*(G)]
            phase *= np.conj(sg)[:, None]
            fcontrib = (4.0 * np.pi / volume) * (
                phase.imag.T @ (weight[:, None] * gs)
            )
            forces += charges[:, None] * fcontrib

    # ---- self and background terms -----------------------------------------
    energy -= eta / np.sqrt(np.pi) * float(np.sum(charges**2))
    energy -= np.pi / (2.0 * volume * eta * eta) * qtot * qtot

    return energy, forces
