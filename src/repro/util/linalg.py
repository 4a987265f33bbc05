"""Linear-algebra helpers: orthonormalization and the BLAS2 reference of
the paper's BLAS2 → BLAS3 transformation.

Section 3.4 of the paper rewrites the nonlocal pseudopotential application

    v_nl |ψ_n> = Σ_{ij} Σ_I |β_{i,I}> D_{ij,I} <β_{j,I}|ψ_n>      (Eq. 4)

from per-band matrix-vector products (DGEMV / BLAS2) into packed
matrix-matrix products (DGEMM / BLAS3):

    v_nl Ψ = Σ_{ij} B̃(i) D̃(i,j) B̃(j)^H Ψ                          (Eq. 5)

The band-by-band Eq. 4 is here, as the reference the transformation is
tested and benchmarked against (EXP-BLAS); Eq. 5 is the operator every
``H·ψ`` runs, :meth:`repro.dft.pseudopotential.NonlocalProjectors.apply`.
"""

from __future__ import annotations

import numpy as np


def apply_projectors_blas2(
    projectors: np.ndarray, coeffs: np.ndarray, psi: np.ndarray
) -> np.ndarray:
    """Apply ``v_nl`` band by band (the original BLAS2 formulation).

    Parameters
    ----------
    projectors:
        ``(npw, nproj)`` complex projector matrix ``B``.
    coeffs:
        ``(nproj, nproj)`` coefficient matrix ``D`` (block-diagonal per atom
        in the physical problem; any Hermitian matrix is accepted).
    psi:
        ``(npw, nband)`` wave-function matrix ``Ψ``.

    Returns
    -------
    ``(npw, nband)`` array ``v_nl Ψ`` computed with per-band matvecs
    (``B†`` is formed once, so the loop times the matvecs alone).
    """
    npw, nband = psi.shape
    out = np.zeros_like(psi)
    adjoint = projectors.conj().T
    for n in range(nband):  # deliberate per-band loop: the BLAS2 path
        overlaps = adjoint @ psi[:, n]
        out[:, n] = projectors @ (coeffs @ overlaps)
    return out


def cholesky_orthonormalize(
    psi: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Orthonormalize columns of ``psi`` via Cholesky of the overlap matrix.

    This is the parallel-friendly scheme of Sec. 3.3: build ``S = Ψ^H Ψ``,
    factor ``S = L L^H``, and return ``Ψ L^{-H}``.  Falls back to Löwdin
    orthonormalization when ``S`` is numerically rank-deficient.

    ``out`` (not ``psi``) receives the result and ``scratch`` holds
    conj(Ψ), both complex and shaped like ``psi``: with them nothing of
    ``psi``'s size is allocated.
    """
    s = np.conjugate(psi, out=scratch).T @ psi
    try:
        l = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        result = lowdin_orthonormalize(psi)
        if out is None:
            return result
        out[...] = result
        return out
    # Ψ_new = Ψ L^{-H}: the factor is only nband × nband, so invert it and
    # apply the inverse as one GEMM.
    return np.matmul(psi, np.linalg.inv(l).conj().T, out=out)


def lowdin_orthonormalize(psi: np.ndarray) -> np.ndarray:
    """Symmetric (Löwdin) orthonormalization ``ψ (ψ†ψ)^{-1/2}``.

    The unique orthonormal block closest to ``psi`` in Frobenius norm:
    more expensive than Cholesky but unconditionally stable, so it is
    :func:`cholesky_orthonormalize`'s fallback and the gauge-respecting
    repair of an ASPC-predicted block (:mod:`repro.md.extrapolate`).
    """
    overlap = psi.conj().T @ psi
    evals, evecs = np.linalg.eigh(overlap)
    evals = np.clip(evals.real, 1e-14, None)
    inv_sqrt = (evecs * (evals ** -0.5)) @ evecs.conj().T
    return psi @ inv_sqrt
