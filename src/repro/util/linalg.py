"""Linear-algebra helpers mirroring the paper's BLAS2 → BLAS3 transformation.

Section 3.4 of the paper rewrites the nonlocal pseudopotential application

    v_nl |ψ_n> = Σ_{ij} Σ_I |β_{i,I}> D_{ij,I} <β_{j,I}|ψ_n>      (Eq. 4)

from per-band matrix-vector products (DGEMV / BLAS2) into packed
matrix-matrix products (DGEMM / BLAS3):

    v_nl Ψ = Σ_{ij} B̃(i) D̃(i,j) B̃(j)^H Ψ                          (Eq. 5)

Both code paths are implemented here so the transformation itself can be
tested for exact agreement and benchmarked (EXP-BLAS).
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
    ``(npw, nband)`` array ``v_nl Ψ`` computed with per-band matvecs.
    """
    npw, nband = psi.shape
    out = np.zeros_like(psi)
    for n in range(nband):  # deliberate per-band loop: the BLAS2 path
        overlaps = projectors.conj().T @ psi[:, n]
        out[:, n] = projectors @ (coeffs @ overlaps)
    return out


def apply_projectors_blas3(
    projectors: np.ndarray, coeffs: np.ndarray, psi: np.ndarray
) -> np.ndarray:
    """Apply ``v_nl`` to all bands at once (the paper's BLAS3 formulation)."""
    overlaps = projectors.conj().T @ psi  # (nproj, nband) — one GEMM
    return projectors @ (coeffs @ overlaps)  # two more GEMMs


def blocked_gram(psi: np.ndarray, block: int = 64, weights=None) -> np.ndarray:
    """Overlap (Gram) matrix ``S = Ψ^H Ψ`` computed in column blocks.

    Blocking mirrors the reciprocal-space decomposition used for the
    distributed overlap-matrix construction in Sec. 3.3: each block of rows
    of ``Ψ`` (a slab of reciprocal-space grid points) contributes a partial
    sum, and the partial sums are reduced.

    Parameters
    ----------
    psi:
        ``(npw, nband)`` wave-function matrix.
    block:
        Row-block size (number of plane waves per slab).
    weights:
        Optional per-row real weights (e.g. a partition-of-unity restriction).
    """
    npw, nband = psi.shape
    s = np.zeros((nband, nband), dtype=psi.dtype)
    for start in range(0, npw, block):
        slab = psi[start : start + block]
        if weights is not None:
            w = np.asarray(weights)[start : start + block]
            s += slab.conj().T @ (w[:, None] * slab)
        else:
            s += slab.conj().T @ slab
    return s


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
    """Symmetric (Löwdin) orthonormalization ``Ψ S^{-1/2}``.

    More expensive than Cholesky but unconditionally stable; used as the
    fallback and in tests as an independent reference.
    """
    s = psi.conj().T @ psi
    evals, evecs = np.linalg.eigh(s)
    evals = np.clip(evals, 1e-14, None)
    s_inv_half = (evecs * (1.0 / np.sqrt(evals))) @ evecs.conj().T
    return psi @ s_inv_half
