"""Linear-algebra helpers: the one Cholesky orthonormalization of the
paper's Sec. 3.3 and its Löwdin fallback."""

from __future__ import annotations

import numpy as np


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
