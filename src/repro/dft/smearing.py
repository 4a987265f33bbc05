"""Occupation smearing schemes beyond Fermi–Dirac.

Production plane-wave codes choose among several broadening schemes for the
occupation step; we provide the two standard alternatives (Gaussian and
first-order Methfessel–Paxton) behind the same interface as
:mod:`repro.dft.occupations`, so the SCF drivers and the DC chemical-
potential search can use any of them.
"""

from __future__ import annotations

import numpy as np

from repro.dft.occupations import fermi_occupations


def gaussian_occupations(eigenvalues, mu: float, kt: float) -> np.ndarray:
    """Gaussian smearing: f = erfc((ε-μ)/kT)/… scaled to [0, 2]."""
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    if kt <= 0:
        return np.where(eigenvalues <= mu, 2.0, 0.0)
    from scipy.special import erfc

    x = (eigenvalues - mu) / kt
    return erfc(x)  # erfc ∈ [0, 2]: full at -∞, empty at +∞


def methfessel_paxton_occupations(
    eigenvalues, mu: float, kt: float
) -> np.ndarray:
    """First-order Methfessel–Paxton smearing (clipped to [0, 2]).

    f(x) = erfc(x) + x e^{-x²}/√π — reduces the smearing-entropy bias at the
    cost of slightly non-monotonic occupations near μ (clipped here).
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    if kt <= 0:
        return np.where(eigenvalues <= mu, 2.0, 0.0)
    from scipy.special import erfc

    x = (eigenvalues - mu) / kt
    f = erfc(x) + x * np.exp(-np.clip(x * x, 0, 700)) / np.sqrt(np.pi)
    return np.clip(f, 0.0, 2.0)


SCHEMES = {
    "fermi": fermi_occupations,
    "gaussian": gaussian_occupations,
    "methfessel-paxton": methfessel_paxton_occupations,
}


def occupations(scheme: str, eigenvalues, mu: float, kt: float) -> np.ndarray:
    """Dispatch by scheme name."""
    try:
        fn = SCHEMES[scheme]
    except KeyError as exc:
        raise ValueError(
            f"unknown smearing scheme {scheme!r}; known: {sorted(SCHEMES)}"
        ) from exc
    return fn(eigenvalues, mu, kt)


def find_mu(
    scheme: str,
    eigenvalues,
    n_electrons: float,
    kt: float,
    weights=None,
    tol: float = 1e-12,
    max_iter: int = 300,
) -> float:
    """Bisection μ-search valid for any (possibly non-monotone-slope) scheme."""
    eigenvalues = np.asarray(eigenvalues, dtype=float).ravel()
    w = np.ones_like(eigenvalues) if weights is None else np.asarray(weights, float)
    capacity = 2.0 * float(w.sum())
    if not 0.0 <= n_electrons <= capacity + 1e-9:
        raise ValueError("electron count outside state capacity")

    def count(mu):
        return float(np.sum(w * occupations(scheme, eigenvalues, mu, kt)))

    lo = float(eigenvalues.min()) - 20.0 * max(kt, 1e-6) - 1.0
    hi = float(eigenvalues.max()) + 20.0 * max(kt, 1e-6) + 1.0
    for _ in range(max_iter):
        mu = 0.5 * (lo + hi)
        c = count(mu)
        if abs(c - n_electrons) < tol:
            return mu
        if c > n_electrons:
            hi = mu
        else:
            lo = mu
    return 0.5 * (lo + hi)
