"""The complexity and error model of Sec. 3.1 — the analysis that makes
divide-and-conquer "lean".

For a cubic system of side L tiled by cubic cores of side l with buffers of
thickness b, and a per-domain solver of complexity (domain size)^ν in volume:

    T(l) = (L/l)³ (l + 2b)^{3ν}                      (total cost)
    l*   = argmin_l T(l) = 2b/(ν - 1)                (optimal core size)
    err(b) ≈ A e^{-b/λ}                              (error decay, Eq. 1)

and the LDC↔DC speedup at equal accuracy follows from the buffer reduction:

    S = [(l + 2 b_dc) / (l + 2 b_ldc)]^{3ν}.

The O(N) ↔ O(N³) crossover is where T(l*) equals the monolithic cost L^{3ν}.
"""

from __future__ import annotations

import numpy as np


def total_cost(l: float, system_length: float, buffer_: float, nu: float = 2.0) -> float:
    """T(l) = (L/l)³ (l+2b)^{3ν}; arbitrary units (prefactor 1)."""
    if l <= 0 or system_length <= 0:
        raise ValueError("lengths must be positive")
    return (system_length / l) ** 3 * (l + 2.0 * buffer_) ** (3.0 * nu)


def optimal_core_length(buffer_: float, nu: float = 2.0) -> float:
    """l* = 2b/(ν-1): the paper's optimum (l* = 2b for ν = 2, l* = b for ν = 3)."""
    if nu <= 1.0:
        raise ValueError("nu must exceed 1 for a finite optimum")
    return 2.0 * buffer_ / (nu - 1.0)


def speedup_factor(
    core_length: float, buffer_dc: float, buffer_ldc: float, nu: float = 2.0
) -> float:
    """LDC-over-DC speedup from buffer reduction at equal accuracy.

    Sec. 5.2 example: l = 11.416, b_dc = 4.73 (the paper quotes 4.72 in the
    speedup formula), b_ldc = 3.57 → 2.03 (ν = 2) or 2.89 (ν = 3).
    """
    if buffer_ldc < 0 or buffer_dc < 0:
        raise ValueError("buffers must be nonnegative")
    return float(
        ((core_length + 2 * buffer_dc) / (core_length + 2 * buffer_ldc)) ** (3 * nu)
    )


def crossover_length(buffer_: float, nu: float = 2.0) -> float:
    """System size L at which T(l*) = L^{3ν} (the O(N)↔O(N³) crossover).

    For ν = 2 this reduces to the paper's L = 8b.
    """
    l_star = optimal_core_length(buffer_, nu)
    # (L/l*)³ (l*+2b)^{3ν} = L^{3ν}  ⇒  L^{3ν-3} = (l*+2b)^{3ν} / l*³
    rhs = (l_star + 2 * buffer_) ** (3 * nu) / l_star**3
    return float(rhs ** (1.0 / (3 * nu - 3)))


def crossover_natoms(
    buffer_: float, number_density: float, nu: float = 2.0
) -> float:
    """Atom count at the crossover, given atoms per Bohr³."""
    if number_density <= 0:
        raise ValueError("number density must be positive")
    return number_density * crossover_length(buffer_, nu) ** 3


def fit_decay_constant(
    buffers: np.ndarray, errors: np.ndarray
) -> tuple[float, float]:
    """Fit |error| ≈ A e^{-b/λ}: returns (λ, A).

    This is the exponential decay of the boundary-condition error with
    buffer thickness predicted by quantum nearsightedness — Fig. 7's trend.
    Zero/negative errors are dropped (converged points carry no slope
    information).
    """
    buffers = np.asarray(buffers, dtype=float)
    errors = np.abs(np.asarray(errors, dtype=float))
    keep = errors > 0
    if keep.sum() < 2:
        raise ValueError("need at least two nonzero errors to fit a decay")
    b = buffers[keep]
    loge = np.log(errors[keep])
    slope, intercept = np.polyfit(b, loge, 1)
    if slope >= 0:
        raise ValueError("errors do not decay with buffer thickness")
    return float(-1.0 / slope), float(np.exp(intercept))
