"""LDA exchange-correlation: Perdew–Zunger 1981 parametrization of the
Ceperley–Alder electron-gas data (non-spin-polarized).

Returns both the energy density per electron ε_xc(ρ) and the potential
v_xc = d(ρ ε_xc)/dρ.  All quantities in Hartree atomic units.
"""

from __future__ import annotations

import numpy as np

# Slater exchange constant: ε_x = -Cx ρ^{1/3}
_CX = 0.75 * (3.0 / np.pi) ** (1.0 / 3.0)

# PZ81 correlation parameters (unpolarized)
_GAMMA = -0.1423
_BETA1 = 1.0529
_BETA2 = 0.3334
_A = 0.0311
_B = -0.048
_C = 0.0020
_D = -0.0116

#: densities below this are treated as vacuum (ε = v = 0)
RHO_FLOOR = 1e-12

#: grid points per block of :func:`lda_xc`: the temporaries of the two
#: parametrizations (about ten arrays live at once) are this long, not
#: grid-sized
XC_BLOCK = 2048


def lda_exchange(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slater exchange: returns (ε_x, v_x) arrays matching ``rho``."""
    rho = np.asarray(rho, dtype=float)
    eps = np.maximum(rho, RHO_FLOOR)
    np.cbrt(eps, out=eps)
    eps *= -_CX
    eps[rho < RHO_FLOOR] = 0.0
    return eps, (4.0 / 3.0) * eps


def lda_correlation(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PZ81 correlation: returns (ε_c, v_c) arrays matching ``rho``."""
    rho = np.asarray(rho, dtype=float)
    rs = np.maximum(rho, RHO_FLOOR)
    rs *= 4.0 * np.pi
    np.divide(3.0, rs, out=rs)
    np.cbrt(rs, out=rs)
    eps = np.empty_like(rs)
    vc = np.empty_like(rs)

    # low density branch, where most of a valence density lives: in place
    #   ε = γ / (1 + β₁√rs + β₂rs)
    #   v = ε (1 + 7/6 β₁√rs + 4/3 β₂rs) / (1 + β₁√rs + β₂rs)
    low = rs >= 1.0
    r = rs[low]
    sq = np.sqrt(r)
    denom = _BETA1 * sq
    denom += 1.0
    denom += _BETA2 * r
    eps_low = _GAMMA / denom
    eps[low] = eps_low
    sq *= (7.0 / 6.0) * _BETA1
    sq += 1.0
    r *= (4.0 / 3.0) * _BETA2
    sq += r
    sq *= eps_low
    sq /= denom
    vc[low] = sq

    high = np.logical_not(low, out=low)  # high density branch
    if high.any():
        r = rs[high]
        ln = np.log(r)
        eps[high] = _A * ln + _B + _C * r * ln + _D * r
        vc[high] = (
            _A * ln
            + (_B - _A / 3.0)
            + (2.0 / 3.0) * _C * r * ln
            + ((2.0 * _D - _C) / 3.0) * r
        )

    zero = rho < RHO_FLOOR
    if zero.any():
        eps[zero] = 0.0
        vc[zero] = 0.0
    return eps, vc


def lda_xc(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Combined LDA: returns (ε_xc, v_xc).

    Evaluated ``XC_BLOCK`` points at a time straight into the two results,
    so nothing of grid size is allocated beyond them; point by point the
    values are those of :func:`lda_exchange` + :func:`lda_correlation`.
    """
    rho = np.ascontiguousarray(rho, dtype=float)
    eps, v = np.empty(rho.shape), np.empty(rho.shape)
    flat, eps_flat, v_flat = rho.reshape(-1), eps.reshape(-1), v.reshape(-1)
    for start in range(0, flat.size, XC_BLOCK):
        block = slice(start, start + XC_BLOCK)
        eps_flat[block], v_flat[block] = lda_exchange(flat[block])
        ec, vc = lda_correlation(flat[block])
        eps_flat[block] += ec
        v_flat[block] += vc
    return eps, v
