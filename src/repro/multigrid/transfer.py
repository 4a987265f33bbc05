"""Inter-grid transfer operators: full-weighting restriction and trilinear
prolongation on periodic grids with even sizes, as slice arithmetic.

Both are separable, one axis at a time, and touch only the points a later
axis still needs: restriction decimates as it goes (the second axis sees
half the field, the third a quarter), prolongation widens the coarse field
one axis at a time (a quarter, half, then all of the fine field).  The
``*_into`` kernels write into buffers the caller owns; the allocating
public helpers call them.
"""

from __future__ import annotations

import numpy as np

from repro.multigrid.stencils import _at

_EVEN, _ODD = slice(0, None, 2), slice(1, None, 2)


def _restrict_axis(
    src: np.ndarray, axis: int, out: np.ndarray, tmp: np.ndarray
) -> None:
    """``out[m] = ¼ src[2m-1] + ½ src[2m] + ¼ src[2m+1]`` along ``axis``
    (periodic), summed left to right; ``tmp`` is scratch shaped as ``out``."""
    even, odd = src[_at(axis, _EVEN)], src[_at(axis, _ODD)]
    np.multiply(
        odd[_at(axis, slice(None, -1))], 0.25, out=out[_at(axis, slice(1, None))]
    )
    np.multiply(odd[_at(axis, -1)], 0.25, out=out[_at(axis, 0)])
    np.multiply(even, 0.5, out=tmp)
    out += tmp
    np.multiply(odd, 0.25, out=tmp)
    out += tmp


def restrict_into(
    fine: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Full-weighting restriction of ``fine`` into ``out`` (half the points
    per axis); ``scratch`` is any array of at least ``fine.size`` floats
    (the two half-decimated intermediates and their temporaries live in
    it)."""
    n0, n1, n2 = fine.shape
    if n0 % 2 or n1 % 2 or n2 % 2:
        raise ValueError(f"fine grid must have even shape, got {fine.shape}")
    flat = scratch.reshape(-1)
    half, quarter = fine.size // 2, fine.size // 4
    first = flat[:half].reshape(n0 // 2, n1, n2)
    _restrict_axis(
        fine, 0, first, flat[half:2 * half].reshape(first.shape)
    )
    # the first axis' temporary is free again: the second result goes there
    second = flat[half:half + quarter].reshape(n0 // 2, n1 // 2, n2)
    _restrict_axis(
        first, 1, second,
        flat[half + quarter:half + 2 * quarter].reshape(second.shape),
    )
    _restrict_axis(second, 2, out, flat[:out.size].reshape(out.shape))
    return out


def _prolong_axis(src: np.ndarray, axis: int, out: np.ndarray) -> None:
    """``out`` is ``src`` twice as long along ``axis``: even points inject,
    odd points average their two periodic neighbours.  ``out`` must not
    share memory with ``src`` (NumPy would copy the operands first)."""
    even, odd = out[_at(axis, _EVEN)], out[_at(axis, _ODD)]
    even[...] = src
    lower, upper = _at(axis, slice(None, -1)), _at(axis, slice(1, None))
    np.add(src[lower], src[upper], out=odd[lower])
    np.add(src[_at(axis, -1)], src[_at(axis, 0)], out=odd[_at(axis, -1)])
    odd *= 0.5


def prolong_into(
    coarse: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Trilinear prolongation of ``coarse`` into ``out`` (twice the points
    per axis), every element of which is written; ``scratch`` is any array
    of at least ``6 * coarse.size`` floats (the fields widened along one
    and along two axes live in it)."""
    n0, n1, n2 = coarse.shape
    flat = scratch.reshape(-1)
    one = flat[:2 * coarse.size].reshape(2 * n0, n1, n2)
    two = flat[2 * coarse.size:6 * coarse.size].reshape(2 * n0, 2 * n1, n2)
    _prolong_axis(coarse, 0, one)
    _prolong_axis(one, 1, two)
    _prolong_axis(two, 2, out)
    return out


def full_weighting_restrict(fine: np.ndarray) -> np.ndarray:
    """Restrict a fine field to the coarse grid (half the points per axis).

    Full weighting: the coarse value is the 27-point average with trilinear
    weights (separable [1/4, 1/2, 1/4] per axis).
    """
    fine = np.asarray(fine, dtype=float)
    out = np.empty(tuple(n // 2 for n in fine.shape))
    return restrict_into(fine, out, np.empty(fine.size))


def trilinear_prolong(coarse: np.ndarray) -> np.ndarray:
    """Prolongate a coarse field to the doubled grid by trilinear interpolation.

    The adjoint (up to scaling) of :func:`full_weighting_restrict`.
    """
    coarse = np.asarray(coarse)
    out = np.empty(tuple(2 * n for n in coarse.shape), dtype=coarse.dtype)
    return prolong_into(
        coarse, out, np.empty(6 * coarse.size, dtype=coarse.dtype)
    )
