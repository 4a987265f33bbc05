"""Finite-difference Laplacian stencils on periodic grids.

Second-order 7-point stencil as slice arithmetic on C-contiguous arrays.
The periodic neighbour sum ``u[i-1] + u[i+1]`` along an axis is one
addition of two shifted views of the *flattened* field (a shift by the
axis' stride is a contiguous slice) plus the two wrapped faces, written
into a buffer the caller owns — what ``np.roll(u, 1) + np.roll(u, -1)``
evaluates, without the shifted copies.  A red-black colour is the four
stride-2 sub-lattices whose index parities sum to it, so a sweep writes
through plain slices, never a boolean mask.  The ``*_into`` / in-place
kernels allocate nothing — they are what
:class:`~repro.multigrid.poisson.MultigridPoisson` runs on its per-level
buffers.
"""

from __future__ import annotations

import math

import numpy as np


def _at(axis: int, index) -> tuple:
    """The 3-D index that applies ``index`` along ``axis`` only."""
    sl: list = [slice(None)] * 3
    sl[axis] = index
    return tuple(sl)


#: per axis, (destination, left operand, right operand) of the two wrapped
#: faces of :func:`neighbour_sum`
_FACES = tuple(
    (
        (_at(axis, 0), _at(axis, -1), _at(axis, 1)),
        (_at(axis, -1), _at(axis, -2), _at(axis, 0)),
    )
    for axis in range(3)
)

#: the points with ``(i + j + k) % 2 == colour`` as four stride-2
#: sub-lattices, red (0, swept first) then black
_COLOURS = tuple(
    tuple(
        tuple(slice(start, None, 2) for start in starts)
        for starts in np.ndindex(2, 2, 2)
        if sum(starts) % 2 == colour
    )
    for colour in (0, 1)
)


def neighbour_sum(u: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """``out[i] = u[i-1] + u[i+1]`` along ``axis`` with periodic wrap.

    Both arrays C-contiguous, at least two points on the axis, ``out`` not
    aliasing ``u``."""
    if not (u.flags.c_contiguous and out.flags.c_contiguous):
        raise ValueError("neighbour_sum needs C-contiguous arrays")
    stride = math.prod(u.shape[axis + 1:])
    flat, flat_out = u.reshape(-1), out.reshape(-1)
    # right everywhere off the two faces, which are written next
    np.add(
        flat[:-2 * stride], flat[2 * stride:], out=flat_out[stride:-stride]
    )
    for dst, left, right in _FACES[axis]:
        np.add(u[left], u[right], out=out[dst])
    return out


def squared_spacings(spacing) -> tuple[list, np.ndarray]:
    """``(h², 1/h²)`` per axis as the Laplacian and the smoother use them.

    The Laplacian divides by ``spacing[axis] ** 2`` (NumPy's scalar power),
    the smoother multiplies by ``1 / spacing**2`` (the array square); the
    two squares differ in the last bit for about one spacing in a
    thousand, and keeping each kernel on its own keeps every multigrid
    result bit-equal to the ``np.roll`` formulation it is tested against.
    """
    spacing = np.asarray(spacing, dtype=float).reshape(3)
    return [h**2 for h in spacing], 1.0 / spacing**2


def laplacian_into(
    field: np.ndarray, h2, out: np.ndarray, t: np.ndarray, w: np.ndarray,
) -> np.ndarray:
    """``out = ∇²field`` for the per-axis ``h2`` of
    :func:`squared_spacings`; ``t`` and ``w`` are scratch of the field's
    shape."""
    np.multiply(field, 2.0, out=w)
    for axis in range(3):
        dst = t if axis else out
        neighbour_sum(field, axis, dst)
        dst -= w
        dst /= h2[axis]
        if axis:
            out += t
    return out


def residual_into(
    field: np.ndarray, rhs: np.ndarray, h2, out: np.ndarray,
    t: np.ndarray, w: np.ndarray,
) -> np.ndarray:
    """``out = rhs - ∇²field`` (scratch as in :func:`laplacian_into`)."""
    laplacian_into(field, h2, out, t, w)
    return np.subtract(rhs, out, out=out)


def gauss_seidel_sweeps(
    u: np.ndarray, rhs: np.ndarray, inv_h2: np.ndarray, sweeps: int,
    t: np.ndarray, w: np.ndarray,
) -> np.ndarray:
    """``sweeps`` red-black Gauss–Seidel sweeps on ``u``, in place.

    ``inv_h2`` is :func:`squared_spacings`' second value.  Each colour is
    relaxed from the current neighbours of the whole grid (scratch ``t``,
    ``w``) and written to the colour's sub-lattices only."""
    diag = -2.0 * np.sum(inv_h2)
    for _ in range(sweeps):
        for colour in _COLOURS:
            neighbour_sum(u, 0, t)
            t *= inv_h2[0]
            for axis in (1, 2):
                neighbour_sum(u, axis, w)
                w *= inv_h2[axis]
                t += w
            np.subtract(rhs, t, out=t)
            for lattice in colour:
                np.divide(t[lattice], diag, out=u[lattice])
    return u
