"""Real-space grids, reciprocal vectors, and FFT conventions.

Conventions used across the whole package (orthorhombic cell, lengths
``L = (L0, L1, L2)``, grid shape ``n = (n0, n1, n2)``):

* Real-space fields ``f(r)`` are arrays of shape ``n``; grid point
  ``(i, j, k)`` sits at ``(i L0/n0, j L1/n1, k L2/n2)``.
* Reciprocal vectors ``G`` have components ``2π m_i / L_i`` with integer
  Miller indices ``m_i`` in FFT (wrap-around) order.
* Fourier coefficients of a field use the *density convention*
  ``f̃(G) = (1/Ω) ∫ f(r) e^{-iG·r} dr  =  fftn(f)/N_grid``,
  so ``f(r) = Σ_G f̃(G) e^{iG·r}`` and Parseval reads
  ``∫ f* g dr = Ω Σ_G f̃* g̃``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from numpy.typing import ArrayLike


class RealSpaceGrid:
    """A periodic orthorhombic real-space grid and its reciprocal-space
    tables."""

    def __init__(self, lengths: ArrayLike, shape: ArrayLike) -> None:
        self.lengths = np.asarray(lengths, dtype=float).reshape(3)
        self.shape = tuple(int(s) for s in np.asarray(shape).reshape(3))
        if np.any(self.lengths <= 0):
            raise ValueError(f"grid lengths must be positive, got {self.lengths}")
        if any(s < 2 for s in self.shape):
            raise ValueError(f"grid shape must be >= 2 per axis, got {self.shape}")
        self.volume = float(np.prod(self.lengths))
        self.npoints = int(np.prod(self.shape))
        #: volume element of one grid voxel
        self.dv = self.volume / self.npoints
        #: grid spacing per axis
        self.spacing = self.lengths / np.array(self.shape, dtype=float)
        self._g_cache: dict[str, np.ndarray] = {}

    # -- construction helpers ------------------------------------------------

    @classmethod
    def for_cutoff(
        cls, lengths: ArrayLike, ecut: float, factor: float = 2.0
    ) -> RealSpaceGrid:
        """Grid dense enough to represent plane waves up to ``ecut``.

        ``factor = 2`` gives the exact-density grid (covers ``2 G_max``);
        smaller factors alias high-frequency density components, which is an
        acceptable economy for toy cutoffs.
        """
        lengths = np.asarray(lengths, dtype=float).reshape(3)
        gmax = np.sqrt(2.0 * ecut)
        shape: list[int] = []
        for length in lengths:
            # Cover |G| up to factor·G_max per axis: π n / L ≥ factor·G_max.
            n = max(4, int(np.ceil(factor * gmax * length / np.pi)) + 1)
            shape.append(_next_fast_size(n))
        return cls(lengths, shape)

    # -- coordinates ---------------------------------------------------------

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """1-D coordinate arrays per axis."""
        x, y, z = (
            np.arange(n) * (length / n)
            for n, length in zip(self.shape, self.lengths)
        )
        return x, y, z

    def points(self) -> np.ndarray:
        """``(*shape, 3)`` array of grid-point coordinates."""
        x, y, z = self.axes()
        out = np.empty(self.shape + (3,), dtype=float)
        out[..., 0] = x[:, None, None]
        out[..., 1] = y[None, :, None]
        out[..., 2] = z[None, None, :]
        return out

    def min_image_distance(self, center: ArrayLike) -> np.ndarray:
        """Minimum-image distance of every grid point from ``center``."""
        center = np.asarray(center, dtype=float).reshape(3)
        dist2 = np.zeros(self.shape, dtype=float)
        for axis, (coords, length) in enumerate(zip(self.axes(), self.lengths)):
            d = coords - center[axis]
            d -= length * np.round(d / length)
            shape = [1, 1, 1]
            shape[axis] = -1
            dist2 = dist2 + (d.reshape(shape)) ** 2
        return np.sqrt(dist2)

    # -- reciprocal space ----------------------------------------------------

    def miller(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Integer Miller indices per axis in FFT order."""
        mx, my, mz = (
            np.fft.fftfreq(n, d=1.0 / n).astype(int) for n in self.shape
        )
        return mx, my, mz

    def g_components(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """1-D arrays of G components (2π m / L) per axis in FFT order —
        what the plane-wave basis builds its sphere and G tables from, so
        that no full-grid table is cached for it."""
        gx, gy, gz = (
            2.0 * np.pi * m / length
            for m, length in zip(self.miller(), self.lengths)
        )
        return gx, gy, gz

    # -- the half grid of ``np.fft.rfftn`` -----------------------------------
    # A real field's spectrum is Hermitian, so the global layers keep the
    # last axis' ``0 … n2 // 2`` only: half the transform, half the tables.

    def half_g_components(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`g_components` with the last axis cut to the half grid
        (its Nyquist component, on an even axis, keeps FFT order's minus
        sign)."""
        gx, gy, gz = self.g_components()
        return gx, gy, gz[: self.shape[2] // 2 + 1]

    def g2_half(self) -> np.ndarray:
        """``|G|²`` on the half grid (built per call: its users cache what
        they derive from it)."""
        gx, gy, gz = self.half_g_components()
        return (
            gx[:, None, None] ** 2
            + gy[None, :, None] ** 2
            + gz[None, None, :] ** 2
        )

    def table(self, key: str, build: Callable[[], np.ndarray]) -> np.ndarray:
        """A reciprocal-space table of this grid, built on first use and
        kept with the grid; ``key`` names it and whatever else it depends
        on (a species' parameters, say)."""
        if key not in self._g_cache:
            self._g_cache[key] = build()
        return self._g_cache[key]

    def coulomb_kernel(self) -> np.ndarray:
        """``4π/|G|²`` (zero at ``G = 0``) on the half grid."""
        def build() -> np.ndarray:
            g2 = self.g2_half()
            kernel = np.zeros(g2.shape)
            return np.divide(4.0 * np.pi, g2, out=kernel, where=g2 > 0)

        return self.table("coulomb", build)

    # -- integrals -----------------------------------------------------------

    def integrate(self, field: np.ndarray) -> float:
        """∫ field dr over the cell."""
        return float(np.sum(field) * self.dv)

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        """∫ a·b dr over the cell for two real fields, as one dot product
        (no product array)."""
        return float(np.dot(a.reshape(-1), b.reshape(-1)) * self.dv)

    # -- misc ----------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RealSpaceGrid(lengths={self.lengths.tolist()}, shape={self.shape})"


def _next_fast_size(n: int) -> int:
    """Smallest 2,3,5-smooth integer >= n (FFT-friendly sizes)."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1
