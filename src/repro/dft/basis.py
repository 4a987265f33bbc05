"""Plane-wave basis restricted by a kinetic-energy cutoff.

Wave functions are expanded as ``ψ(r) = (1/√Ω) Σ_G c_G e^{iG·r}`` over the
plane waves with ``|G|²/2 ≤ E_cut``.  With this normalization a unit-norm
coefficient vector is a normalized orbital, and transforms to/from the real
grid are batched FFTs — the "locally fast" half of the paper's GSLF solver.

Orbitals are stored column-wise: ``psi`` has shape ``(npw, nband)``, so the
all-band operations of Sec. 3.4 are plain matrix-matrix products.

Hot-path note: the transforms are *staged* (pruned).  The coefficients live
inside the cutoff sphere, so most 1-D lines of the 3-D transform are
identically zero on the coefficient side: ``to_grid`` transforms z only on
the (x, y) columns that hold a plane wave, y only on the x-planes that hold
one, and x on everything; ``from_grid`` runs the same stages backwards and
drops, after each, the lines that cannot reach the sphere.  Skipping a zero
line changes nothing, so the result equals the dense 3-D transform to
rounding (DESIGN.md §18).  Rows are transformed in blocks of
:attr:`PlaneWaveBasis.block_rows` so every stage's working set stays
cache-sized.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.dft.grid import RealSpaceGrid

#: Target bytes of one row block's full-grid complex field.  A block goes
#: to-grid → potential → from-grid while it is still cache-resident; 1 MiB
#: leaves room in a per-core L2 for the block plus the stage output.
FIELD_BLOCK_BYTES = 1 << 20


class PlaneWaveBasis:
    """The set of plane waves with kinetic energy ≤ ``ecut`` on a grid.

    The staged transforms scatter into three pooled stage buffers of
    :attr:`block_rows` rows each (z-columns, x-planes, full grid).  Only the
    positions a stage scatters to are ever written, so the rest of each
    buffer stays zero and never needs re-zeroing.  There is one pool per
    ``PlaneWaveBasis`` and it is never shared: an instance must not be used
    by two threads at once.  The LDC driver gives every domain its own
    basis, so the ``ldc_workers`` fan-out stays safe, and the stacked
    (``batch_domains``) kernels run on the coordinating thread only.
    Everything the transforms *return* is freshly allocated.
    """

    def __init__(self, grid: RealSpaceGrid, ecut: float) -> None:
        if ecut <= 0:
            raise ValueError("ecut must be positive")
        self.grid = grid
        self.ecut = float(ecut)
        g2 = grid.g2()
        mask = 0.5 * g2 <= self.ecut
        #: flat indices into the FFT grid for each basis plane wave
        self.indices = np.flatnonzero(mask.ravel())
        #: number of plane waves
        self.npw = int(self.indices.size)
        if self.npw < 2:
            raise ValueError(
                f"cutoff {ecut} yields only {self.npw} plane waves on grid "
                f"{grid.shape}; increase ecut or grid"
            )
        #: |G|² per basis function, shape (npw,)
        self.g2 = g2.ravel()[self.indices]
        #: G vectors per basis function, shape (npw, 3)
        self.g_vectors = grid.g_vectors().reshape(-1, 3)[self.indices]
        n0, n1, n2 = grid.shape
        ix, iy, iz = np.unravel_index(self.indices, grid.shape)
        #: integer Miller indices per basis function, shape (npw, 3)
        mx, my, mz = grid.miller()
        self.miller = np.stack([mx[ix], my[iy], mz[iz]], axis=-1)
        self._norm_to_grid = grid.npoints / np.sqrt(grid.volume)
        self._norm_from_grid = np.sqrt(grid.volume) / grid.npoints
        # Staged-transform maps, from the sorted *occupied* grid indices
        # (not a ±M range: grid_factor < 2, odd sizes and the even-size
        # Nyquist line need no special case).
        #: grid x index of every x-plane that holds a plane wave
        self._planes = np.unique(ix)
        columns, self._pw_column = np.unique(ix * n1 + iy, return_inverse=True)
        #: per occupied (x, y) column: its slot in ``_planes`` and its y
        self._column_plane = np.searchsorted(self._planes, columns // n1)
        self._column_y = columns % n1
        self._pw_z = iz
        #: ``(lines, length)`` of the 1-D transforms each stage runs per
        #: band (z, y, x) — what the FLOP model counts
        self.stage_lines = (
            (int(columns.size), n2),
            (int(self._planes.size) * n2, n1),
            (n1 * n2, n0),
        )
        #: rows per transform block: one block's full-grid field is about
        #: ``FIELD_BLOCK_BYTES``
        self.block_rows = max(1, FIELD_BLOCK_BYTES // (16 * grid.npoints))
        self._pool: dict[tuple[str, Any], Any] = {}

    def __getstate__(self) -> dict[str, Any]:
        # the pool is scratch keyed by array module (not copyable, and not
        # worth copying): a copied or unpickled basis starts with its own
        return {**self.__dict__, "_pool": {}}

    def structurally_equal(self, other: "PlaneWaveBasis") -> bool:
        """Whether two bases describe the *same* plane-wave set (same grid
        shape, cutoff, and G-sphere) — the precondition for stacking their
        orbital blocks into one batched kernel (shape-class batching)."""
        return (
            self.grid.shape == other.grid.shape
            and self.ecut == other.ecut
            and self.npw == other.npw
            and np.array_equal(self.indices, other.indices)
        )

    # -- staged transforms, one block -----------------------------------------

    def _stage(self, name: str, shape: tuple[int, ...], nrows: int, xp: Any) -> Any:
        """The first ``nrows`` rows of the pooled, zero-outside-its-scatter
        input buffer of one stage (allocated on the backend ``xp``)."""
        buf = self._pool.get((name, xp))
        if buf is None:
            buf = xp.zeros((self.block_rows,) + shape, dtype=complex)
            self._pool[name, xp] = buf
        return buf[:nrows]

    def _block_to_grid(self, rows: Any, xp: Any) -> Any:
        """``(nrows ≤ block_rows, npw)`` coefficient rows → fresh
        ``(nrows, *grid.shape)`` fields: z on the occupied columns, y on the
        occupied planes, x on everything."""
        nrows = rows.shape[0]
        n0, n1, n2 = self.grid.shape
        columns = self._stage("columns", (self._column_y.size, n2), nrows, xp)
        columns[:, self._pw_column, self._pw_z] = rows * self._norm_to_grid
        planes = self._stage("planes", (self._planes.size, n1, n2), nrows, xp)
        planes[:, self._column_plane, self._column_y] = xp.fft.ifftn(
            columns, axes=(2,)
        )
        full = self._stage("grid", (n0, n1, n2), nrows, xp)
        full[:, self._planes] = xp.fft.ifftn(planes, axes=(2,))
        return xp.fft.ifftn(full, axes=(1,))

    def _block_from_grid(self, fields: Any, xp: Any) -> Any:
        """Adjoint of :meth:`_block_to_grid`: after each stage keep only the
        lines that reach the sphere."""
        spectra = xp.fft.fftn(fields, axes=(1,))[:, self._planes]
        spectra = xp.fft.fftn(spectra, axes=(2,))[
            :, self._column_plane, self._column_y
        ]
        coeffs = xp.fft.fftn(spectra, axes=(2,))[:, self._pw_column, self._pw_z]
        coeffs *= self._norm_from_grid
        return coeffs

    def _blocked(self, kernel: Any, rows: Any, row_shape: tuple, xp: Any) -> Any:
        """``kernel`` (one of the two block transforms) over any number of
        rows, a block at a time; a single block is returned as the kernel
        made it, without a copy."""
        nrows, step = rows.shape[0], self.block_rows
        if nrows <= step:
            return kernel(rows, xp)
        out = xp.empty((nrows,) + row_shape, dtype=complex)
        for a in range(0, nrows, step):
            out[a:a + step] = kernel(rows[a:a + step], xp)
        return out

    def _rows_to_grid(self, rows: Any, xp: Any) -> Any:
        return self._blocked(self._block_to_grid, rows, self.grid.shape, xp)

    def _rows_from_grid(self, fields: Any, xp: Any) -> Any:
        return self._blocked(self._block_from_grid, fields, (self.npw,), xp)

    # -- transforms ----------------------------------------------------------

    def to_grid(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficients → real-space orbital(s).

        ``coeffs`` is ``(npw,)`` or ``(npw, nband)``; returns an array of
        shape ``grid.shape`` or ``(nband, *grid.shape)`` (complex).
        """
        coeffs = np.asarray(coeffs)
        if coeffs.ndim == 1:
            return self._rows_to_grid(coeffs[None], np)[0]
        return self._rows_to_grid(coeffs.T, np)

    def from_grid(self, fields: np.ndarray) -> np.ndarray:
        """Real-space orbital(s) → coefficients (adjoint of :meth:`to_grid`)."""
        fields = np.asarray(fields, dtype=complex)
        if fields.ndim == 3:
            return self._rows_from_grid(fields[None], np)[0]
        return self._rows_from_grid(fields, np).T

    def to_grid_batch(self, coeffs: Any, xp: Any = np) -> Any:
        """Stacked :meth:`to_grid`: ``(nd, npw, nband)`` coefficients →
        ``(nd, nband, *grid.shape)`` real-space fields.

        Every band's field is transformed independently, so each
        ``coeffs[d]`` slice comes out as ``to_grid`` would produce it.
        ``xp`` is the array-module namespace from :func:`repro.backend.get`.
        """
        coeffs = xp.asarray(coeffs)
        nd, _, nband = coeffs.shape
        rows = coeffs.transpose(0, 2, 1).reshape(nd * nband, self.npw)
        return self._rows_to_grid(rows, xp).reshape(
            (nd, nband) + self.grid.shape
        )

    def from_grid_batch(self, fields: Any, xp: Any = np) -> Any:
        """Stacked :meth:`from_grid`: ``(nd, nband, *grid.shape)`` fields →
        ``(nd, npw, nband)`` coefficients (adjoint of :meth:`to_grid_batch`)."""
        nd, nband = fields.shape[:2]
        rows = self._rows_from_grid(
            fields.reshape((nd * nband,) + self.grid.shape), xp
        )
        return rows.reshape(nd, nband, self.npw).transpose(0, 2, 1)

    # -- initial guesses -----------------------------------------------------

    def random_orbitals(self, nband: int, seed: int = 0) -> np.ndarray:
        """Random orthonormal starting orbitals, low-G biased for fast CG."""
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(self.npw, nband)) + 1j * rng.normal(
            size=(self.npw, nband)
        )
        # Damp high-frequency components so the guess lives mostly in the
        # low-energy subspace — dramatically improves solver robustness.
        damp = 1.0 / (1.0 + self.g2)
        raw *= damp[:, None]
        q, _ = np.linalg.qr(raw)
        return q[:, :nband]


def density_from_orbitals(
    basis: PlaneWaveBasis, psi: np.ndarray, occupations: np.ndarray
) -> np.ndarray:
    """Electron density ``ρ(r) = Σ_n f_n |ψ_n(r)|²`` on the real grid.

    Normalization: ``∫ ρ dr = Σ_n f_n`` when the orbitals are orthonormal.
    """
    occupations = np.asarray(occupations, dtype=float)
    if psi.shape[1] != occupations.size:
        raise ValueError("one occupation per band required")
    return density_from_fields(basis.to_grid(psi), occupations)


def density_from_fields(
    fields: np.ndarray, occupations: np.ndarray
) -> np.ndarray:
    """``ρ(r) = Σ_n f_n |ψ_n(r)|²`` from precomputed real-space fields.

    The drivers obtain ``fields`` from :attr:`EigenResult.fields` (the
    eigensolver's final ``H·ψ`` transform, reused) instead of re-running
    :meth:`PlaneWaveBasis.to_grid` on the converged orbitals.
    """
    occupations = np.asarray(occupations, dtype=float)
    if fields.shape[0] != occupations.size:
        raise ValueError("one occupation per band required")
    return np.einsum("n,nijk->ijk", occupations, np.abs(fields) ** 2)
