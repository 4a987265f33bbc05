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
cache-sized, and every stage reads and writes pooled buffers through
``np.fft.fft/ifft(axis=…, out=…)``: with ``out=`` a transform allocates
nothing (DESIGN.md §19).
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

    The staged transforms work in a pool of :attr:`block_rows`-row buffers:
    the zero-invariant *inputs* of the two pruned stages (z-columns,
    x-planes — only the positions a stage scatters to are ever written, so
    the rest stays zero and never needs re-zeroing), their two *outputs*,
    a coefficient-row buffer, and what ``H·ψ`` borrows per row block —
    the full-grid work block of :meth:`work_block` (also where the
    eigensolvers' |ψ|² fields exist) and the two coefficient blocks of
    :meth:`row_blocks`.  There is one pool per ``PlaneWaveBasis``, and an
    instance must not be used by two threads at once.  Nothing in an instance
    depends on *where* its grid sits, so the LDC driver builds one basis
    per shape class — every domain with the same ``(grid shape, lengths,
    cutoff)`` holds the same object, index maps and pool alike
    (:meth:`repro.core.workspace.LDCWorkspace.build_states`) — and solves
    all domains on one thread.  What a transform *returns* is the caller's ``out=`` or,
    without one, freshly allocated — never a pooled buffer.
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
        #: grid x index of every x-plane that holds a plane wave, and of
        #: every one that holds none
        # (boolean occupancy + flatnonzero, not np.unique / np.setdiff1d:
        # those import numpy.ma into the process, +1.5 MB resident)
        column_of_pw = ix * n1 + iy
        occupied = np.zeros(n0 * n1, dtype=bool)
        occupied[column_of_pw] = True
        plane_occupied = occupied.reshape(n0, n1).any(axis=1)
        self._planes = np.flatnonzero(plane_occupied)
        self._empty_planes = np.flatnonzero(~plane_occupied)
        columns = np.flatnonzero(occupied)
        pw_column = np.searchsorted(columns, column_of_pw)
        #: per occupied (x, y) column: its flat (plane slot, y) position in
        #: the plane block
        self._column_slot = (
            np.searchsorted(self._planes, columns // n1) * n1 + columns % n1
        )
        #: per plane wave: its flat (column slot, z) position in the
        #: column block
        self._pw_slot = pw_column * n2 + iz
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
        self._pool: dict[str, np.ndarray] = {}

    def __getstate__(self) -> dict[str, Any]:
        # the pool is scratch (not worth copying, and a copy must not share
        # it): a copied or unpickled basis starts with its own
        return {**self.__dict__, "_pool": {}}

    # -- staged transforms, one block -----------------------------------------

    def _buf(self, name: str, nrows: int) -> np.ndarray:
        """The first ``nrows`` rows of one pooled ``block_rows``-row buffer.
        The two ``*_in`` buffers are the zero-outside-their-scatter inputs
        of the pruned stages; the others are plain scratch."""
        buf = self._pool.get(name)
        if buf is None:
            n0, n1, n2 = self.grid.shape
            shape = {
                "rows": (self.npw,),
                "columns": (self._column_slot.size, n2),
                "planes": (self._planes.size, n1, n2),
                "grid": (n0, n1, n2),
            }[name.split("_", 1)[0]]
            buf = np.zeros((self.block_rows,) + shape, dtype=complex)
            self._pool[name] = buf
        return buf[:nrows]

    def work_block(self, nrows: int) -> np.ndarray:
        """A pooled ``(nrows ≤ block_rows, *grid.shape)`` complex block for
        the caller's fields of one row block (the ``V·ψ`` product, the
        ψ(r) behind |ψ|²) — a valid ``out=`` of the transforms: contents
        undefined, valid until the next call."""
        return self._buf("grid", nrows)

    def row_blocks(self, nrows: int) -> tuple[np.ndarray, np.ndarray]:
        """Two pooled ``(nrows ≤ block_rows, npw)`` complex coefficient
        blocks for the caller's ``H·ψ`` loop — the rows it gathers for a
        transform and the rows one comes back into: contents undefined,
        valid until the next call."""
        return self._buf("rows_gather", nrows), self._buf("rows_local", nrows)

    def _block_to_grid(self, rows: np.ndarray, out: np.ndarray) -> None:
        """``(nrows ≤ block_rows, npw)`` coefficient rows → ``out``
        ``(nrows, *grid.shape)``: z on the occupied columns, y on the
        occupied planes, x on everything.  A pruned stage scatters the
        previous one's pooled output into its zero-invariant input; the x
        pass has no buffer of its own — the planes go straight into ``out``,
        the empty x-planes are zeroed, and it runs in place."""
        nrows = rows.shape[0]
        n2 = self.grid.shape[2]
        scaled = self._buf("rows", nrows)
        np.multiply(rows, self._norm_to_grid, out=scaled)
        columns_in = self._buf("columns_in", nrows)
        columns_in.reshape(nrows, -1)[:, self._pw_slot] = scaled
        columns = self._buf("columns", nrows)
        np.fft.ifft(columns_in, axis=2, out=columns)
        planes_in = self._buf("planes_in", nrows)
        planes_in.reshape(nrows, -1, n2)[:, self._column_slot] = columns
        planes = self._buf("planes", nrows)
        np.fft.ifft(planes_in, axis=2, out=planes)
        out[:, self._planes] = planes
        out[:, self._empty_planes] = 0.0
        np.fft.ifft(out, axis=1, out=out)

    def _block_from_grid(
        self, fields: np.ndarray, out: np.ndarray, overwrite: bool
    ) -> None:
        """Adjoint of :meth:`_block_to_grid` into ``out`` ``(nrows, npw)``:
        after each stage keep only the lines that reach the sphere.  The x
        pass runs in place on ``fields`` when the caller gives them up, the
        pruned passes in place on the pooled gathers."""
        nrows = fields.shape[0]
        n2 = self.grid.shape[2]
        spectra = np.fft.fft(fields, axis=1, out=fields if overwrite else None)
        planes = self._buf("planes", nrows)
        # mode="clip": the default "raise" buffers ``out`` in a fresh copy
        np.take(spectra, self._planes, axis=1, out=planes, mode="clip")
        np.fft.fft(planes, axis=2, out=planes)
        columns = self._buf("columns", nrows)
        np.take(planes.reshape(nrows, -1, n2), self._column_slot, axis=1,
                out=columns, mode="clip")
        np.fft.fft(columns, axis=2, out=columns)
        coeffs = self._buf("rows", nrows)
        np.take(columns.reshape(nrows, -1), self._pw_slot, axis=1,
                out=coeffs, mode="clip")
        np.multiply(coeffs, self._norm_from_grid, out=out)

    def _rows_to_grid(self, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``(nrows, npw)`` coefficient rows → ``out`` ``(nrows,
        *grid.shape)``, a block at a time."""
        step = self.block_rows
        for a in range(0, rows.shape[0], step):
            self._block_to_grid(rows[a:a + step], out[a:a + step])
        return out

    def _rows_from_grid(
        self, fields: np.ndarray, out: np.ndarray, overwrite: bool
    ) -> np.ndarray:
        """``(nrows, *grid.shape)`` fields → ``out`` ``(nrows, npw)``, a
        block at a time."""
        step = self.block_rows
        for a in range(0, fields.shape[0], step):
            self._block_from_grid(
                fields[a:a + step], out[a:a + step], overwrite
            )
        return out

    # -- transforms ----------------------------------------------------------
    #
    # ``out=`` is the array the result is written to and returned as (any
    # complex array of the result's shape; nothing is then allocated);
    # without it the result is a fresh array.  ``overwrite_fields=True``
    # gives up the contents of complex ``fields``: the x pass then runs in
    # place on them instead of allocating its spectrum.

    def to_grid(
        self, coeffs: np.ndarray, *, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Coefficients → real-space orbital(s).

        ``coeffs`` is ``(npw,)`` or ``(npw, nband)``; returns an array of
        shape ``grid.shape`` or ``(nband, *grid.shape)`` (complex).
        """
        coeffs = np.asarray(coeffs)
        if coeffs.ndim == 1:
            out = _result(out, self.grid.shape)
            return self._rows_to_grid(coeffs[None], out[None])[0]
        out = _result(out, (coeffs.shape[1],) + self.grid.shape)
        return self._rows_to_grid(coeffs.T, out)

    def from_grid(
        self,
        fields: np.ndarray,
        *,
        out: np.ndarray | None = None,
        overwrite_fields: bool = False,
    ) -> np.ndarray:
        """Real-space orbital(s) → coefficients (adjoint of :meth:`to_grid`):
        ``grid.shape`` → ``(npw,)``, ``(nband, *grid.shape)`` → ``(npw,
        nband)``."""
        given = fields
        fields = np.asarray(fields, dtype=complex)
        # a converted copy is ours to overwrite
        overwrite = overwrite_fields or fields is not given
        if fields.ndim == 3:
            out = _result(out, (self.npw,))
            return self._rows_from_grid(fields[None], out[None], overwrite)[0]
        # coefficient rows are what a block writes: a fresh result is laid
        # out row-contiguous and returned transposed
        rows = _result(None if out is None else out.T,
                       (fields.shape[0], self.npw))
        return self._rows_from_grid(fields, rows, overwrite).T

    def to_grid_batch(
        self, coeffs: np.ndarray, *, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Stacked :meth:`to_grid`: ``(nd, npw, nband)`` coefficients →
        ``(nd, nband, *grid.shape)`` real-space fields, each ``coeffs[d]``
        exactly as ``to_grid`` transforms it."""
        coeffs = np.asarray(coeffs)
        nd, _, nband = coeffs.shape
        out = _result(out, (nd, nband) + self.grid.shape)
        for d in range(nd):
            self._rows_to_grid(coeffs[d].T, out[d])
        return out

    def from_grid_batch(
        self,
        fields: np.ndarray,
        *,
        out: np.ndarray | None = None,
        overwrite_fields: bool = False,
    ) -> np.ndarray:
        """Stacked :meth:`from_grid`: ``(nd, nband, *grid.shape)`` fields →
        ``(nd, npw, nband)`` coefficients (adjoint of :meth:`to_grid_batch`)."""
        given = fields
        fields = np.asarray(fields, dtype=complex)
        overwrite = overwrite_fields or fields is not given
        rows = _result(None if out is None else out.transpose(0, 2, 1),
                       fields.shape[:2] + (self.npw,))
        for d in range(fields.shape[0]):
            self._rows_from_grid(fields[d], rows[d], overwrite)
        return rows.transpose(0, 2, 1)

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
    The drivers do not call this — their eigensolvers hand back per-band
    |ψ_n|² formed inside the solve; it is the independent oracle.
    """
    occupations = np.asarray(occupations, dtype=float)
    if psi.shape[1] != occupations.size:
        raise ValueError("one occupation per band required")
    rho = np.zeros(basis.grid.shape, dtype=float)
    for f, field in zip(occupations, basis.to_grid(psi)):
        rho += f * (field.real**2 + field.imag**2)
    return rho


def _result(out: np.ndarray | None, shape: tuple[int, ...]) -> np.ndarray:
    """The caller's ``out=`` after a shape/dtype check, or a fresh array."""
    if out is None:
        return np.empty(shape, dtype=complex)
    if out.shape != shape or out.dtype != complex:
        raise ValueError(
            f"out must be a complex array matching the result {shape}, got "
            f"{out.dtype} {out.shape}"
        )
    return out
