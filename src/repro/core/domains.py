"""The divide-and-conquer spatial decomposition (Fig. 1).

The periodic cell Ω is tiled by ``nd0 × nd1 × nd2`` non-overlapping cubic
*cores* Ω₀α; each domain Ωα extends its core by a buffer of thickness ``b``
on every side (periodically wrapped).  Domains therefore overlap: a grid
point in a buffer belongs to several domains, but to exactly one core.

The decomposition is grid-aligned: the global real-space grid shape must be
divisible by the domain counts, so every domain maps to a contiguous
(wrapped) block of global grid points: field restriction is an index
operation (``np.take`` with wrapped indices), and assembly a copy of each
core box, which never wraps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dft.grid import RealSpaceGrid
from repro.systems.configuration import Configuration


@dataclass
class Domain:
    """One DC domain: core block + buffer, with global-grid index maps.

    Attributes
    ----------
    index:
        ``(ix, iy, iz)`` position in the domain lattice.
    core_start, core_points:
        Per-axis start index and extent of the core on the global grid.
    buffer_points:
        Per-axis buffer extent in grid points.
    grid_indices:
        Per-axis arrays of wrapped global indices of the extended region.
    grid:
        A :class:`RealSpaceGrid` for the extended region (its own small
        periodic cell — this *is* the artificial boundary condition).
    origin:
        Cartesian position (global frame) of the domain grid's first point.
    """

    index: tuple[int, int, int]
    core_start: np.ndarray
    core_points: np.ndarray
    buffer_points: np.ndarray
    grid_indices: tuple[np.ndarray, np.ndarray, np.ndarray]
    grid: RealSpaceGrid
    origin: np.ndarray

    @property
    def extent_points(self) -> np.ndarray:
        return self.core_points + 2 * self.buffer_points

    @property
    def core_slices(self) -> tuple[slice, ...]:
        """The core box on the domain grid: where p_α is 1."""
        return tuple(
            slice(int(b), int(b + c))
            for b, c in zip(self.buffer_points, self.core_points)
        )

    @property
    def global_core_slices(self) -> tuple[slice, ...]:
        """The core box on the global grid; cores tile it without
        wrapping."""
        return tuple(
            slice(int(s), int(s + c))
            for s, c in zip(self.core_start, self.core_points)
        )


class DomainDecomposition:
    """Builds and owns all :class:`Domain` objects for a cell + grid.

    Parameters
    ----------
    grid:
        The global real-space grid; its shape must be divisible by
        ``domain_counts``.
    domain_counts:
        Number of cores per axis ``(nd0, nd1, nd2)``.
    buffer_thickness:
        Requested buffer ``b`` in Bohr; realized as the nearest whole number
        of grid points per axis (:attr:`buffer_points`).  The buffer is
        clamped so the domain extent never exceeds the cell.
    """

    def __init__(
        self,
        grid: RealSpaceGrid,
        domain_counts: tuple[int, int, int],
        buffer_thickness: float,
    ) -> None:
        self.grid = grid
        self.domain_counts = tuple(int(d) for d in domain_counts)
        if any(d < 1 for d in self.domain_counts):
            raise ValueError(f"domain counts must be >= 1, got {domain_counts}")
        if buffer_thickness < 0:
            raise ValueError("buffer thickness must be >= 0")
        shape = np.array(grid.shape)
        counts = np.array(self.domain_counts)
        if np.any(shape % counts):
            raise ValueError(
                f"grid shape {grid.shape} not divisible by domains {domain_counts}"
            )
        self.core_points = shape // counts
        spacing = grid.spacing
        nb = np.rint(buffer_thickness / spacing).astype(int)
        # per-axis ceiling on the buffer (grid points): the extended
        # region must fit within the periodic cell, and at the ceiling the
        # domain spans it
        max_buffer_points = (shape - self.core_points) // 2
        self.buffer_points = np.minimum(nb, max_buffer_points)
        self.domains: list[Domain] = []
        for ix in range(counts[0]):
            for iy in range(counts[1]):
                for iz in range(counts[2]):
                    self.domains.append(self._build_domain((ix, iy, iz)))

    # -- construction -----------------------------------------------------------

    def _build_domain(self, index: tuple[int, int, int]) -> Domain:
        shape = np.array(self.grid.shape)
        start = np.array(index) * self.core_points
        nb = self.buffer_points
        idx = tuple(
            np.mod(np.arange(start[a] - nb[a], start[a] + self.core_points[a] + nb[a]),
                   shape[a])
            for a in range(3)
        )
        extent_pts = self.core_points + 2 * nb
        lengths = extent_pts * self.grid.spacing
        dgrid = RealSpaceGrid(lengths, extent_pts)
        origin = (start - nb) * self.grid.spacing
        return Domain(
            index=index,
            core_start=start.copy(),
            core_points=self.core_points.copy(),
            buffer_points=nb.copy(),
            grid_indices=idx,
            grid=dgrid,
            origin=origin,
        )

    # -- queries -----------------------------------------------------------------

    @property
    def ndomains(self) -> int:
        return len(self.domains)

    def atoms_in_domain(
        self, config: Configuration, domain: Domain
    ) -> tuple[np.ndarray, Configuration]:
        """Atoms whose wrapped position lies in the domain's extended region.

        Returns ``(global_indices, local_config)`` where the local
        configuration expresses positions in the domain frame (origin at the
        domain grid's first point) with the domain's periodic cell.
        """
        cell = self.grid.lengths
        extent = domain.extent_points * self.grid.spacing
        rel = np.mod(config.positions - domain.origin, cell)
        inside = np.all(rel < extent - 1e-12, axis=1)
        indices = np.flatnonzero(inside)
        local = Configuration(
            [config.symbols[i] for i in indices],
            rel[indices],
            extent,
        ) if len(indices) else Configuration([], np.zeros((0, 3)), extent)
        return indices, local

    def owner_domain(self, position: np.ndarray) -> int:
        """Index (into ``self.domains``) of the domain whose *core* contains
        the wrapped position."""
        frac = np.mod(np.asarray(position, dtype=float), self.grid.lengths)
        pt = np.floor(frac / self.grid.spacing).astype(int)
        pt = np.minimum(pt, np.array(self.grid.shape) - 1)
        cell_idx = pt // self.core_points
        counts = np.array(self.domain_counts)
        cell_idx = np.minimum(cell_idx, counts - 1)
        return int(
            cell_idx[0] * counts[1] * counts[2] + cell_idx[1] * counts[2] + cell_idx[2]
        )
