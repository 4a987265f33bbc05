"""The divide-and-conquer spatial decomposition (Fig. 1).

The periodic cell Ω is tiled by ``nd0 × nd1 × nd2`` non-overlapping cubic
*cores* Ω₀α; each domain Ωα extends its core by a buffer of thickness ``b``
on every side (periodically wrapped).  Domains therefore overlap: a grid
point in a buffer belongs to several domains, but to exactly one core.

The decomposition is grid-aligned: the global real-space grid shape must be
divisible by the domain counts, so every domain maps to a contiguous
(wrapped) block of global grid points and field restriction / assembly are
pure index operations (``np.take`` with wrapped indices).
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
    core_mask:
        Boolean array on the domain grid: True on core points.
    origin:
        Cartesian position (global frame) of the domain grid's first point.
    """

    index: tuple[int, int, int]
    core_start: np.ndarray
    core_points: np.ndarray
    buffer_points: np.ndarray
    grid_indices: tuple[np.ndarray, np.ndarray, np.ndarray]
    grid: RealSpaceGrid
    core_mask: np.ndarray
    origin: np.ndarray

    @property
    def extent_points(self) -> np.ndarray:
        return self.core_points + 2 * self.buffer_points

    def extract(self, global_field: np.ndarray) -> np.ndarray:
        """Restrict a global grid field to this domain's extended region."""
        ix, iy, iz = self.grid_indices
        return global_field[np.ix_(ix, iy, iz)]

    def core_extract(self, global_field: np.ndarray) -> np.ndarray:
        """Restrict a global field to this domain's *core* block only."""
        sub = self.extract(global_field)
        b = self.buffer_points
        return sub[
            b[0] : b[0] + self.core_points[0],
            b[1] : b[1] + self.core_points[1],
            b[2] : b[2] + self.core_points[2],
        ]

    def scatter_add_core(
        self, global_field: np.ndarray, domain_field: np.ndarray
    ) -> None:
        """Add the core part of a domain field into ``global_field`` in place.

        Because cores are non-overlapping and tile the grid, plain assignment
        semantics hold (each global point receives exactly one contribution
        when the sharp partition of unity is used).
        """
        b = self.buffer_points
        core = domain_field[
            b[0] : b[0] + self.core_points[0],
            b[1] : b[1] + self.core_points[1],
            b[2] : b[2] + self.core_points[2],
        ]
        ix, iy, iz = self.grid_indices
        cx = ix[b[0] : b[0] + self.core_points[0]]
        cy = iy[b[1] : b[1] + self.core_points[1]]
        cz = iz[b[2] : b[2] + self.core_points[2]]
        global_field[np.ix_(cx, cy, cz)] += core


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
        of grid points per axis (see :attr:`buffer_actual`).  The buffer is
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
        #: per-axis ceiling on the buffer (grid points): the extended
        #: region must fit within the periodic cell, and at the ceiling the
        #: domain spans it
        self.max_buffer_points = (shape - self.core_points) // 2
        self.buffer_points = np.minimum(nb, self.max_buffer_points)
        #: realized buffer thickness per axis (Bohr)
        self.buffer_actual = self.buffer_points * spacing
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
        mask = np.zeros(tuple(extent_pts), dtype=bool)
        mask[
            nb[0] : nb[0] + self.core_points[0],
            nb[1] : nb[1] + self.core_points[1],
            nb[2] : nb[2] + self.core_points[2],
        ] = True
        origin = (start - nb) * self.grid.spacing
        return Domain(
            index=index,
            core_start=start.copy(),
            core_points=self.core_points.copy(),
            buffer_points=nb.copy(),
            grid_indices=idx,
            grid=dgrid,
            core_mask=mask,
            origin=origin,
        )

    # -- queries -----------------------------------------------------------------

    @property
    def ndomains(self) -> int:
        return len(self.domains)

    def core_lengths(self) -> np.ndarray:
        """Core edge lengths l per axis (Bohr)."""
        return self.core_points * self.grid.spacing

    def assemble_from_cores(self, domain_fields: list[np.ndarray]) -> np.ndarray:
        """Global field from per-domain fields using the sharp partition of
        unity (each core point taken from its owning domain)."""
        out = np.zeros(self.grid.shape)
        for dom, field in zip(self.domains, domain_fields):
            dom.scatter_add_core(out, field)
        return out

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
