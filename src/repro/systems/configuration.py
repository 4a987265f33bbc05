"""The :class:`Configuration` container — atoms in a periodic orthorhombic cell.

A deliberately small, NumPy-first structure type (an ASE-like ``Atoms`` would
be overkill): symbols, positions, cell lengths, optional velocities.  All
geometry helpers respect periodic boundary conditions with the minimum-image
convention, which every substrate (DFT, MD, reactive) shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import get_species, valence_electrons


@dataclass
class Configuration:
    """Atoms in a periodic orthorhombic box.

    Attributes
    ----------
    symbols:
        Length-``natom`` list of chemical symbols.
    positions:
        ``(natom, 3)`` Cartesian coordinates in Bohr.
    cell:
        Length-3 array of orthorhombic box edge lengths in Bohr.
    velocities:
        Optional ``(natom, 3)`` velocities in atomic units.
    """

    symbols: list[str]
    positions: np.ndarray
    cell: np.ndarray
    velocities: np.ndarray | None = field(default=None)

    def __post_init__(self) -> None:
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        self.cell = np.asarray(self.cell, dtype=float).reshape(3)
        if self.positions.shape != (len(self.symbols), 3):
            raise ValueError(
                f"positions shape {self.positions.shape} inconsistent with "
                f"{len(self.symbols)} symbols"
            )
        if np.any(self.cell <= 0):
            raise ValueError(f"cell lengths must be positive, got {self.cell}")
        if self.velocities is not None:
            self.velocities = np.asarray(self.velocities, dtype=float)
            if self.velocities.shape != self.positions.shape:
                raise ValueError("velocities shape must match positions")

    # -- basic properties ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.symbols)

    @property
    def natoms(self) -> int:
        return len(self.symbols)

    @property
    def masses(self) -> np.ndarray:
        """Atomic masses in electron-mass units (a.u. of mass for dynamics)."""
        amu_to_me = 1822.888486209
        return np.array([get_species(s).mass * amu_to_me for s in self.symbols])

    @property
    def zvals(self) -> np.ndarray:
        return np.array([get_species(s).zval for s in self.symbols])

    def n_electrons(self) -> float:
        """Total valence electron count."""
        return valence_electrons(self.symbols)

    def species_set(self) -> list[str]:
        """Distinct species, sorted, preserving a deterministic order."""
        return sorted(set(self.symbols))

    # -- geometry -----------------------------------------------------------

    def wrapped_positions(self) -> np.ndarray:
        """Positions folded into [0, L) along each axis."""
        return np.mod(self.positions, self.cell)

    def wrap(self) -> None:
        """Fold positions into the primary cell in place."""
        self.positions = self.wrapped_positions()

    # -- editing ------------------------------------------------------------

    def copy(self) -> "Configuration":
        return Configuration(
            list(self.symbols),
            self.positions.copy(),
            self.cell.copy(),
            None if self.velocities is None else self.velocities.copy(),
        )
