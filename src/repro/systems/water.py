"""The water molecule (the solvent substrate of Sec. 6)."""

from __future__ import annotations

import numpy as np

from repro.constants import ANGSTROM_TO_BOHR
from repro.systems.configuration import Configuration

#: O-H bond length of an isolated water molecule (0.9572 Å) in Bohr.
OH_BOND = 0.9572 * ANGSTROM_TO_BOHR

#: H-O-H angle in radians.
HOH_ANGLE = np.deg2rad(104.52)


def water_molecule(center=(0.0, 0.0, 0.0), cell=(20.0, 20.0, 20.0)) -> Configuration:
    """A single water molecule centered at ``center`` (O at the center)."""
    c = np.asarray(center, dtype=float)
    half = HOH_ANGLE / 2.0
    h1 = c + OH_BOND * np.array([np.sin(half), np.cos(half), 0.0])
    h2 = c + OH_BOND * np.array([-np.sin(half), np.cos(half), 0.0])
    return Configuration(["O", "H", "H"], np.array([c, h1, h2]), np.asarray(cell, float))
