"""3C-SiC (zincblende) crystal builders, a test helper.

SiC is the paper's weak-scaling and FLOP/s workload: "64P-atom SiC system on
P cores" (Fig. 5), 512-atom SiC for Table 1, up to 50,331,648 atoms for the
headline run.  The benchmarks model those runs analytically
(:mod:`repro.perfmodel`); only the tests build SiC atoms.  The zincblende
conventional cubic cell holds 8 atoms (4 Si + 4 C), so an ``nx × ny × nz``
supercell has ``8·nx·ny·nz`` atoms.
"""

from __future__ import annotations

import numpy as np

from repro.constants import ANGSTROM_TO_BOHR
from repro.systems.configuration import Configuration

#: Experimental 3C-SiC lattice constant, 4.3596 Å, in Bohr.
SIC_LATTICE_CONSTANT = 4.3596 * ANGSTROM_TO_BOHR

# Zincblende basis in fractional coordinates: Si on the fcc sites, C offset
# by (1/4, 1/4, 1/4).
_FCC = np.array(
    [[0.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]
)
_BASIS_SI = _FCC
_BASIS_C = _FCC + 0.25


def sic_crystal(
    repeats: tuple[int, int, int] = (1, 1, 1),
    lattice_constant: float = SIC_LATTICE_CONSTANT,
) -> Configuration:
    """Build a 3C-SiC supercell.

    Parameters
    ----------
    repeats:
        Number of conventional cells along each axis.
    lattice_constant:
        Cubic lattice constant in Bohr.
    """
    nx, ny, nz = repeats
    if min(nx, ny, nz) < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    offsets = np.array(
        [(i, j, k) for i in range(nx) for j in range(ny) for k in range(nz)],
        dtype=float,
    )
    si = (offsets[:, None, :] + _BASIS_SI[None, :, :]).reshape(-1, 3)
    c = (offsets[:, None, :] + _BASIS_C[None, :, :]).reshape(-1, 3)
    frac = np.vstack([si, c])
    symbols = ["Si"] * len(si) + ["C"] * len(c)
    cell = np.array([nx, ny, nz], dtype=float) * lattice_constant
    positions = frac * lattice_constant
    return Configuration(symbols, np.mod(positions, cell), cell)


def sic_for_cores(cores: int, atoms_per_core: int = 64) -> Configuration:
    """The Fig. 5 weak-scaling workload: ``atoms_per_core · cores`` SiC atoms.

    The atom count is rounded down to the nearest number realizable with a
    cubic-ish supercell of 8-atom conventional cells.  For the paper's
    granularity (64 atoms/core) the workload is exactly 8 cells per core.
    """
    if cores < 1:
        raise ValueError("cores must be >= 1")
    target_cells = max(1, (cores * atoms_per_core) // 8)
    # Factor target_cells into nx*ny*nz as close to cubic as possible.
    nx = int(round(target_cells ** (1.0 / 3.0)))
    nx = max(1, nx)
    while target_cells % nx:
        nx -= 1
    rest = target_cells // nx
    ny = int(round(rest ** 0.5))
    ny = max(1, ny)
    while rest % ny:
        ny -= 1
    nz = rest // ny
    return sic_crystal((nx, ny, nz))
