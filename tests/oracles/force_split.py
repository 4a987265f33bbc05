"""The force error split term by term: how far each part of ``F`` is from
the derivative of the energy part it belongs to (ROADMAP item 1's
harness).

One probe atom (Li, the species with a nonlocal channel, among H) is
displaced by ``±H`` along x on a small cell, three cold solves per case:
the central difference of the energy against the force of the solve in
between.  Each row is a residual ``r = F·ê + ΔE/2h`` — zero where the force
is the exact derivative of the energy it is compared with:

* ``total`` — the reported force against the reported energy;
* ``ewald`` — the Ewald force against the Ewald energy (exact: what is
  left is the finite difference's own error);
* ``entropy_term`` — the derivative of the energy term no force term is
  the derivative of (−kT·S), ``ΔE/2h`` alone.

The cases are the whole cell and the 2×1×1 and 2×2×1 layouts with the
probe in a core (in no other domain), in a buffer (a core of one domain,
the buffer of another) and on a face between two cores, each solved at a
loose and a tight ``tol`` so non-self-consistency and a missing term part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ldc import LDCOptions, run_ldc
from repro.dft.ewald import ewald
from repro.dft.scf import WHOLE_CELL
from repro.systems.configuration import Configuration

#: the central-difference step (Bohr)
H = 1e-3
#: the solver options every case shares (the layout and ``tol`` vary)
OPTIONS = dict(ecut=4.0, kt=0.02, extra_bands=4, max_iter=80, eig_tol=1e-9)
#: the LDC buffer (Bohr): with 5-Bohr cores in a 10-Bohr cell the probe is
#: in one domain only for x in (2, 3), and in a neighbour's buffer for
#: x in (3, 5)
BUFFER = 2.0


@dataclass(frozen=True)
class Case:
    """A layout and where on it the probe sits."""

    name: str
    domains: tuple[int, int, int]
    #: x of the probe (the displaced atom, atom 0)
    x: float


#: the cells of the two layouts: the probe and three H along x (y, z at the
#: cell centre); on 2×2×1 the cell doubles along y and four H fill the
#: upper cores
CELLS = {1: (10.0, 5.0, 5.0), 2: (10.0, 10.0, 5.0)}

CASES = [Case("whole_cell", (1, 1, 1), 2.5)] + [
    Case(f"{label}_{where}", domains, x)
    for label, domains in (("2x1x1", (2, 1, 1)), ("2x2x1", (2, 2, 1)))
    for where, x in (("core", 2.5), ("buffer", 4.0), ("face", 5.0))
]


def probe_config(case: Case, shift: float = 0.0) -> Configuration:
    """The case's configuration with the probe moved by ``shift`` along x."""
    cell = np.array(CELLS[case.domains[1]])
    y, z = 0.5 * cell[1] / case.domains[1], 0.5 * cell[2]
    positions = [[case.x + shift, y, z], [1.0, y, z], [6.5, y, z], [8.0, y, z]]
    if case.domains[1] == 2:
        positions += [[x, y + 5.0, z] for x in (1.5, 3.0, 6.5, 8.0)]
    return Configuration(
        ["Li"] + ["H"] * (len(positions) - 1), np.array(positions), cell
    )


def case_options(case: Case, tol: float) -> LDCOptions:
    if case.domains == (1, 1, 1):
        return LDCOptions(**OPTIONS, tol=tol, **WHOLE_CELL)
    return LDCOptions(**OPTIONS, tol=tol, domains=case.domains, buffer=BUFFER)


def force_split(case: Case, tol: float) -> dict[str, float]:
    """The case's rows (Ha/Bohr); each of the three solves must converge."""
    options = case_options(case, tol)
    config = probe_config(case)
    centre = run_ldc(config, options, compute_forces=True)
    plus = run_ldc(probe_config(case, H), options)
    minus = run_ldc(probe_config(case, -H), options)
    _, f_ewald = ewald(config.wrapped_positions(), config.zvals, config.cell)

    def slope(part: str) -> float:
        return (plus.components[part] - minus.components[part]) / (2 * H)

    assert centre.converged and plus.converged and minus.converged
    assert centre.forces is not None
    return {
        "total": centre.forces[0, 0] + (plus.energy - minus.energy) / (2 * H),
        "ewald": f_ewald[0, 0] + slope("ewald"),
        "entropy_term": slope("entropy_term"),
    }
