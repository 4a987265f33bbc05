"""EXP-BLAS — Sec. 3.4: the BLAS2 → BLAS3 algebraic transformation.

Paper: rewriting the nonlocal-projector application (Eq. 4 → Eq. 5) and the
band-by-band CG into all-band matrix-matrix form "drastically increases the
floating-point performance".  The bench times the band-by-band Eq. 4
reference of ``tests/oracles/reference.py`` against the operator every
``H·ψ`` runs, :meth:`~repro.dft.pseudopotential.NonlocalProjectors.apply`
(Eq. 5), on
the projectors of 96 Al atoms over ~4.1k plane waves and 128 bands
(identical results are asserted in the unit tests; here we time them).
"""

import time

import numpy as np
from _harness import fmt_row, report
from _schemas import SCHEMAS

from repro.dft.basis import PlaneWaveBasis
from repro.dft.grid import RealSpaceGrid
from repro.dft.pseudopotential import NonlocalProjectors
from repro.systems.configuration import Configuration
from tests.oracles.reference import apply_projectors_blas2

#: a 4×4×6 simple-cubic Al crystal (96 projectors) at lattice constant 4
#: Bohr; ``ECUT`` gives 4,131 plane waves on ``GRID``
REPEATS, LATTICE, GRID, ECUT, NBAND = (4, 4, 6), 4.0, (32, 32, 48), 5.8, 128


def _problem():
    cell = LATTICE * np.array(REPEATS, dtype=float)
    sites = np.array(
        [(i, j, k) for i in range(REPEATS[0]) for j in range(REPEATS[1])
         for k in range(REPEATS[2])], dtype=float,
    )
    config = Configuration(["Al"] * len(sites), LATTICE * (sites + 0.5), cell)
    basis = PlaneWaveBasis(RealSpaceGrid(cell, GRID), ECUT)
    vnl = NonlocalProjectors(basis, config)
    psi = basis.random_orbitals(NBAND, seed=0)
    return vnl, psi


def _time(fn, *args, repeats=3):
    fn(*args)  # warm-up
    t0 = time.perf_counter()
    for _ in range(repeats):
        fn(*args)
    return (time.perf_counter() - t0) / repeats


def test_blas3_transformation(benchmark):
    vnl, psi = _problem()
    b, d = vnl.b, np.diag(vnl.d)
    npw, nproj = b.shape
    benchmark(vnl.apply, psi)
    t_blas2 = _time(apply_projectors_blas2, b, d, psi)
    t_blas3 = _time(vnl.apply, psi)
    speedup = t_blas2 / t_blas3
    # exactness of the transformation
    out2 = apply_projectors_blas2(b, d, psi)
    out3 = vnl.apply(psi)
    max_diff = float(np.abs(out2 - out3).max())

    gflops = 2 * (8.0 * npw * nproj * NBAND) / t_blas3 / 1e9
    lines = [
        fmt_row("path", "time [s]", widths=[28, 12]),
        fmt_row("BLAS2 (band-by-band)", t_blas2, widths=[28, 12]),
        fmt_row("BLAS3 (all-band, Eq. 5)", t_blas3, widths=[28, 12]),
        "",
        f"speedup: {speedup:.1f}x  (achieved {gflops:.1f} GFLOP/s in BLAS3)",
        f"max |difference| between paths: {max_diff:.2e} (must be roundoff)",
    ]
    records = [
        {"metric": "t_blas2_s", "value": t_blas2},
        {"metric": "t_blas3_s", "value": t_blas3},
        {"metric": "gflops_blas3", "value": gflops},
        {"metric": "speedup", "value": speedup},
        {"metric": "max_path_difference", "value": max_diff},
    ]
    report("sec34_blas3", "Sec. 3.4 — BLAS2 vs BLAS3", lines,
           records=records, schema=SCHEMAS["sec34_blas3"])

    assert max_diff < 1e-9
    assert speedup > 2.0  # the transformation must pay off substantially
