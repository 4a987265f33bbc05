"""EXP-ABL-GSLF — ablation of the GSLF solver choices (Sec. 3.2).

* global Poisson: FFT vs real-space multigrid (accuracy + cycles);
* multigrid warm-starting (the QMD O(1)-cycles trick);
* eigensolver: dense-direct vs all-band (BLAS3) vs band-by-band (BLAS2);
  all-band is the engine's solver, the other two are references from
  ``tests/oracles/reference.py``.
"""

import time

import numpy as np
from _harness import fmt_row, report
from _schemas import SCHEMAS

from repro.dft.basis import PlaneWaveBasis
from repro.dft.eigensolver import solve_all_band
from repro.dft.grid import RealSpaceGrid
from repro.dft.hamiltonian import Hamiltonian
from repro.dft.hartree import hartree_potential
from repro.dft.pseudopotential import NonlocalProjectors, local_potential
from repro.multigrid.poisson import MultigridPoisson
from repro.systems import dimer
from tests.oracles.reference import solve_band_by_band, solve_direct


def test_poisson_solvers(benchmark):
    grid = RealSpaceGrid([12.0, 12.0, 12.0], [32, 32, 32])
    r = grid.min_image_distance(grid.lengths / 2)
    rho = np.exp(-0.5 * (r / 1.2) ** 2)

    t0 = time.perf_counter()
    v_fft = hartree_potential(grid, rho)
    t_fft = time.perf_counter() - t0

    mg = MultigridPoisson(grid)
    t0 = time.perf_counter()
    v_mg = benchmark(lambda: mg.solve(rho, tol=1e-8))
    t_mg = time.perf_counter() - t0
    cold_cycles = mg.last_stats.cycles
    mg.solve(rho * 1.02, v0=v_mg, tol=1e-8)
    warm_cycles = mg.last_stats.cycles

    diff = np.abs((v_mg - v_mg.mean()) - (v_fft - v_fft.mean())).max()
    scale = np.abs(v_fft).max()
    lines = [
        fmt_row("solver", "time [s]", "note", widths=[12, 10, 34]),
        fmt_row("FFT", t_fft, "spectral, exact on grid", widths=[12, 10, 34]),
        fmt_row("multigrid", t_mg, f"{cold_cycles} V-cycles cold", widths=[12, 10, 34]),
        "",
        f"FD-vs-spectral max deviation: {diff:.2e} ({100 * diff / scale:.2f}% of max V)",
        f"warm-started cycles: {warm_cycles} (cold: {cold_cycles})",
    ]
    records = [
        {"metric": "t_fft_s", "value": float(t_fft)},
        {"metric": "t_mg_s", "value": float(t_mg)},
        {"metric": "fd_vs_spectral_max_dev", "value": float(diff)},
        {"metric": "cold_cycles", "value": float(cold_cycles)},
        {"metric": "warm_cycles", "value": float(warm_cycles)},
    ]
    report("ablation_poisson", "Ablation — GSLF Poisson solvers", lines,
           records=records, schema=SCHEMAS["ablation_poisson"])
    assert diff < 0.05 * scale
    assert warm_cycles <= cold_cycles


def test_eigensolver_ablation(benchmark):
    grid = RealSpaceGrid([10.0, 10.0, 10.0], [20, 20, 20])
    cfg = dimer("Si", "C", 3.3, 10.0)
    basis = PlaneWaveBasis(grid, ecut=6.0)
    ham = Hamiltonian(
        basis, local_potential(grid, cfg), NonlocalProjectors(basis, cfg)
    )
    nband = 6
    psi0 = basis.random_orbitals(nband, seed=11)

    t0 = time.perf_counter()
    ref = solve_direct(ham, nband)
    t_direct = time.perf_counter() - t0

    res_all = benchmark(
        lambda: solve_all_band(ham, psi0.copy(), max_iter=200, tol=1e-8)
    )
    t0 = time.perf_counter()
    solve_all_band(ham, psi0.copy(), max_iter=200, tol=1e-8)
    t_all = time.perf_counter() - t0

    t0 = time.perf_counter()
    res_bbb = solve_band_by_band(ham, psi0.copy(), tol=1e-8, outer_sweeps=30)
    t_bbb = time.perf_counter() - t0

    lines = [
        fmt_row("solver", "time [s]", "max |eig err|", widths=[22, 10, 14]),
        fmt_row("dense direct", t_direct, 0.0, widths=[22, 10, 14]),
        fmt_row("all-band CG (BLAS3)", t_all,
                float(np.abs(res_all.eigenvalues - ref.eigenvalues).max()),
                widths=[22, 10, 14]),
        fmt_row("band-by-band (BLAS2)", t_bbb,
                float(np.abs(res_bbb.eigenvalues - ref.eigenvalues).max()),
                widths=[22, 10, 14]),
    ]
    err_all = float(np.abs(res_all.eigenvalues - ref.eigenvalues).max())
    err_bbb = float(np.abs(res_bbb.eigenvalues - ref.eigenvalues).max())
    records = [
        {"metric": "t_direct_s", "value": float(t_direct)},
        {"metric": "t_all_band_s", "value": float(t_all)},
        {"metric": "t_band_by_band_s", "value": float(t_bbb)},
        {"metric": "err_all_band", "value": err_all},
        {"metric": "err_band_by_band", "value": err_bbb},
    ]
    report("ablation_eigensolvers", "Ablation — eigensolvers", lines,
           records=records, schema=SCHEMAS["ablation_eigensolvers"])
    assert np.abs(res_all.eigenvalues - ref.eigenvalues).max() < 1e-5
    assert np.abs(res_bbb.eigenvalues - ref.eigenvalues).max() < 1e-4
