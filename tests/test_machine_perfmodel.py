"""Tests for machine specs and the Tables 1-2 FLOP-rate models."""

import numpy as np
import pytest

from repro.dft.basis import PlaneWaveBasis
from repro.dft.grid import RealSpaceGrid
from repro.parallel.machine import (
    BLUE_GENE_Q,
    XEON_E5_2665,
    mira_cores,
)
from repro.perfmodel.flops import (
    cholesky_flops,
    domain_scf_flops,
    fft_flops,
    gemm_flops,
    multigrid_vcycle_flops,
    qmd_step_flops,
    sic_domain_parameters,
    staged_fft_flops,
)
from repro.perfmodel.metrics import (
    PRIOR_ART,
    atom_iterations_per_second,
    parallel_efficiency_strong,
    parallel_efficiency_weak,
    percent_of_peak,
    speedup_over,
)
from repro.perfmodel.threading import flops_table, rack_table


# ---- machine specs ---------------------------------------------------------

def test_bgq_node_peak():
    """Sec. 4.1: Blue Gene/Q node peak is 204.8 GFLOP/s."""
    assert BLUE_GENE_Q.peak_node_flops == pytest.approx(204.8e9)


def test_mira_core_count():
    """48 racks × 1024 nodes × 16 cores = 786,432."""
    assert mira_cores(48) == 786_432


def test_mira_full_peak():
    """Mira peak ≈ 10.07 PFLOP/s (5.081 PF measured = 50.46%)."""
    peak = BLUE_GENE_Q.peak_flops(48 * 1024)
    assert peak == pytest.approx(10.066e15, rel=1e-3)
    assert 5.081e15 / peak == pytest.approx(0.5046, abs=0.001)


def test_xeon_node_peak():
    """Sec. 5.4: 396 GFLOP/s per dual-socket node at turbo clock."""
    assert XEON_E5_2665.peak_node_flops == pytest.approx(396.8e9, rel=1e-3)


def test_effective_rate_increases_with_threads():
    r1 = BLUE_GENE_Q.effective_core_flops(1)
    r2 = BLUE_GENE_Q.effective_core_flops(2)
    r4 = BLUE_GENE_Q.effective_core_flops(4)
    assert r1 < r2 < r4 <= BLUE_GENE_Q.peak_core_flops


def test_time_for_flops():
    t = BLUE_GENE_Q.time_for_flops(1e12, cores=16, threads_per_core=4)
    assert t == pytest.approx(1e12 / BLUE_GENE_Q.effective_node_flops(4))


def test_time_for_flops_invalid_cores():
    with pytest.raises(ValueError):
        BLUE_GENE_Q.time_for_flops(1.0, 0)


# ---- FLOP counts --------------------------------------------------------------

def test_fft_flops_formula():
    assert fft_flops(1024) == pytest.approx(5 * 1024 * 10)


def test_staged_fft_flops_hand_count_lial_domain():
    """The benchmark's LiAl domain: 22×22×28 points over 88/7 × 88/7 × 16
    Bohr at ecut=3.  G_max = √6 reaches |m_x| ≤ 4 → 9 of 22 x-planes, and
    m_x² + m_y² ≤ 24 → 69 lattice points of 484 (x, y) columns."""
    basis = PlaneWaveBasis(
        RealSpaceGrid([88 / 7, 88 / 7, 16.0], (22, 22, 28)), ecut=3.0
    )
    assert basis.stage_lines == ((69, 28), (9 * 28, 22), (22 * 28, 22))
    by_hand = 5.0 * (
        69 * 28 * np.log2(28) + 252 * 22 * np.log2(22) + 616 * 22 * np.log2(22)
    )
    staged = staged_fft_flops(basis.stage_lines)
    assert staged == pytest.approx(by_hand)
    dense = fft_flops(22 * 22 * 28)
    assert staged == pytest.approx(0.508 * dense, rel=5e-3)
    # with no line pruned the stage sum is the dense count
    assert staged_fft_flops(
        ((22 * 22, 28), (22 * 28, 22), (22 * 28, 22))
    ) == pytest.approx(dense)
    kw = dict(npw=basis.npw, nband=7, grid_points=22 * 22 * 28, nproj=4)
    assert domain_scf_flops(**kw, fft_stages=basis.stage_lines).fft == (
        pytest.approx(domain_scf_flops(**kw).fft * staged / dense)
    )


def test_gemm_flops():
    assert gemm_flops(10, 20, 30, complex_=False) == pytest.approx(2 * 6000)
    assert gemm_flops(10, 20, 30, complex_=True) == pytest.approx(8 * 6000)


def test_cholesky_cubic():
    assert cholesky_flops(100) == pytest.approx(4 * 1e6 / 3)


def test_domain_scf_flops_positive_components():
    fc = domain_scf_flops(npw=4000, nband=130, grid_points=32**3, nproj=70)
    assert fc.fft > 0 and fc.nonlocal_gemm > 0
    assert fc.subspace > 0 and fc.orthonormalization > 0
    assert fc.total == pytest.approx(
        fc.fft + fc.nonlocal_gemm + fc.subspace + fc.orthonormalization
    )


def test_multigrid_work_bounded():
    w = multigrid_vcycle_flops(64**3)
    assert w < 2 * multigrid_vcycle_flops(64**3 // 2) * 1.2


def test_qmd_step_scales_with_domains():
    kw = dict(npw=1000, nband=50, grid_points=20**3, nproj=30)
    f1 = qmd_step_flops(ndomains=10, **kw)
    f2 = qmd_step_flops(ndomains=20, **kw)
    assert f2 > 1.9 * f1


def test_sic_domain_parameters_sane():
    p = sic_domain_parameters(64)
    assert p["npw"] > 10_000  # paper: large basis sets
    assert p["nband"] > 100
    assert p["grid_points"] > p["npw"]


# ---- Table 1 / Table 2 models ---------------------------------------------------

def test_table1_rises_with_threads():
    rows = flops_table()
    by_key = {(r.nodes, r.threads_per_core): r for r in rows}
    for nodes in (4, 8, 16):
        assert (
            by_key[(nodes, 1)].gflops
            < by_key[(nodes, 2)].gflops
            < by_key[(nodes, 4)].gflops
        )


def test_table1_percent_peak_falls_with_nodes():
    rows = flops_table()
    by_key = {(r.nodes, r.threads_per_core): r for r in rows}
    for t in (1, 2, 4):
        assert by_key[(4, t)].percent_peak > by_key[(16, t)].percent_peak


def test_table1_magnitudes_match_paper():
    """Paper Table 1: 4 nodes × 4 threads = 445 GF/s (54.3%)."""
    rows = flops_table()
    cell = next(r for r in rows if r.nodes == 4 and r.threads_per_core == 4)
    assert cell.percent_peak == pytest.approx(54.3, abs=4.0)
    cell1 = next(r for r in rows if r.nodes == 4 and r.threads_per_core == 1)
    assert cell1.percent_peak == pytest.approx(28.8, abs=4.0)


def test_table2_percent_peak_degrades_gently():
    rows = rack_table()
    assert rows[0].percent_peak == pytest.approx(54.0, abs=2.0)
    assert rows[-1].percent_peak == pytest.approx(50.5, abs=2.0)
    assert rows[0].percent_peak > rows[-1].percent_peak


def test_table2_full_mira_petaflops():
    """Paper: 5.081 PFLOP/s on 786,432 cores."""
    rows = rack_table()
    full = rows[-1]
    assert full.gflops == pytest.approx(5.081e6, rel=0.05)


# ---- metrics -------------------------------------------------------------------

def test_atom_iterations_per_second_headline():
    """50.3M atoms at 441 s/iteration → 114,000 atom·it/s."""
    m = atom_iterations_per_second(50_331_648, 1, 441.0)
    assert m == pytest.approx(114_000, rel=0.01)


def test_speedups_over_prior_art():
    """Paper Sec. 2: 5,800× over Hasegawa, 62× over Osei-Kuffuor."""
    m = PRIOR_ART["this_paper"].atom_iterations_per_second
    assert speedup_over(m, PRIOR_ART["hasegawa2011"]) == pytest.approx(5800, rel=0.01)
    assert speedup_over(m, PRIOR_ART["oseikuffuor2014"]) == pytest.approx(62, rel=0.02)


def test_percent_of_peak():
    assert percent_of_peak(50.0, 100.0) == 50.0
    with pytest.raises(ValueError):
        percent_of_peak(1.0, 0.0)


def test_weak_efficiency():
    assert parallel_efficiency_weak(10.0, 10.0) == 1.0
    assert parallel_efficiency_weak(10.0, 12.5) == pytest.approx(0.8)


def test_strong_efficiency():
    """16× cores at 12.85× speedup → 0.803 (the paper's Fig. 6)."""
    t0, p0 = 100.0, 49_152
    t1, p1 = 100.0 / 12.85, 786_432
    assert parallel_efficiency_strong(t0, p0, t1, p1) == pytest.approx(0.803, abs=1e-3)
