"""FLOP counts for the LDC-DFT computational kernels.

These are the standard operation counts (complex arithmetic counted as the
equivalent real FLOPs) for the kernels of Sec. 3: batched FFTs for the local
potential, BLAS3 GEMMs for the nonlocal projectors / subspace algebra /
Cholesky, and stencil sweeps for the global multigrid.  They parameterize
the scaling models and the %peak accounting of Tables 1-2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def fft_flops(npoints: int) -> float:
    """Complex 3-D FFT: ≈ 5 N log₂ N real FLOPs."""
    if npoints < 1:
        raise ValueError("npoints must be positive")
    return 5.0 * npoints * np.log2(max(npoints, 2))


def staged_fft_flops(stages) -> float:
    """One band's staged (pruned) 3-D transform: Σ over the stages of
    ``lines × 5 n log₂ n``.

    ``stages`` is ``PlaneWaveBasis.stage_lines`` — ``(lines, length)`` of
    the 1-D transforms the z, y and x stage actually run.  With no line
    pruned the sum equals :func:`fft_flops` of the full grid.
    """
    return float(sum(5.0 * lines * n * np.log2(n) for lines, n in stages))


def gemm_flops(m: int, n: int, k: int, complex_: bool = True) -> float:
    """Matrix-matrix multiply: 2mnk real / 8mnk complex FLOPs."""
    return (8.0 if complex_ else 2.0) * m * n * k


def cholesky_flops(n: int, complex_: bool = True) -> float:
    """Cholesky factorization of an n×n matrix: n³/3 (×4 complex)."""
    return (4.0 if complex_ else 1.0) * n**3 / 3.0


def stencil_flops(npoints: int, points_per_stencil: int = 7) -> float:
    """One smoothing sweep of a finite-difference stencil."""
    return 2.0 * points_per_stencil * npoints


@dataclass
class FlopCounts:
    """Breakdown of one domain SCF iteration's FLOPs."""

    fft: float
    nonlocal_gemm: float
    subspace: float
    orthonormalization: float

    @property
    def total(self) -> float:
        return self.fft + self.nonlocal_gemm + self.subspace + self.orthonormalization


def domain_scf_flops(
    npw: int,
    nband: int,
    grid_points: int,
    nproj: int,
    cg_iterations: int = 3,
    fft_stages=None,
) -> FlopCounts:
    """FLOPs for one SCF iteration of one DC domain.

    Per CG iteration: every band needs a forward+inverse FFT (local
    potential), the packed projector GEMMs (Eq. 5), and its share of the
    subspace Rayleigh–Ritz; orthonormalization adds the overlap build and
    the Cholesky solve (Sec. 3.3).  ``fft_stages`` (a basis's
    ``stage_lines``) counts the staged transform the solve really ran;
    without it the FFT term is the dense count over ``grid_points``.
    """
    per_band_fft = (
        staged_fft_flops(fft_stages) if fft_stages else fft_flops(grid_points)
    )
    per_iter_fft = 2.0 * nband * per_band_fft
    per_iter_nl = 2.0 * gemm_flops(nproj, nband, npw) if nproj else 0.0
    per_iter_sub = 2.0 * gemm_flops(nband, nband, npw) + gemm_flops(
        npw, nband, nband
    )
    ortho = gemm_flops(nband, nband, npw) + cholesky_flops(nband) + gemm_flops(
        npw, nband, nband
    )
    return FlopCounts(
        fft=cg_iterations * per_iter_fft,
        nonlocal_gemm=cg_iterations * per_iter_nl,
        subspace=cg_iterations * per_iter_sub,
        orthonormalization=ortho,
    )


def multigrid_vcycle_flops(finest_points: int, sweeps: int = 4) -> float:
    """One V-cycle over the octree hierarchy: geometric series ≤ 8/7 finest."""
    return stencil_flops(finest_points) * sweeps * 8.0 / 7.0


def qmd_step_flops(
    ndomains: int,
    npw: int,
    nband: int,
    grid_points: int,
    nproj: int,
    scf_iterations: int = 3,
    cg_iterations: int = 3,
    global_grid_points: int | None = None,
) -> float:
    """Total FLOPs of one QMD step of the full LDC-DFT system.

    Matches the Fig. 5 benchmark protocol: ``scf_iterations`` SCF cycles,
    each with ``cg_iterations`` CG refinements per wave function, plus one
    global multigrid solve per SCF cycle.
    """
    per_domain = domain_scf_flops(
        npw, nband, grid_points, nproj, cg_iterations
    ).total
    global_pts = global_grid_points or ndomains * grid_points
    per_scf = ndomains * per_domain + multigrid_vcycle_flops(global_pts)
    return scf_iterations * per_scf


def sic_domain_parameters(
    atoms_per_domain: int = 64, ecut: float = 25.0, buffer_ratio: float = 0.5
) -> dict[str, float]:
    """Representative production-scale domain parameters for SiC.

    The paper's production runs use large plane-wave bases (>10⁴ unknowns
    per electron); this helper returns self-consistent (npw, nband,
    grid_points, nproj) for the FLOP model given atoms per domain.
    """
    # 3C-SiC: 4.36 Å lattice, 8 atoms per (a₀)³ → volume per atom
    a0_bohr = 8.238
    vol_per_atom = a0_bohr**3 / 8.0
    core_vol = atoms_per_domain * vol_per_atom
    l = core_vol ** (1.0 / 3.0)
    ext = l * (1.0 + 2.0 * buffer_ratio)
    vol = ext**3
    gmax = np.sqrt(2.0 * ecut)
    npw = vol * gmax**3 / (6.0 * np.pi**2)
    grid_pts = int((2.0 * gmax * ext / np.pi) ** 3)
    # 8 valence electrons per SiC pair → 4 per atom; buffer atoms included
    natoms_ext = atoms_per_domain * (ext / l) ** 3
    nband = int(natoms_ext * 4 / 2 * 1.1)
    nproj = int(natoms_ext)
    return {
        "npw": int(npw),
        "nband": nband,
        "grid_points": grid_pts,
        "nproj": nproj,
        "extent": ext,
    }
