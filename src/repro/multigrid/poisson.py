"""Geometric multigrid solver for the periodic Poisson problem
``∇²V = -4πρ`` (the Hartree potential of Sec. 3.2).

The periodic problem is singular (the mean of V is free; solvability
requires a zero-mean source).  We therefore project the source to zero mean
— physically the neutralizing background — and return a zero-mean potential,
matching the reciprocal-space convention ``V_H(G=0) = 0`` used everywhere
else in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dft.grid import RealSpaceGrid
from repro.multigrid.hierarchy import GridHierarchy
from repro.multigrid.stencils import (
    redblack_gauss_seidel,
    residual,
)
from repro.multigrid.transfer import full_weighting_restrict, trilinear_prolong
from repro.observe import Observer, observer


def fft_poisson(grid: RealSpaceGrid, rho: np.ndarray) -> np.ndarray:
    """Spectral reference solution of ∇²V = -4πρ (zero-mean, exact)."""
    rho_g = grid.fft(rho)
    g2 = grid.g2()
    vg = np.zeros_like(rho_g)
    nz = g2 > 0
    vg[nz] = 4.0 * np.pi * rho_g[nz] / g2[nz]
    return grid.ifft(vg).real


@dataclass
class MGStats:
    """Convergence record of one solve."""

    cycles: int
    residual_norms: list[float]
    converged: bool


class MultigridPoisson:
    """V-cycle multigrid for the periodic Poisson equation.

    Parameters
    ----------
    grid:
        The finest :class:`RealSpaceGrid`.
    pre_sweeps, post_sweeps:
        Red-black Gauss–Seidel smoothing sweeps per level.
    min_size:
        Coarsest-level size per axis; solved directly by FFT.
    instrumentation:
        The observability handle every :meth:`solve` reports to
        (``poisson.*`` telemetry, a ``solver.convergence`` health sample,
        numerics checkpoints on source and solution); ``None`` is resolved
        here (:mod:`repro.observe`).
    """

    def __init__(
        self,
        grid: RealSpaceGrid,
        pre_sweeps: int = 2,
        post_sweeps: int = 2,
        min_size: int = 4,
        instrumentation: Observer | None = None,
    ) -> None:
        self.grid = grid
        self.hierarchy = GridHierarchy(grid.lengths, grid.shape, min_size)
        self.pre_sweeps = pre_sweeps
        self.post_sweeps = post_sweeps
        self.last_stats: MGStats | None = None
        self.instrumentation = observer(instrumentation)

    # -- public API -----------------------------------------------------------

    def solve(
        self,
        rho: np.ndarray,
        v0: np.ndarray | None = None,
        tol: float = 1e-8,
        max_cycles: int = 30,
    ) -> np.ndarray:
        """Solve ∇²V = -4πρ to relative residual ``tol``.

        ``v0`` (e.g. the previous SCF iteration's potential) warm-starts the
        cycle — the standard QMD trick for O(1) cycles per step.
        """
        ins = self.instrumentation
        ins.check("rho", rho, where="poisson.solve")
        t0 = ins.tracer.now()
        rhs = -4.0 * np.pi * (rho - float(np.mean(rho)))
        u = np.zeros_like(rhs) if v0 is None else v0 - float(np.mean(v0))
        rhs_norm = float(np.linalg.norm(rhs)) or 1.0
        norms: list[float] = []
        converged = False
        cycles = 0
        for cycles in range(1, max_cycles + 1):
            u = self._vcycle(u, rhs, 0)
            u -= float(np.mean(u))
            r = residual(u, rhs, self.hierarchy.spacing(0))
            rel = float(np.linalg.norm(r)) / rhs_norm
            norms.append(rel)
            if rel < tol:
                converged = True
                break
        self.last_stats = MGStats(cycles, norms, converged)
        ins.counter("poisson.vcycles").inc(cycles)
        ins.counter("poisson.solves").inc()
        ins.series("poisson.residual").extend(norms)
        ins.gauge("poisson.warm_start").set(0.0 if v0 is None else 1.0)
        ins.tracer.record_complete(
            "poisson.solve", ins.tracer.now() - t0, category="poisson",
            cycles=cycles, converged=converged,
            warm_start=v0 is not None,
            grid_points=self.grid.npoints,
            sweeps=self.pre_sweeps + self.post_sweeps,
        )
        ins.log.debug(
            "multigrid solve",
            extra={"cycles": cycles, "converged": converged,
                   "final_residual": norms[-1] if norms else None},
        )
        ins.observe(
            "solver.convergence", solver="poisson.multigrid",
            converged=converged, iterations=cycles,
            residual=norms[-1] if norms else None,
        )
        ins.check("v_hartree", u, where="poisson.solve")
        return u

    # -- internals --------------------------------------------------------------

    def _vcycle(self, u: np.ndarray, rhs: np.ndarray, level: int) -> np.ndarray:
        spacing = self.hierarchy.spacing(level)
        if level == self.hierarchy.nlevels - 1:
            return self._coarse_solve(rhs, level)
        u = redblack_gauss_seidel(u, rhs, spacing, self.pre_sweeps)
        r = residual(u, rhs, spacing)
        r_coarse = full_weighting_restrict(r)
        r_coarse -= float(np.mean(r_coarse))
        e_coarse = self._vcycle(np.zeros_like(r_coarse), r_coarse, level + 1)
        u = u + trilinear_prolong(e_coarse)
        u = redblack_gauss_seidel(u, rhs, spacing, self.post_sweeps)
        return u

    def _coarse_solve(self, rhs: np.ndarray, level: int) -> np.ndarray:
        """Exact periodic solve on the coarsest level via FFT of the stencil."""
        shape = rhs.shape
        spacing = self.hierarchy.spacing(level)
        # Eigenvalues of the 7-point periodic Laplacian.
        eig = np.zeros(shape, dtype=float)
        for axis in range(3):
            k = np.fft.fftfreq(shape[axis]) * 2.0 * np.pi
            lam = (2.0 * np.cos(k) - 2.0) / spacing[axis] ** 2
            sl = [None, None, None]
            sl[axis] = slice(None)
            eig = eig + lam[tuple(sl)]
        rhs_hat = np.fft.fftn(rhs - float(np.mean(rhs)))
        u_hat = np.zeros_like(rhs_hat)
        nz = np.abs(eig) > 1e-14
        u_hat[nz] = rhs_hat[nz] / eig[nz]
        return np.fft.ifftn(u_hat).real


def hartree_potential_multigrid(
    grid: RealSpaceGrid,
    rho: np.ndarray,
    v0: np.ndarray | None = None,
    tol: float = 1e-8,
) -> np.ndarray:
    """Drop-in multigrid replacement for
    :func:`repro.dft.hartree.hartree_potential`.

    Note: the spectral and finite-difference Laplacians differ at O(h²), so
    this agrees with the FFT Hartree potential to discretization error, not
    machine precision — exactly the trade the paper's GSLF design makes.
    """
    solver = MultigridPoisson(grid)
    return solver.solve(rho, v0=v0, tol=tol)
