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
    gauss_seidel_sweeps,
    residual_into,
    squared_spacings,
)
from repro.multigrid.transfer import prolong_into, restrict_into
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


class MGLevel:
    """What one level of the hierarchy owns: its stencil constants and the
    buffers a V-cycle works in at this level — the level's source ``rhs``,
    residual ``r`` (then the prolonged correction), scratch ``t`` / ``w``,
    and below the finest level its unknown ``u`` (the finest ``u`` is the
    array :meth:`MultigridPoisson.solve` returns).  The coarsest level,
    solved by FFT, also holds the stencil's eigenvalues."""

    def __init__(self, shape, spacing, finest: bool, coarsest: bool) -> None:
        self.h2, self.inv_h2 = squared_spacings(spacing)
        self.rhs, self.r, self.t, self.w = (
            np.empty(shape, dtype=float) for _ in range(4)
        )
        self.u = None if finest else np.empty(shape, dtype=float)
        if coarsest:
            # eigenvalues of the 7-point periodic Laplacian
            eig = np.zeros(shape, dtype=float)
            for axis in range(3):
                k = np.fft.fftfreq(shape[axis]) * 2.0 * np.pi
                lam = (2.0 * np.cos(k) - 2.0) / spacing[axis] ** 2
                sl = [None, None, None]
                sl[axis] = slice(None)
                eig = eig + lam[tuple(sl)]
            self.eig = eig
            self.nonzero = np.abs(eig) > 1e-14
            self.u_hat = np.zeros(shape, dtype=complex)


class MultigridPoisson:
    """V-cycle multigrid for the periodic Poisson equation.

    The solver owns everything a solve works in (:class:`MGLevel`, built on
    the first solve): after that a solve allocates the potential it returns
    and nothing else of fine-grid size, so an object kept across SCF passes
    and MD steps (the ``LDCWorkspace``'s) pays the hierarchy and the
    buffers once.  Not thread-safe: one solve at a time per object.

    Parameters
    ----------
    grid:
        The finest :class:`RealSpaceGrid`.
    pre_sweeps, post_sweeps:
        Red-black Gauss–Seidel smoothing sweeps per level.
    min_size:
        Coarsest-level size per axis; solved directly by FFT.
    """

    def __init__(
        self,
        grid: RealSpaceGrid,
        pre_sweeps: int = 2,
        post_sweeps: int = 2,
        min_size: int = 4,
    ) -> None:
        self.grid = grid
        self.hierarchy = GridHierarchy(grid.lengths, grid.shape, min_size)
        self.pre_sweeps = pre_sweeps
        self.post_sweeps = post_sweeps
        self.last_stats: MGStats | None = None
        #: per-level constants and buffers; empty until first needed
        self.levels: list[MGLevel] = []

    # -- public API -----------------------------------------------------------

    def solve(
        self,
        rho: np.ndarray,
        v0: np.ndarray | None = None,
        tol: float = 1e-8,
        max_cycles: int = 30,
        instrumentation: Observer | None = None,
    ) -> np.ndarray:
        """Solve ∇²V = -4πρ to relative residual ``tol``.

        ``v0`` (e.g. the previous SCF iteration's potential) warm-starts the
        cycle — the standard QMD trick for O(1) cycles per step.
        ``instrumentation`` is the observability handle this solve reports
        to (``poisson.*`` telemetry, a ``solver.convergence`` health sample,
        numerics checkpoints on source and solution); ``None`` is resolved
        here (:mod:`repro.observe`).
        """
        ins = observer(instrumentation)
        ins.check("rho", rho, where="poisson.solve")
        t0 = ins.tracer.now()
        fine = self._level(0)
        rhs = np.subtract(rho, float(np.mean(rho)), out=fine.rhs)
        rhs *= -4.0 * np.pi
        u = np.zeros_like(rhs) if v0 is None else v0 - float(np.mean(v0))
        rhs_norm = float(np.linalg.norm(rhs)) or 1.0
        norms: list[float] = []
        converged = False
        cycles = 0
        for cycles in range(1, max_cycles + 1):
            u = self._vcycle(u, rhs, 0)
            u -= float(np.mean(u))
            r = residual_into(u, rhs, fine.h2, fine.r, fine.t, fine.w)
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

    def _level(self, level: int) -> MGLevel:
        if not self.levels:
            last = self.hierarchy.nlevels - 1
            self.levels = [
                MGLevel(
                    self.hierarchy.shapes[lv], self.hierarchy.spacing(lv),
                    finest=lv == 0, coarsest=lv == last,
                )
                for lv in range(last + 1)
            ]
        return self.levels[level]

    def _vcycle(self, u: np.ndarray, rhs: np.ndarray, level: int) -> np.ndarray:
        """One V-cycle on ``u`` in place (the coarsest level returns its
        exact solution instead); ``rhs`` may be the level's own buffer."""
        if level == self.hierarchy.nlevels - 1:
            return self._coarse_solve(rhs, level)
        own, below = self._level(level), self._level(level + 1)
        gauss_seidel_sweeps(
            u, rhs, own.inv_h2, self.pre_sweeps, own.t, own.w
        )
        r = residual_into(u, rhs, own.h2, own.r, own.t, own.w)
        r_coarse = restrict_into(r, below.rhs, own.t)
        r_coarse -= float(np.mean(r_coarse))
        below.u.fill(0.0)
        e_coarse = self._vcycle(below.u, r_coarse, level + 1)
        u += prolong_into(e_coarse, own.r, own.t)
        gauss_seidel_sweeps(
            u, rhs, own.inv_h2, self.post_sweeps, own.t, own.w
        )
        return u

    def _coarse_solve(self, rhs: np.ndarray, level: int) -> np.ndarray:
        """Exact periodic solve on the coarsest level via FFT of the stencil."""
        own = self._level(level)
        rhs_hat = np.fft.fftn(rhs - float(np.mean(rhs)))
        # the zero mode (and nothing else) stays at the zero u_hat was built with
        np.divide(rhs_hat, own.eig, out=own.u_hat, where=own.nonzero)
        return np.ascontiguousarray(np.fft.ifftn(own.u_hat).real)


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
    return MultigridPoisson(grid).solve(rho, v0=v0, tol=tol)
