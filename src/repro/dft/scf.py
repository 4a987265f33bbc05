"""The conventional O(N³) plane-wave SCF driver — the paper's baseline.

This is the "conventional plane-wave DFT code" of Sec. 5.5 used to verify
LDC-DFT: one global plane-wave basis, all orbitals explicit, density mixed
to self-consistency.  Its cost scales as O(N³) through orthonormalization
and dense subspace operations, which is exactly the bottleneck LDC-DFT
removes.

Total free energy:

    E = Σ_n f_n ε_n - ∫ρ(V_H + v_xc) dr + E_H[ρ] + E_xc[ρ] + E_Ewald - kT·S
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.dft.basis import PlaneWaveBasis, density_from_fields
from repro.dft.eigensolver import (
    EigenResult,
    solve_all_band,
    solve_band_by_band,
    solve_direct,
)
from repro.dft.ewald import ewald_energy
from repro.dft.grid import RealSpaceGrid
from repro.dft.hamiltonian import Hamiltonian
from repro.dft.hartree import hartree_energy, hartree_potential
from repro.dft.mixing import LinearMixer, PulayMixer, renormalize
from repro.dft.occupations import (
    fermi_occupations,
    find_chemical_potential,
    smearing_entropy,
)
from repro.dft.pseudopotential import NonlocalProjectors, local_potential
from repro.dft.xc import lda_xc
from repro.sanitize import ENV_SANITIZERS, Sanitizers
from repro.systems.configuration import Configuration

if TYPE_CHECKING:
    from repro.observability.instrumentation import Instrumentation


def check_solver_names(eigensolver: str, mixer: str) -> None:
    """Reject an unknown eigensolver or mixer name when options are built —
    before any structure build, Ewald sum or Poisson solve is spent on a
    run that would fail at its first domain solve or density mix."""
    if eigensolver not in ("direct", "all_band", "band_by_band"):
        raise ValueError(f"unknown eigensolver {eigensolver!r}")
    if mixer not in ("pulay", "linear"):
        raise ValueError(f"unknown mixer {mixer!r}")


@dataclass
class SCFOptions:
    """Knobs for the SCF loop."""

    ecut: float = 6.0
    #: extra empty bands beyond ⌈N_e/2⌉
    extra_bands: int = 4
    #: electronic temperature (Hartree); the paper uses modest smearing
    kt: float = 0.01
    #: density-convergence threshold on ∫|Δρ| dr / N_e
    tol: float = 1e-6
    max_iter: int = 60
    mixer: str = "pulay"  # "pulay" | "linear"
    mix_alpha: float = 0.4
    #: eigensolver: "direct" | "all_band" | "band_by_band"
    eigensolver: str = "all_band"
    eig_tol: float = 1e-7
    eig_max_iter: int = 40
    #: grid oversampling factor (2.0 = exact density grid)
    grid_factor: float = 2.0
    #: occupation smearing scheme: "fermi" | "gaussian" | "methfessel-paxton"
    smearing: str = "fermi"
    seed: int = 7

    def __post_init__(self) -> None:
        check_solver_names(self.eigensolver, self.mixer)


@dataclass
class SCFResult:
    """Converged (or best-effort) SCF state."""

    energy: float
    band_energy: float
    hartree: float
    xc: float
    ewald: float
    entropy_term: float
    eigenvalues: np.ndarray
    occupations: np.ndarray
    mu: float
    density: np.ndarray
    orbitals: np.ndarray
    basis: PlaneWaveBasis
    grid: RealSpaceGrid
    converged: bool
    iterations: int
    history: list[float] = field(default_factory=list)
    density_residuals: list[float] = field(default_factory=list)
    #: total eigensolver iterations summed over every solve of the run
    #: (including the final consistent pass) — the per-step cost number
    #: the warm-start/extrapolation benches gate on
    eig_iterations: int = 0


def initial_density(grid: RealSpaceGrid, config: Configuration) -> np.ndarray:
    """Superposition of atomic Gaussian charges (width = covalent-ish rc)."""
    from repro.constants import get_species

    rho = np.zeros(grid.shape)
    for i, symbol in enumerate(config.symbols):
        sp = get_species(symbol)
        width = max(sp.rc_loc, 0.4) * 1.5
        dist = grid.min_image_distance(config.positions[i])
        rho += sp.zval * np.exp(-0.5 * (dist / width) ** 2) / (
            (2.0 * np.pi) ** 1.5 * width**3
        )
    return renormalize(rho, config.n_electrons(), grid.dv)


def build_hamiltonian(
    basis: PlaneWaveBasis,
    config: Configuration,
    rho: np.ndarray,
    v_loc: np.ndarray,
    vnl: NonlocalProjectors,
    v_extra: np.ndarray | None = None,
) -> tuple[Hamiltonian, np.ndarray, np.ndarray]:
    """Assemble H for a given density; returns (H, V_H, v_xc)."""
    grid = basis.grid
    vh = hartree_potential(grid, rho)
    _, vxc = lda_xc(rho)
    v_eff = v_loc + vh + vxc
    if v_extra is not None:
        v_eff = v_eff + v_extra
    return Hamiltonian(basis, v_eff, vnl), vh, vxc


def _occupy(
    eigs: np.ndarray, n_electrons: float, opts: SCFOptions
) -> tuple[float, np.ndarray]:
    """Chemical potential + occupations under the selected smearing."""
    if opts.smearing == "fermi":
        mu = find_chemical_potential(eigs, n_electrons, opts.kt)
        return mu, fermi_occupations(eigs, mu, opts.kt)
    from repro.dft.smearing import find_mu, occupations

    mu = find_mu(opts.smearing, eigs, n_electrons, opts.kt)
    return mu, occupations(opts.smearing, eigs, mu, opts.kt)


def _solve(
    ham: Hamiltonian,
    psi: np.ndarray,
    opts: SCFOptions,
    instrumentation: Instrumentation | None = None,
) -> EigenResult:
    # want_fields=True: the returned real-space fields feed the density
    # build directly, skipping a redundant to_grid of the converged block.
    if opts.eigensolver == "direct":
        return solve_direct(
            ham, psi.shape[1], instrumentation=instrumentation,
            want_fields=True,
        )
    if opts.eigensolver == "all_band":
        return solve_all_band(
            ham, psi, max_iter=opts.eig_max_iter, tol=opts.eig_tol,
            instrumentation=instrumentation, want_fields=True,
        )
    return solve_band_by_band(
        ham, psi, tol=opts.eig_tol, instrumentation=instrumentation,
        want_fields=True,
    )


def run_scf(
    config: Configuration,
    options: SCFOptions | None = None,
    v_extra: np.ndarray | None = None,
    rho0: np.ndarray | None = None,
    grid: RealSpaceGrid | None = None,
    instrumentation: Instrumentation | None = None,
    psi0: np.ndarray | None = None,
    sanitize: "Sanitizers | None" = None,
    warm_cell: np.ndarray | None = None,
) -> SCFResult:
    """Run the conventional SCF loop to self-consistency.

    Parameters
    ----------
    config:
        The atomic configuration (periodic cell).
    options:
        :class:`SCFOptions`; defaults are sized for toy systems.
    v_extra:
        Optional extra external potential on the grid (used by LDC domain
        solves to inject the boundary potential; exposed here for tests).
    rho0:
        Optional initial density (e.g. from the previous MD step).  A
        stale-shaped array (grid changed since it was produced) is ignored
        — cold start, not a crash.
    grid:
        Optional explicit grid (must match ``v_extra``/``rho0``).
    instrumentation:
        Optional :class:`~repro.observability.Instrumentation`; records
        ``scf.*`` spans and per-iteration residual/energy/μ series.  The
        default ``None`` executes no telemetry code at all.
    psi0:
        Optional starting orbitals ``(npw, nband)`` — e.g. the previous MD
        step's converged block (the QMD orbital warm start).  Ignored when
        the shape does not match the basis/band count of this call.
    sanitize:
        Optional :class:`~repro.sanitize.Sanitizers` bundle; the numerics
        slot checks density/eigenvalue checkpoints each iteration.  The
        default ``None`` defers to ``REPRO_SANITIZE`` and, when unset,
        executes zero sanitizer code.
    warm_cell:
        The cell ``rho0``/``psi0`` were converged in.  When given and
        different from ``config.cell``, both warm starts are dropped
        (deterministic cold start) — the same guard every engine used to
        implement privately, hoisted here so *all* callers get it.  A
        cell change usually also changes the grid/basis shape, but not
        always (e.g. a pure rescale): matching shapes over a different
        cell are exactly the stale warm start this catches.
    """
    opts = options or SCFOptions()
    san = sanitize if sanitize is not None else ENV_SANITIZERS
    if warm_cell is not None and not np.array_equal(
        np.asarray(warm_cell, dtype=float).reshape(-1),
        np.asarray(config.cell, dtype=float).reshape(-1),
    ):
        rho0 = None  # density lives on the old cell's grid
        psi0 = None  # orbitals live on the old cell's basis
    if instrumentation is None:
        return _run_scf(config, opts, v_extra, rho0, grid, None, psi0, san)
    if instrumentation.recorder is not None:
        instrumentation.recorder.record_invocation(
            "scf.run", opts, natoms=len(config.symbols)
        )
    with instrumentation.span(
        "scf.run", category="scf", natoms=len(config.symbols),
        eigensolver=opts.eigensolver, mixer=opts.mixer,
    ) as span:
        try:
            result = _run_scf(
                config, opts, v_extra, rho0, grid, instrumentation, psi0, san
            )
        except Exception as exc:
            if instrumentation.recorder is not None:
                instrumentation.recorder.record_failure(exc)
            raise
        span.attrs.update(
            converged=result.converged, iterations=result.iterations
        )
        instrumentation.log.info(
            "scf finished",
            extra={
                "engine": "pw",
                "converged": result.converged,
                "iterations": result.iterations,
                "energy": result.energy,
            },
        )
    return result


def _run_scf(
    config: Configuration,
    opts: SCFOptions,
    v_extra: np.ndarray | None,
    rho0: np.ndarray | None,
    grid: RealSpaceGrid | None,
    ins: Instrumentation | None,
    psi0: np.ndarray | None = None,
    san: "Sanitizers | None" = None,
) -> SCFResult:
    """SCF implementation; ``ins``/``san`` are the facades or None."""
    hm = None if ins is None else ins.health
    if grid is None:
        grid = RealSpaceGrid.for_cutoff(config.cell, opts.ecut, opts.grid_factor)
    basis = PlaneWaveBasis(grid, opts.ecut)
    n_electrons = config.n_electrons()
    nband = int(np.ceil(n_electrons / 2.0)) + opts.extra_bands
    nband = min(nband, basis.npw)

    v_loc = local_potential(grid, config)
    nonlocal_ = NonlocalProjectors(basis, config)
    e_ewald = ewald_energy(
        config.wrapped_positions(), config.zvals, config.cell
    )

    if rho0 is not None and rho0.shape != grid.shape:
        rho0 = None  # stale-shaped warm start (grid changed) → cold start
    rho = initial_density(grid, config) if rho0 is None else rho0.copy()
    if san is not None and san.numerics is not None:
        # ahead of renormalize, which refuses a non-finite total by itself
        san.numerics.check(
            "rho0", rho, where="scf.init", expect_dtype=np.float64
        )
    rho = renormalize(rho, n_electrons, grid.dv)
    if psi0 is not None and psi0.shape == (basis.npw, nband):
        psi = psi0  # orbital warm start (previous MD step's converged block)
    else:
        psi = basis.random_orbitals(nband, seed=opts.seed)

    mixer: PulayMixer | LinearMixer
    if opts.mixer == "pulay":
        mixer = PulayMixer(alpha=opts.mix_alpha)
    else:
        mixer = LinearMixer(alpha=opts.mix_alpha)

    history: list[float] = []
    residuals: list[float] = []
    converged = False
    energy = np.nan
    mu = 0.0
    occs = np.zeros(nband)
    eigs = np.zeros(nband)
    vh = np.zeros(grid.shape)
    it = 0
    eig_total = 0

    for it in range(1, opts.max_iter + 1):
        if ins is not None:
            t_iter = ins.tracer.now()
        ham, vh, vxc = build_hamiltonian(basis, config, rho, v_loc, nonlocal_, v_extra)
        if ins is None:
            eig = _solve(ham, psi, opts)
        else:
            with ins.span("scf.eigensolve", category="scf", iteration=it) as sp:
                eig = _solve(ham, psi, opts, ins)
                # solve sizes feed the per-kernel FLOP attribution
                # (repro.observability.costattr) at report time
                sp.attrs.update(
                    npw=basis.npw, nband=nband,
                    grid_points=int(np.prod(grid.shape)),
                    fft_stages=basis.stage_lines,
                    nproj=len(nonlocal_.d), cg_iterations=eig.iterations,
                )
        psi = eig.orbitals
        eigs = eig.eigenvalues
        eig_total += int(eig.iterations)
        mu, occs = _occupy(eigs, n_electrons, opts)
        rho_out = density_from_fields(eig.fields, occs)
        rho_out = renormalize(rho_out, n_electrons, grid.dv)
        if san is not None and san.numerics is not None:
            san.numerics.check(
                "eigenvalues", eigs, where=f"scf.iteration[{it}]"
            )
            san.numerics.check(
                "rho_new", rho_out, where=f"scf.iteration[{it}]",
                expect_dtype=np.float64,
            )

        resid = grid.integrate(np.abs(rho_out - rho)) / max(n_electrons, 1.0)
        residuals.append(resid)

        energy = _total_energy(
            grid, eigs, occs, rho_out, vh, vxc, e_ewald, mu, opts.kt
        )
        history.append(energy)

        if ins is not None:
            ins.counter("scf.iterations", engine="pw").inc()
            ins.series("scf.residual", engine="pw").append(resid)
            ins.series("scf.energy", engine="pw").append(energy)
            ins.series("scf.mu", engine="pw").append(mu)
            ins.tracer.record_complete(
                "scf.iteration", ins.tracer.now() - t_iter, category="scf",
                iteration=it, residual=resid, energy=energy,
            )
            ins.log.debug(
                "scf iteration",
                extra={"engine": "pw", "iteration": it,
                       "residual": resid, "energy": energy, "mu": mu},
            )
        if hm is not None:
            hm.observe(
                "scf.residual", engine="pw", iteration=it, residual=resid
            )

        if resid < opts.tol:
            rho = rho_out
            converged = True
            break
        rho = renormalize(
            np.clip(mixer.mix(rho, rho_out), 0.0, None), n_electrons, grid.dv
        )

    # Energy evaluated self-consistently at the final density.
    ham, vh, vxc = build_hamiltonian(basis, config, rho, v_loc, nonlocal_, v_extra)
    eig = _solve(ham, psi, opts, ins)
    psi = eig.orbitals
    eigs = eig.eigenvalues
    eig_total += int(eig.iterations)
    mu, occs = _occupy(eigs, n_electrons, opts)
    rho_final = renormalize(
        density_from_fields(eig.fields, occs), n_electrons, grid.dv
    )
    energy = _total_energy(
        grid, eigs, occs, rho_final, vh, vxc, e_ewald, mu, opts.kt
    )

    if hm is not None:
        hm.observe(
            "scf.density", engine="pw",
            total_charge=grid.integrate(rho_final), n_electrons=n_electrons,
        )
        hm.observe(
            "solver.convergence", solver="scf[pw]", converged=converged,
            iterations=it, final=True,
            residual=residuals[-1] if residuals else None,
        )

    e_h = hartree_energy(grid, rho_final, vh)
    from repro.dft.xc import xc_energy

    return SCFResult(
        energy=energy,
        band_energy=float(np.sum(occs * eigs)),
        hartree=e_h,
        xc=xc_energy(rho_final, grid.dv),
        ewald=e_ewald,
        entropy_term=-opts.kt * smearing_entropy(eigs, mu, opts.kt),
        eigenvalues=eigs,
        occupations=occs,
        mu=mu,
        density=rho_final,
        orbitals=psi,
        basis=basis,
        grid=grid,
        converged=converged,
        iterations=it,
        history=history,
        density_residuals=residuals,
        eig_iterations=eig_total,
    )


def _total_energy(
    grid: RealSpaceGrid,
    eigs: np.ndarray,
    occs: np.ndarray,
    rho: np.ndarray,
    vh: np.ndarray,
    vxc: np.ndarray,
    e_ewald: float,
    mu: float,
    kt: float,
) -> float:
    """Harris-style total energy from band energies and double counting.

    Note: ``vh``/``vxc`` correspond to the *input* density of the last solve;
    at self-consistency input and output coincide and the expression is the
    standard KS total energy.  An external ``v_extra`` needs no term of its
    own: its interaction energy is already inside the band energy.
    """
    from repro.dft.xc import xc_energy

    e_band = float(np.sum(occs * eigs))
    double_count = grid.integrate(rho * (vh + vxc))
    e_h = hartree_energy(grid, rho, vh)
    e_xc = xc_energy(rho, grid.dv)
    entropy = -kt * smearing_entropy(eigs, mu, kt)
    return e_band - double_count + e_h + e_xc + e_ewald + entropy
