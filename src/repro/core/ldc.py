"""The LDC-DFT global-local SCF driver (Fig. 2).

One SCF iteration:

1. **Global**: the Hartree potential of the global density ρ is solved on the
   global grid (FFT or multigrid — the GSLF split of Sec. 3.2) and combined
   with v_xc[ρ] and the global local-pseudopotential field.
2. **Local**: each domain solves its Kohn–Sham eigenproblem on its own small
   plane-wave basis with periodic boundary conditions, the restricted global
   potential, its own nonlocal projectors, and — in ``mode="ldc"`` — the
   density-adaptive boundary potential v_bc = (ρ_α − ρ)/ξ (Eq. 2-3).
3. **Global**: a single chemical potential μ is found by Newton–Raphson on
   the electron count over all domain eigenvalues weighted by the partition
   of unity (Eq. c in Fig. 2); the global density is reassembled as
   ρ(r) = Σ_α p_α(r) ρ_α(r) (Eq. b) and mixed.

``mode="dc"`` disables the boundary potential, recovering the original
divide-and-conquer algorithm — the comparison baseline of Fig. 7.

Design choice (documented in DESIGN.md): the *local pseudopotential* field is
built once globally and restricted to domains, so the buffer controls purely
the quantum (wave-function confinement) error — the error Eq. 1 models.  The
nonlocal projectors use the atoms inside each domain (core + buffer).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.boundary import PAPER_XI, boundary_error_norm, boundary_potential
from repro.core.domains import Domain, DomainDecomposition
from repro.core.energy import (
    boundary_energy_correction,
    dc_band_energy,
    dc_total_energy,
)
from repro.core.support import supports
from repro.dft.basis import PlaneWaveBasis
from repro.dft.eigensolver import (
    EigenResult,
    record_solve,
    solve_all_band,
    solve_band_by_band,
    solve_direct,
)
from repro.dft.ewald import ewald
from repro.dft.grid import RealSpaceGrid
from repro.dft.hamiltonian import Hamiltonian
from repro.dft.hartree import hartree_potential
from repro.dft.mixing import LinearMixer, PulayMixer, renormalize
from repro.dft.occupations import fermi_occupations, find_chemical_potential
from repro.dft.pseudopotential import NonlocalProjectors, local_potential
from repro.dft.scf import initial_density
from repro.dft.xc import lda_xc
from repro.multigrid.poisson import MultigridPoisson
from repro.sanitize import ENV_SANITIZERS, Sanitizers
from repro.systems.configuration import Configuration

if TYPE_CHECKING:
    from repro.core.workspace import DomainScratch, LDCWorkspace
    from repro.observability.instrumentation import Instrumentation


@dataclass
class LDCOptions:
    """Knobs for the LDC/DC SCF driver."""

    ecut: float = 5.0
    #: number of DC cores per axis
    domains: tuple[int, int, int] = (2, 2, 2)
    #: buffer thickness b in Bohr (realized to whole grid points)
    buffer: float = 2.5
    #: "ldc" (density-adaptive boundary potential) or "dc" (classic)
    mode: str = "ldc"
    #: response parameter ξ of Eq. 2
    xi: float = PAPER_XI
    kt: float = 0.01
    #: SCF convergence threshold on ∫|Δρ|/N_e
    tol: float = 1e-5
    max_iter: int = 40
    mixer: str = "pulay"
    mix_alpha: float = 0.4
    extra_bands: int = 4
    eigensolver: str = "all_band"
    eig_tol: float = 1e-6
    eig_max_iter: int = 30
    grid_factor: float = 2.0
    #: global Poisson solver: "fft" | "multigrid" (the GSLF choice)
    poisson: str = "fft"
    #: partition of unity: "sharp" | "smooth"
    support: str = "sharp"
    #: ionic potential seen by a domain: "domain" (paper-faithful — built
    #: from the domain's own atoms and their artificial periodic images,
    #: the error source v_bc corrects) or "global" (the exact global local
    #: pseudopotential restricted to the domain — a GSLF-enabled variant
    #: whose only remaining buffer error is wave-function confinement)
    vion: str = "global"
    #: where the boundary potential acts: "buffer" (outside the core — the
    #: artificial boundary's neighborhood) or "full" (whole domain)
    vbc_region: str = "buffer"
    #: under-relaxation of v_bc across SCF iterations (1.0 = no damping)
    vbc_damping: float = 0.5
    seed: int = 7
    #: threads fanning the independent per-domain KS solves in each SCF
    #: pass (NumPy's BLAS/FFT release the GIL); 1 = serial.  Physics is
    #: identical either way — domains are independent and results are
    #: folded in domain-index order (parity-tested).
    ldc_workers: int = 1
    #: batch same-shape domain solves into stacked shape-class kernels
    #: (:mod:`repro.core.batched`): domains sharing (grid shape, npw,
    #: nband, nproj) solve as one stacked LOBPCG.  ``None`` (default)
    #: defers to ``$REPRO_BATCH_DOMAINS``; requires ``eigensolver="all_band"``
    #: (env-resolved requests fall back silently for other solvers, an
    #: explicit ``True`` raises).  Results match the per-domain path to
    #: ≤1e-10 (parity-tested); when batching is active ``ldc_workers`` is
    #: ignored for the solve stage.
    batch_domains: bool | None = None
    #: ASPC history window per domain (workspace runs only): 1 keeps the
    #: plain last-state warm start, K >= 2 seeds each solve from the
    #: time-reversible K-point extrapolation of the converged ψ/v_bc/ρ_α
    #: (:mod:`repro.md.extrapolate`).  Not part of the structural cache
    #: signature — changing it mid-trajectory trims/deepens the windows
    #: without a cold restart.
    history_depth: int = 1

    def __post_init__(self) -> None:
        if int(self.ldc_workers) != self.ldc_workers or self.ldc_workers < 1:
            raise ValueError("ldc_workers must be an integer >= 1")
        if (
            int(self.history_depth) != self.history_depth
            or self.history_depth < 1
        ):
            raise ValueError("history_depth must be an integer >= 1")
        if self.batch_domains and self.eigensolver != "all_band":
            raise ValueError(
                "batch_domains=True requires eigensolver='all_band' "
                f"(got {self.eigensolver!r}); leave batch_domains unset to "
                "fall back automatically"
            )
        if self.mode not in ("ldc", "dc"):
            raise ValueError(f"mode must be 'ldc' or 'dc', got {self.mode!r}")
        if self.poisson not in ("fft", "multigrid"):
            raise ValueError("poisson must be 'fft' or 'multigrid'")
        if self.vbc_region not in ("buffer", "full"):
            raise ValueError("vbc_region must be 'buffer' or 'full'")
        if self.vion not in ("domain", "global"):
            raise ValueError("vion must be 'domain' or 'global'")
        if not 0.0 < self.vbc_damping <= 1.0:
            raise ValueError("vbc_damping must be in (0, 1]")


@dataclass
class DomainState:
    """Per-domain solver state carried across SCF iterations."""

    domain: Domain
    atom_indices: np.ndarray
    local_config: Configuration
    basis: PlaneWaveBasis | None
    vnl: NonlocalProjectors | None
    support: np.ndarray
    nband: int
    v_ion_local: np.ndarray | None = None
    psi: np.ndarray | None = None
    eigenvalues: np.ndarray | None = None
    band_weights: np.ndarray | None = None
    occupations: np.ndarray | None = None
    rho_local: np.ndarray | None = None
    vbc: np.ndarray | None = None
    #: per-band |ψ|² fields stashed between the solve and density steps of
    #: one SCF pass (cleared after assembly to release the memory)
    band_densities: np.ndarray | None = None
    #: reusable per-domain work buffers (attached by ``LDCWorkspace``;
    #: ``None`` → the pass allocates as before)
    scratch: DomainScratch | None = None


@dataclass
class LDCResult:
    """Output of :func:`run_ldc`."""

    energy: float
    components: dict[str, float]
    mu: float
    density: np.ndarray
    grid: RealSpaceGrid
    decomposition: DomainDecomposition
    states: list[DomainState]
    converged: bool
    iterations: int
    history: list[float] = field(default_factory=list)
    density_residuals: list[float] = field(default_factory=list)
    boundary_errors: list[float] = field(default_factory=list)
    forces: np.ndarray | None = None
    #: total eigensolver (LOBPCG/CG) iterations summed over every domain
    #: solve of every SCF pass, including the final consistent pass — the
    #: per-step cost number the warm-start/extrapolation benches gate on
    eig_iterations: int = 0
    #: mean gauge-invariant residual of the step's ASPC ψ predictions
    #: against the converged blocks (None without a workspace or on the
    #: first, cold step)
    predictor_residual: float | None = None

    @property
    def n_domains(self) -> int:
        return self.decomposition.ndomains

    def eigenvalue_array(self) -> np.ndarray:
        return np.concatenate(
            [s.eigenvalues for s in self.states if s.eigenvalues is not None]
        )


def make_global_grid(
    config: Configuration, options: LDCOptions
) -> RealSpaceGrid:
    """Global grid for the cutoff, rounded up so the domain counts divide it
    (and kept even for the multigrid hierarchy)."""
    base = RealSpaceGrid.for_cutoff(config.cell, options.ecut, options.grid_factor)
    shape = []
    for n, nd in zip(base.shape, options.domains):
        step = int(np.lcm(int(nd), 2))
        shape.append(int(np.ceil(n / step)) * step)
    return RealSpaceGrid(config.cell, shape)


def _prepare_states(
    config: Configuration,
    decomp: DomainDecomposition,
    weights: list[np.ndarray],
    options: LDCOptions,
) -> list[DomainState]:
    states: list[DomainState] = []
    for dom, w in zip(decomp.domains, weights):
        idx, local = decomp.atoms_in_domain(config, dom)
        if len(idx) == 0:
            states.append(
                DomainState(dom, idx, local, None, None, w, nband=0)
            )
            continue
        basis = PlaneWaveBasis(dom.grid, options.ecut)
        vnl = NonlocalProjectors(basis, local)
        ne_local = local.n_electrons()
        nband = min(int(np.ceil(ne_local / 2.0)) + options.extra_bands, basis.npw)
        psi = basis.random_orbitals(nband, seed=options.seed + 131 * len(states))
        v_ion = (
            local_potential(dom.grid, local) if options.vion == "domain" else None
        )
        states.append(
            DomainState(
                dom, idx, local, basis, vnl, w, nband=nband, psi=psi,
                v_ion_local=v_ion,
            )
        )
    return states


def _partition_residual(
    grid: RealSpaceGrid, states: list[DomainState]
) -> float:
    """max_r |Σ_α p_α(r) − 1| — the identity Eq. (b)'s assembly relies on."""
    total = np.zeros(grid.shape)
    for state in states:
        ix, iy, iz = state.domain.grid_indices
        # Direct fancy-index += is valid (and much faster than the
        # unbuffered np.add.at): each per-axis wrapped index array is
        # duplicate-free because a domain's extent never exceeds the grid —
        # DomainDecomposition clamps buffer_points to (shape - core) // 2.
        total[np.ix_(ix, iy, iz)] += state.support
    return float(np.abs(total - 1.0).max())


def _solve_domain(
    state: DomainState,
    v_eff_domain: np.ndarray,
    options: LDCOptions,
    instrumentation: Instrumentation | None = None,
) -> EigenResult:
    """Solve the domain KS problem in place (updates psi, eigenvalues).

    Returns the full :class:`EigenResult`; ``result.fields`` carries the
    converged real-space orbitals so the caller's density assembly skips a
    redundant ``to_grid`` re-transform.
    """
    ham = Hamiltonian(state.basis, v_eff_domain, state.vnl)
    if options.eigensolver == "direct":
        res = solve_direct(
            ham, state.nband, instrumentation=instrumentation,
            want_fields=True,
        )
    elif options.eigensolver == "all_band":
        res = solve_all_band(
            ham, state.psi, max_iter=options.eig_max_iter, tol=options.eig_tol,
            instrumentation=instrumentation, want_fields=True,
        )
    elif options.eigensolver == "band_by_band":
        res = solve_band_by_band(
            ham, state.psi, tol=options.eig_tol,
            instrumentation=instrumentation, want_fields=True,
        )
    else:
        raise ValueError(f"unknown eigensolver {options.eigensolver!r}")
    state.psi = res.orbitals
    state.eigenvalues = res.eigenvalues
    return res


def _domain_effective_potential(
    state: DomainState,
    rho: np.ndarray,
    v_hxc_global: np.ndarray,
    v_ks_global: np.ndarray,
    xi: float | None,
    opts: LDCOptions,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Restrict the global fields to the domain and update its v_bc.

    Returns ``(v_eff_domain, rho_restricted)`` — the effective potential
    the domain eigenproblem sees (including the damped boundary potential)
    and the restricted global density (needed again for the boundary-error
    diagnostic).  ``state.vbc`` is updated in place as a side effect.

    With ``state.scratch`` attached (workspace runs) every intermediate —
    the two gathered fields, the v_bc target, the buffer window — lives in
    the domain's reusable pool, so a steady-state pass allocates nothing
    here; the arithmetic (and hence the result, bit for bit) is the same as
    the allocating path.  ``out``, when given, receives ``v_eff_domain``
    in place — the batched coordinator passes a slice of its stacked
    potential block.
    """
    dom = state.domain
    scratch = state.scratch
    if scratch is not None:
        shape = dom.grid.shape
        flat = scratch.flat_indices(dom, rho.shape)
        v_dom = out if out is not None else scratch.get("v_dom", shape)
        if state.v_ion_local is not None:
            np.take(v_hxc_global.ravel(), flat, out=v_dom)
            v_dom += state.v_ion_local
        else:
            np.take(v_ks_global.ravel(), flat, out=v_dom)
        rho_restricted = scratch.get("rho_restricted", shape)
        np.take(rho.ravel(), flat, out=rho_restricted)
        vbc_target = boundary_potential(
            state.rho_local, rho_restricted, xi,
            out=scratch.get("vbc_target", shape),
        )
        if opts.vbc_region == "buffer":
            # act only near the artificial boundary, not inside the core
            window = scratch.get("boundary_window", shape)
            np.subtract(1.0, state.support, out=window)
            vbc_target *= window
        if state.vbc is None:
            state.vbc = opts.vbc_damping * vbc_target  # owned, not scratch
        else:
            # same values as (1-d)·vbc + d·target, without the temporaries
            state.vbc *= 1.0 - opts.vbc_damping
            vbc_target *= opts.vbc_damping
            state.vbc += vbc_target
        v_dom += state.vbc
        return v_dom, rho_restricted
    if state.v_ion_local is not None:
        v_dom = dom.extract(v_hxc_global) + state.v_ion_local
    else:
        v_dom = dom.extract(v_ks_global)
    rho_restricted = dom.extract(rho)
    vbc_target = boundary_potential(state.rho_local, rho_restricted, xi)
    if opts.vbc_region == "buffer":
        # act only near the artificial boundary, not inside the core
        vbc_target = vbc_target * (1.0 - state.support)
    if state.vbc is None:
        state.vbc = opts.vbc_damping * vbc_target
    else:
        state.vbc = (
            1.0 - opts.vbc_damping
        ) * state.vbc + opts.vbc_damping * vbc_target
    if out is not None:
        np.add(v_dom, state.vbc, out=out)
        return out, rho_restricted
    return v_dom + state.vbc, rho_restricted


def _stage_band_data(
    state: DomainState, res: EigenResult, rho_restricted: np.ndarray
) -> float | None:
    """Stage band densities/weights on the state after a domain solve and
    return the boundary-density error (None on the first pass)."""
    dom = state.domain
    assert res.fields is not None
    if state.scratch is not None:
        densities = state.scratch.get(
            "band_densities", (state.nband,) + dom.grid.shape
        )
        # |ψ|² without the two per-pass temporaries of np.abs(...)**2;
        # ndarray ** 2 is np.power, so the values are identical
        np.absolute(res.fields, out=densities)
        np.power(densities, 2, out=densities)
    else:
        densities = np.abs(res.fields) ** 2  # per-band |ψ|²(r), reused fields
    # band weights w_αn = ∫ p_α |ψ_n|² dr
    w = np.einsum("nijk,ijk->n", densities, state.support) * dom.grid.dv
    state.band_weights = w
    state.band_densities = densities  # stashed for the density step
    err: float | None = None
    if state.rho_local is not None:
        err = boundary_error_norm(state.rho_local, rho_restricted, dom.grid.dv)
    return err


def _domain_pass(
    state: DomainState,
    rho: np.ndarray,
    v_hxc_global: np.ndarray,
    v_ks_global: np.ndarray,
    xi: float | None,
    opts: LDCOptions,
    ins: Instrumentation | None,
) -> tuple[EigenResult, float | None]:
    """The per-domain block of one SCF pass: restrict potentials, update
    v_bc, solve, and stage band weights/densities on the state.

    This is the unit of the ``ldc_workers`` fan-out.  When run on a worker
    thread the caller passes ``ins=None`` — counters/series on the shared
    instrumentation are not thread-safe, so the coordinating thread records
    solve telemetry after the join (see ``record_solve``).  Each invocation
    touches only its own ``state`` (including its private scratch pool)
    plus read-only global fields.
    """
    v_eff, rho_restricted = _domain_effective_potential(
        state, rho, v_hxc_global, v_ks_global, xi, opts
    )
    res = _solve_domain(state, v_eff, opts, ins)
    err = _stage_band_data(state, res, rho_restricted)
    return res, err


def run_ldc(
    config: Configuration,
    options: LDCOptions | None = None,
    compute_forces: bool = False,
    rho0: np.ndarray | None = None,
    grid: RealSpaceGrid | None = None,
    instrumentation: Instrumentation | None = None,
    workspace: LDCWorkspace | None = None,
    sanitize: Sanitizers | None = None,
) -> LDCResult:
    """Run the LDC-DFT (or classic DC-DFT) SCF loop to self-consistency.

    ``instrumentation`` optionally accepts an
    :class:`~repro.observability.Instrumentation`: records per-domain solve
    spans, per-iteration residual/energy/μ/boundary-error series, and
    ``poisson.*`` telemetry when the multigrid solver is selected.  The
    default ``None`` executes no telemetry code.

    ``sanitize`` optionally accepts a :class:`~repro.sanitize.Sanitizers`
    bundle: numerics tripwires fire at the density/potential/eigenvalue
    checkpoints and the race detector guards the shared buffers over the
    ``ldc_workers`` fan-out.  ``None`` (the default) defers to
    ``REPRO_SANITIZE`` and, when that is unset too, executes zero
    sanitizer code on the hot path.

    ``workspace`` optionally accepts a persistent
    :class:`~repro.core.workspace.LDCWorkspace`: the grid, decomposition,
    partition of unity, per-domain bases, and Ewald structure come from its
    cache, domain ψ are warm-started from the previous call's converged
    orbitals, and the converged states are stored back for the next call.
    With the Pulay mixer the workspace's mixer is used, so the secant
    pairs of earlier calls seed this one's density mixing, and — once
    every domain is warm — the final consistent pass runs at the mixer's
    next iterate rather than at the raw output density; without a
    workspace every call builds a fresh mixer.  Mutually exclusive with
    ``grid``.
    """
    opts = options or LDCOptions()
    san = sanitize if sanitize is not None else ENV_SANITIZERS
    if instrumentation is None:
        return _run_ldc(config, opts, compute_forces, rho0, grid, None,
                        workspace, san)
    if instrumentation.recorder is not None:
        instrumentation.recorder.record_invocation(
            "ldc.run", opts, natoms=len(config.symbols)
        )
    with instrumentation.span(
        "ldc.run", category="ldc", natoms=len(config.symbols),
        mode=opts.mode, domains=str(opts.domains), buffer=opts.buffer,
    ) as span:
        try:
            result = _run_ldc(
                config, opts, compute_forces, rho0, grid, instrumentation,
                workspace, san,
            )
        except Exception as exc:
            if instrumentation.recorder is not None:
                instrumentation.recorder.record_failure(exc)
            raise
        span.attrs.update(
            converged=result.converged, iterations=result.iterations,
            ndomains=result.n_domains,
        )
        instrumentation.log.info(
            "ldc finished",
            extra={
                "engine": "ldc",
                "mode": opts.mode,
                "converged": result.converged,
                "iterations": result.iterations,
                "energy": result.energy,
            },
        )
    return result


def _run_ldc(
    config: Configuration,
    opts: LDCOptions,
    compute_forces: bool,
    rho0: np.ndarray | None,
    grid: RealSpaceGrid | None,
    ins: Instrumentation | None,
    workspace: LDCWorkspace | None = None,
    san: Sanitizers | None = None,
) -> LDCResult:
    """LDC implementation; ``ins``/``san`` are the facades or None."""
    hm = None if ins is None else ins.health
    ewald_structure = None
    if workspace is not None:
        if grid is not None:
            raise ValueError("pass either grid= or workspace=, not both")
        if ins is not None:
            t_setup = ins.tracer.now()
        grid, decomp, states = workspace.prepare(config, opts)
        ewald_structure = workspace.ewald_structure(config)
        if ins is not None:
            ins.tracer.record_complete(
                "ldc.workspace_prepare", ins.tracer.now() - t_setup,
                category="ldc", ndomains=decomp.ndomains,
                warm_domains=workspace.warm_domains,
                cold_domains=workspace.cold_domains,
            )
            ins.gauge("ldc.domains").set(decomp.ndomains)
            ins.gauge("ldc.warm_domains").set(workspace.warm_domains)
    else:
        if grid is None:
            grid = make_global_grid(config, opts)
        decomp = DomainDecomposition(grid, opts.domains, opts.buffer)
        if ins is not None:
            t_setup = ins.tracer.now()
        pou = supports(decomp, opts.support)
        states = _prepare_states(config, decomp, pou, opts)
        if ins is not None:
            ins.tracer.record_complete(
                "ldc.partition_of_unity", ins.tracer.now() - t_setup,
                category="ldc", ndomains=decomp.ndomains, support=opts.support,
            )
            ins.gauge("ldc.domains").set(decomp.ndomains)
    if hm is not None:
        hm.observe(
            "ldc.partition",
            max_residual=_partition_residual(grid, states),
            ndomains=decomp.ndomains, support=opts.support,
        )

    n_electrons = config.n_electrons()
    v_loc_global = local_potential(grid, config)
    # one Ewald evaluation per solve: the forces ride along for ldc_forces
    e_ewald, f_ewald = ewald(
        config.wrapped_positions(), config.zvals, config.cell,
        compute_forces=compute_forces, structure=ewald_structure,
    )

    if rho0 is not None and rho0.shape != grid.shape:
        rho0 = None  # stale-shaped warm start (grid changed) → cold start
    rho = initial_density(grid, config) if rho0 is None else rho0.copy()
    if san is not None and san.numerics is not None:
        # ahead of renormalize, which refuses a non-finite total by itself
        san.numerics.check(
            "rho0", rho, where="ldc.init", expect_dtype=np.float64
        )
    rho = renormalize(rho, n_electrons, grid.dv)

    mg = (
        MultigridPoisson(grid, instrumentation=ins, sanitize=san)
        if opts.poisson == "multigrid"
        else None
    )
    vh_prev: np.ndarray | None = None

    mixer: PulayMixer | LinearMixer
    #: the workspace's mixer, whose secant pairs outlive this solve
    memory: PulayMixer | None = None
    #: whether the solve continues a trajectory (every domain warm): its
    #: converged state then feeds the next step's ASPC windows
    continues = False
    if opts.mixer == "pulay" and workspace is not None:
        mixer = memory = workspace.scf_mixer(opts)
        continues = workspace.cold_domains == 0
    elif opts.mixer == "pulay":
        mixer = PulayMixer(alpha=opts.mix_alpha)
    elif opts.mixer == "linear":
        mixer = LinearMixer(alpha=opts.mix_alpha)
    else:
        raise ValueError(f"unknown mixer {opts.mixer!r}")

    history: list[float] = []
    residuals: list[float] = []
    boundary_errors: list[float] = []
    converged = False
    it = 0
    mu = 0.0
    eig_total = 0
    components: dict[str, float] = {}

    xi = opts.xi if opts.mode == "ldc" else None

    # One pool serves every SCF pass of this run (workers idle between
    # passes; thread reuse avoids per-iteration spawn cost).
    executor = (
        ThreadPoolExecutor(max_workers=opts.ldc_workers)
        if opts.ldc_workers > 1
        else None
    )
    # The batched coordinator's stack pool: persistent across MD steps with
    # a workspace, per-run otherwise — either way no per-pass allocations.
    if workspace is not None:
        batch_pool = workspace.batch_pool
    else:
        from repro.core.workspace import DomainScratch as _DomainScratch

        batch_pool = _DomainScratch()
    try:
        for it in range(1, opts.max_iter + 1):
            if ins is not None:
                t_iter = ins.tracer.now()
            mu, rho_out, components, bnd_err, vh_prev, eig_pass = _scf_pass(
                grid, states, rho, v_loc_global, e_ewald, n_electrons,
                xi, mg, vh_prev, opts, ins, executor, san, batch_pool,
            )  # vh_prev is reused as the next iteration's Poisson warm start
            eig_total += eig_pass
            if san is not None and san.numerics is not None:
                san.numerics.check(
                    "rho_new", rho_out, where=f"ldc.iteration[{it}]",
                    expect_dtype=np.float64,
                )
            boundary_errors.append(bnd_err)
            rho_out = renormalize(
                np.clip(rho_out, 0.0, None), n_electrons, grid.dv
            )
            resid = grid.integrate(np.abs(rho_out - rho)) / max(
                n_electrons, 1.0
            )
            residuals.append(resid)
            history.append(components["total"])
            if ins is not None:
                ins.counter("scf.iterations", engine="ldc").inc()
                ins.series("scf.residual", engine="ldc").append(resid)
                ins.series("scf.energy", engine="ldc").append(
                    components["total"]
                )
                ins.series("scf.mu", engine="ldc").append(mu)
                ins.series("ldc.boundary_error").append(bnd_err)
                ins.tracer.record_complete(
                    "ldc.iteration", ins.tracer.now() - t_iter,
                    category="ldc", iteration=it, residual=resid,
                    boundary_error=bnd_err,
                )
                ins.log.debug(
                    "ldc iteration",
                    extra={"engine": "ldc", "iteration": it,
                           "residual": resid,
                           "energy": components["total"], "mu": mu,
                           "boundary_error": bnd_err},
                )
            if hm is not None:
                hm.observe(
                    "scf.residual", engine="ldc", iteration=it, residual=resid
                )
            converged = bool(resid < opts.tol)
            if converged and not continues:
                rho = rho_out
                break
            # On a trajectory the final pass, too, runs at the mixer's next
            # quasi-Newton iterate, not at the raw output density: on a
            # metal rho_out carries the residual's long-wavelength part
            # amplified, and the ASPC windows would extrapolate it into
            # the next step's starting point.
            rho = renormalize(
                np.clip(mixer.mix(rho, rho_out), 0.0, None), n_electrons,
                grid.dv,
            )
            if ins is not None and memory is not None and it == 1:
                ins.series("ldc.mixer_carried_pairs").append(
                    memory.carried_pairs
                )
            if converged:
                break

        # Final consistent evaluation at the converged density.
        mu, rho_final, components, bnd_err, _, eig_pass = _scf_pass(
            grid, states, rho, v_loc_global, e_ewald, n_electrons,
            xi, mg, vh_prev, opts, ins, executor, san, batch_pool,
        )
        eig_total += eig_pass
    finally:
        if executor is not None:
            executor.shutdown(wait=True)
    if memory is not None:
        # report the drops of this solve (and of the reset / cold domain
        # that preceded it) once, with the step they belong to
        if ins is not None:
            for reason, count in memory.dropped.items():
                ins.counter(
                    "ldc.mixer_memory_dropped", reason=reason
                ).inc(count)
        memory.dropped.clear()
    rho_final = renormalize(np.clip(rho_final, 0.0, None), n_electrons, grid.dv)

    predictor_residual: float | None = None
    if workspace is not None:
        # push converged states onto the ASPC windows for the next step's
        # warm start; store() also settles the predictor residual of the
        # guesses this step started from
        workspace.store(states, opts)
        predictor_residual = workspace.predictor_residual
        if ins is not None and predictor_residual is not None:
            ins.series("ldc.predictor_residual").append(predictor_residual)

    if hm is not None:
        hm.observe(
            "scf.density", engine="ldc",
            total_charge=grid.integrate(rho_final), n_electrons=n_electrons,
        )
        hm.observe(
            "solver.convergence", solver="scf[ldc]", converged=converged,
            iterations=it, final=True,
            residual=residuals[-1] if residuals else None,
        )

    result = LDCResult(
        energy=components["total"],
        components=components,
        mu=mu,
        density=rho_final,
        grid=grid,
        decomposition=decomp,
        states=states,
        converged=converged,
        iterations=it,
        history=history,
        density_residuals=residuals,
        boundary_errors=boundary_errors,
        eig_iterations=eig_total,
        predictor_residual=predictor_residual,
    )
    if compute_forces:
        from repro.core.forces import ldc_forces

        result.forces = ldc_forces(config, result, f_ewald)
    return result


def _scf_pass(
    grid: RealSpaceGrid,
    states: list[DomainState],
    rho: np.ndarray,
    v_loc_global: np.ndarray,
    e_ewald: float,
    n_electrons: float,
    xi: float | None,
    mg: MultigridPoisson | None,
    vh_warm: np.ndarray | None,
    opts: LDCOptions,
    ins: Instrumentation | None = None,
    executor: ThreadPoolExecutor | None = None,
    san: Sanitizers | None = None,
    batch_pool: DomainScratch | None = None,
) -> tuple[float, np.ndarray, dict[str, float], float, np.ndarray, int]:
    """One global-local pass: potentials → domain solves → μ → density.

    The per-domain solves are independent; with ``executor`` set they fan
    out across threads and the results are folded back in domain-index
    order, so the assembled physics is identical to the serial path.  When
    domain batching is enabled (``opts.batch_domains`` /
    ``$REPRO_BATCH_DOMAINS``, with the all-band solver) the solves instead
    run as stacked shape-class kernels on the coordinating thread — see
    :func:`repro.core.batched.batched_domain_pass` — again folded in
    domain-index order with results matching the per-domain path.  With
    ``san`` set, the race sanitizer freezes the shared input fields over
    the fan-out (workers own only their domain) and the numerics sanitizer
    checks the potential/eigenvalue checkpoints.

    Returns (μ, assembled density, energy components, mean boundary-density
    error, Hartree potential field — the caller's Poisson warm start, and
    the summed eigensolver iterations over every domain solve).
    """
    if mg is not None:
        vh = mg.solve(rho, v0=vh_warm, tol=1e-8)
    else:
        vh = hartree_potential(grid, rho)
    _, vxc = lda_xc(rho)
    v_hxc_global = vh + vxc
    v_ks_global = v_loc_global + v_hxc_global
    if san is not None and san.numerics is not None:
        san.numerics.check("hartree_potential", vh, where="ldc.scf_pass")
        san.numerics.check("v_ks_global", v_ks_global, where="ldc.scf_pass")

    all_eigs: list[np.ndarray] = []
    all_weights: list[np.ndarray] = []
    bnd_err_total = 0.0
    n_active = 0

    active = [(idom, s) for idom, s in enumerate(states) if s.nband > 0]
    outcomes: list[tuple[EigenResult, float | None, float | None]]
    # Imported here, not at module top: repro.core.batched imports this
    # module for the shared per-domain prework/postwork helpers.
    from repro.core.batched import batched_domain_pass, batching_enabled

    if active and batching_enabled(opts):
        # Stacked shape-class solves on the coordinating thread; outcomes
        # carry dt=None so the fold below does not double-record telemetry
        # (the batched pass emits its own ldc.batched_solve spans and the
        # per-domain eigensolver counters).
        outcomes = batched_domain_pass(
            active, rho, v_hxc_global, v_ks_global, xi, opts, ins,
            pool=batch_pool,
        )
    elif executor is not None and len(active) > 1:

        def _run_one(
            item: tuple[int, DomainState],
        ) -> tuple[EigenResult, float | None, float | None]:
            # Workers never touch the shared instrumentation (its counters
            # and series are not thread-safe); they only time themselves so
            # the coordinating thread can emit the span after the join.
            t0 = time.perf_counter() if ins is not None else 0.0
            res, err = _domain_pass(
                item[1], rho, v_hxc_global, v_ks_global, xi, opts, None
            )
            dt = (time.perf_counter() - t0) if ins is not None else None
            return res, err, dt

        # executor.map preserves input order → deterministic fold below
        if san is not None and san.race is not None:
            race = san.race

            def _run_one_claimed(
                item: tuple[int, DomainState],
            ) -> tuple[EigenResult, float | None, float | None]:
                # two workers claiming one domain is a scheduling bug the
                # exclusive claim turns into an immediate RaceError
                with race.exclusive(("ldc.domain", item[0]),
                                    f"domain-{item[0]}"):
                    return _run_one(item)

            with race.guard_readonly(
                {"rho": rho, "v_hxc_global": v_hxc_global,
                 "v_ks_global": v_ks_global}
            ):
                outcomes = list(executor.map(_run_one_claimed, active))
        else:
            outcomes = list(executor.map(_run_one, active))
    else:
        outcomes = []
        for idom, state in active:
            if ins is None:
                res, err = _domain_pass(
                    state, rho, v_hxc_global, v_ks_global, xi, opts, None
                )
                outcomes.append((res, err, None))
            else:
                with ins.span(
                    "ldc.domain_solve", category="ldc", domain=idom,
                    natoms=len(state.atom_indices), nband=state.nband,
                ) as sp:
                    res, err = _domain_pass(
                        state, rho, v_hxc_global, v_ks_global, xi, opts, ins
                    )
                    # solve sizes feed the per-kernel FLOP attribution
                    # (repro.observability.costattr) at report time
                    sp.attrs.update(
                        npw=state.basis.npw,
                        grid_points=int(np.prod(state.domain.grid.shape)),
                        fft_stages=state.basis.stage_lines,
                        nproj=len(state.vnl.d), cg_iterations=res.iterations,
                    )
                outcomes.append((res, err, None))

    for (idom, state), (res, err, dt) in zip(active, outcomes):
        assert state.basis is not None and state.eigenvalues is not None
        if ins is not None and dt is not None:
            # phase-safe telemetry for the parallel path: same span name and
            # attrs as the serial path, recorded post-join with the worker's
            # measured duration, plus the eigensolver counters the worker
            # deliberately skipped
            ins.tracer.record_complete(
                "ldc.domain_solve", dt, category="ldc", domain=idom,
                natoms=len(state.atom_indices), nband=state.nband,
                npw=state.basis.npw,
                grid_points=int(np.prod(state.domain.grid.shape)),
                fft_stages=state.basis.stage_lines,
                nproj=len(state.vnl.d), cg_iterations=res.iterations,
            )
            record_solve(ins, opts.eigensolver, state.basis.npw, res)
        all_eigs.append(state.eigenvalues)
        all_weights.append(state.band_weights)
        if err is not None:
            bnd_err_total += err
            n_active += 1
            if ins is not None:
                ins.series("ldc.boundary_error", domain=idom).append(err)

    eigs_cat = np.concatenate(all_eigs)
    w_cat = np.concatenate(all_weights)
    mu = find_chemical_potential(eigs_cat, n_electrons, opts.kt, weights=w_cat)
    if san is not None and san.numerics is not None:
        san.numerics.check("eigenvalues", eigs_cat, where="ldc.scf_pass")
        san.numerics.check("mu", mu, where="ldc.scf_pass")

    if ins is not None:
        t_asm = ins.tracer.now()
    rho_new = np.zeros(grid.shape)
    rho_locals: list[np.ndarray] = []
    vbcs: list[np.ndarray] = []
    sup_list: list[np.ndarray] = []
    for state in states:
        if state.nband == 0 or state.band_densities is None:
            continue
        occs = fermi_occupations(state.eigenvalues, mu, opts.kt)
        state.occupations = occs
        rho_a = np.einsum("n,nijk->ijk", occs, state.band_densities)
        state.rho_local = rho_a
        state.band_densities = None  # release the per-band fields
        ix, iy, iz = state.domain.grid_indices
        # Fancy-index += (not np.add.at): each per-axis wrapped index array
        # is duplicate-free — a domain's extent never exceeds the grid shape
        # (DomainDecomposition clamps buffer_points to (shape - core) // 2) —
        # so the buffered read-modify-write is exact and skips np.add.at's
        # slow unbuffered element-wise path.
        rho_new[np.ix_(ix, iy, iz)] += state.support * rho_a
        rho_locals.append(rho_a)
        if state.vbc is not None:
            vbcs.append(state.vbc)
        sup_list.append(state.support)
    if ins is not None:
        ins.tracer.record_complete(
            "ldc.assemble_density", ins.tracer.now() - t_asm,
            category="ldc", ndomains=len(rho_locals),
        )

    band_e = dc_band_energy(
        [s.eigenvalues for s in states if s.nband],
        [s.occupations for s in states if s.nband],
        [s.band_weights for s in states if s.nband],
    )
    vbc_corr = boundary_energy_correction(sup_list, vbcs, rho_locals, grid.dv)
    components = dc_total_energy(
        grid, rho, vh, vxc, band_e, vbc_corr, e_ewald, eigs_cat, w_cat, mu, opts.kt
    )
    mean_err = bnd_err_total / n_active if n_active else 0.0
    eig_pass = sum(int(res.iterations) for res, _, _ in outcomes)
    return mu, rho_new, components, mean_err, vh, eig_pass
