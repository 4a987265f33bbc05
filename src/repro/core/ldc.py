"""The LDC-DFT global-local SCF driver (Fig. 2).

One SCF iteration:

1. **Global**: the Hartree potential of the global density ρ is solved on the
   global grid (FFT or multigrid — the GSLF split of Sec. 3.2) and combined
   with v_xc[ρ] and the global local-pseudopotential field.
2. **Local**: each domain solves its Kohn–Sham eigenproblem on its own small
   plane-wave basis with periodic boundary conditions, the restricted global
   potential, its own nonlocal projectors, and — in ``mode="ldc"`` — the
   density-adaptive boundary potential v_bc = (ρ_α − ρ)/ξ (Eq. 2-3).  This
   step has one implementation, the domain-solve seam
   :func:`repro.core.batched.batched_domain_pass`.
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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.batched import batched_domain_pass
from repro.core.boundary import PAPER_XI
from repro.core.domains import Domain, DomainDecomposition
from repro.core.energy import (
    boundary_energy_correction,
    dc_band_energy,
    dc_total_energy,
)
from repro.core.support import supports
from repro.core.workspace import RESIDENT_PARTS, DomainScratch, LDCWorkspace
from repro.dft.basis import PlaneWaveBasis
from repro.dft.ewald import ewald
from repro.dft.grid import RealSpaceGrid
from repro.dft.hartree import hartree_potential
from repro.dft.occupations import fermi_occupations, find_chemical_potential
from repro.dft.pseudopotential import NonlocalProjectors, local_potential
from repro.dft.scf import check_solver_names, scf_fixed_point
from repro.dft.xc import lda_xc
from repro.multigrid.poisson import MultigridPoisson
from repro.observe import Observer, observer
from repro.systems.configuration import Configuration

if TYPE_CHECKING:
    from repro.dft.mixing import PulayMixer


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
    #: density mixer: "pulay" | "linear"
    mixer: str = "pulay"
    mix_alpha: float = 0.4
    extra_bands: int = 4
    #: domain eigensolver: "all_band" (the lockstep LOBPCG, production) or
    #: the per-domain references "direct" | "band_by_band"
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
    #: stack width of the all-band domain solves
    #: (:mod:`repro.core.batched`): ``True`` solves every shape class —
    #: the domains sharing (grid shape, npw, nband, nproj) — as one stacked
    #: lockstep LOBPCG, ``False`` solves every domain as a stack of one
    #: through the same kernels.  The results are bit-identical; only the
    #: kernel sizes differ.  The reference eigensolvers always run per
    #: domain.
    batch_domains: bool = True
    #: ASPC history window per domain (workspace runs only): 1 keeps the
    #: plain last-state warm start, K >= 2 seeds each solve from the
    #: time-reversible K-point extrapolation of the converged ψ/v_bc/ρ_α
    #: (:mod:`repro.md.extrapolate`).  Not part of the structural cache
    #: signature — changing it mid-trajectory trims/deepens the windows
    #: without a cold restart.
    history_depth: int = 1

    def __post_init__(self) -> None:
        if (
            int(self.history_depth) != self.history_depth
            or self.history_depth < 1
        ):
            raise ValueError("history_depth must be an integer >= 1")
        check_solver_names(self.eigensolver, self.mixer)
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
    #: per-band |ψ|² between the solve and density steps of one SCF pass:
    #: ``scratch``'s buffer as the eigensolver filled it (unset once stale)
    band_densities: np.ndarray | None = None
    #: the domain's reusable work buffers: its own for one run, or the
    #: ``LDCWorkspace``'s, which outlive the MD step
    scratch: DomainScratch = field(default_factory=DomainScratch)


@dataclass
class LDCResult:
    """Output of :func:`run_ldc`."""

    energy: float
    components: dict[str, float]
    mu: float
    #: the final pass's assembled output (clipped, normalized): the density
    #: of forces and charges
    density: np.ndarray
    #: the density the final pass's potentials — and so every domain's ψ —
    #: were solved at: the one to carry as the next solve's ``rho0``
    input_density: np.ndarray
    grid: RealSpaceGrid
    decomposition: DomainDecomposition
    states: list[DomainState]
    converged: bool
    iterations: int
    #: ∫|density − input_density|/N_e — the residual of the returned state
    #: (``density_residuals[-1]`` is the pass before it)
    final_residual: float
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


def run_ldc(
    config: Configuration,
    options: LDCOptions | None = None,
    compute_forces: bool = False,
    rho0: np.ndarray | None = None,
    grid: RealSpaceGrid | None = None,
    instrumentation: Observer | None = None,
    workspace: LDCWorkspace | None = None,
) -> LDCResult:
    """Solve LDC-DFT (or classic DC-DFT) to self-consistency.

    The loop is :func:`repro.dft.scf.scf_fixed_point`; this function
    supplies the global-local density map (:func:`_scf_pass`: Hartree/XC
    potentials solved globally, every domain with atoms through the
    domain-solve seam :func:`repro.core.batched.batched_domain_pass`, then
    the global μ and the reassembled density) and packages the final pass.

    ``rho0`` is the warm-start density (a stale-shaped one is a cold
    start).  Along a trajectory carry the previous result's
    ``input_density`` — the density its domain ψ, the ones a ``workspace``
    warm-starts from, were solved at — not its ``density``, the final
    pass's raw output, whose error is the input's amplified by the SCF
    response (DESIGN.md §17); :class:`~repro.md.qmd.LDCEngine` does.

    ``instrumentation`` is the observability handle (:mod:`repro.observe`).
    An :class:`~repro.observability.Instrumentation` records one
    ``ldc.domain_solve`` span per stack, per-iteration
    residual/energy/μ/boundary-error series, and ``poisson.*`` telemetry
    when the multigrid solver is selected; built with ``numerics=`` it also
    fires the tripwires at the density/potential/eigenvalue checkpoints.
    ``None`` (the default) is resolved here, once: the off observer, whose
    calls do nothing, unless ``REPRO_SANITIZE`` arms the checkpoints;
    :data:`~repro.observe.OFF` is off whatever the environment says.

    ``workspace`` optionally accepts a persistent
    :class:`~repro.core.workspace.LDCWorkspace`: the grid, decomposition,
    partition of unity, per-domain bases, and Ewald structure come from its
    cache, domain ψ are warm-started from the previous call's converged
    orbitals, and the converged states are stored back for the next call.
    With the Pulay mixer the workspace's mixer is handed to the loop, so
    the secant pairs of earlier calls seed this one's density mixing, and —
    once every domain is warm — the final consistent pass runs at the
    mixer's next iterate rather than at the raw output density; without a
    workspace the loop builds a fresh mixer and the final pass runs at the
    converged output density.  Mutually exclusive with ``grid``.
    """
    opts = options or LDCOptions()
    ins = observer(instrumentation)
    with ins.invocation(
        "ldc.run", opts, category="ldc", natoms=len(config.symbols),
        mode=opts.mode, domains=str(opts.domains), buffer=opts.buffer,
    ) as span:
        result = _run_ldc(config, opts, compute_forces, rho0, grid, ins, workspace)
        span.attrs.update(
            converged=result.converged, iterations=result.iterations,
            ndomains=result.n_domains,
        )
    return result


def _run_ldc(
    config: Configuration,
    opts: LDCOptions,
    compute_forces: bool,
    rho0: np.ndarray | None,
    grid: RealSpaceGrid | None,
    ins: Observer,
    workspace: LDCWorkspace | None,
) -> LDCResult:
    """Set-up, the global-local density map, result packaging — the body of
    :func:`run_ldc`'s ``ldc.run`` invocation."""
    ewald_structure = None
    t_setup = ins.tracer.now()
    if workspace is not None:
        if grid is not None:
            raise ValueError("pass either grid= or workspace=, not both")
        grid, decomp, states = workspace.prepare(config, opts)
        ewald_structure = workspace.ewald_structure(config)
        name = "ldc.workspace_prepare"
        attrs = {"warm_domains": workspace.warm_domains,
                 "cold_domains": workspace.cold_domains}
        ins.gauge("ldc.warm_domains").set(workspace.warm_domains)
        resident = workspace.resident_bytes  # a walk over every pool: lazy
        for part in RESIDENT_PARTS:
            ins.gauge("ldc.workspace_bytes", part=part).set(
                lambda part=part: resident()[part]
            )
    else:
        if grid is None:
            grid = make_global_grid(config, opts)
        decomp = DomainDecomposition(grid, opts.domains, opts.buffer)
        pou = supports(decomp, opts.support)
        states = LDCWorkspace().build_states(config, decomp, pou, opts)
        name, attrs = "ldc.partition_of_unity", {"support": opts.support}
    ins.tracer.record_complete(
        name, ins.tracer.now() - t_setup, category="ldc",
        ndomains=decomp.ndomains, **attrs,
    )
    ins.gauge("ldc.domains").set(decomp.ndomains)
    # the residual exists only for the health monitor and costs a pass over
    # the grid per domain: handed over unevaluated, for a listener to call
    ins.observe(
        "ldc.partition",
        max_residual=lambda: _partition_residual(grid, states),
        ndomains=decomp.ndomains, support=opts.support,
    )

    n_electrons = config.n_electrons()
    v_loc_global = local_potential(grid, config)
    # one Ewald evaluation per solve: the forces ride along for ldc_forces
    e_ewald, f_ewald = ewald(
        config.wrapped_positions(), config.zvals, config.cell,
        compute_forces=compute_forces, structure=ewald_structure,
    )
    mg: MultigridPoisson | None = None
    if opts.poisson == "multigrid":
        mg = (
            workspace.poisson() if workspace is not None
            else MultigridPoisson(grid)
        )
    xi = opts.xi if opts.mode == "ldc" else None
    # The seam's stack pool: persistent across MD steps with a workspace,
    # per-run otherwise — either way no per-pass allocations.
    pool = workspace.batch_pool if workspace is not None else DomainScratch()
    #: the workspace's mixer, whose secant pairs outlive this solve
    memory: PulayMixer | None = None
    #: whether the solve continues a trajectory (every domain warm): its
    #: converged state then feeds the next step's ASPC windows
    continues = False
    if workspace is not None and opts.mixer == "pulay":
        memory = workspace.scf_mixer(opts)
        continues = workspace.cold_domains == 0
    # what the last pass left behind (the map hands the loop scalars)
    vh_warm: np.ndarray | None = None
    components: dict[str, float] = {}
    boundary_errors: list[float] = []
    eig_total = 0

    def density_map(
        rho_in: np.ndarray, iteration: int | None
    ) -> tuple[np.ndarray, float, float, dict[str, float]]:
        nonlocal vh_warm, components, eig_total
        # each pass's V_H is the next one's Poisson warm start
        mu, rho_out, components, bnd_err, vh_warm, eig_pass = _scf_pass(
            grid, states, rho_in, v_loc_global, e_ewald, n_electrons,
            xi, mg, vh_warm, opts, ins, pool,
        )
        eig_total += eig_pass
        if iteration is not None:
            boundary_errors.append(bnd_err)
            ins.series("ldc.boundary_error").append(bnd_err)
        return rho_out, components["total"], mu, {"boundary_error": bnd_err}

    fixed = scf_fixed_point(
        density_map, config, grid, rho0, opts, "ldc", mixer=memory,
        continues=continues, ins=ins,
    )
    if memory is not None:
        # report the drops of this solve (and of the reset / cold domain
        # that preceded it) once, with the step they belong to
        for reason, count in memory.dropped.items():
            ins.counter("ldc.mixer_memory_dropped", reason=reason).inc(count)
        memory.dropped.clear()

    predictor_residual: float | None = None
    if workspace is not None:
        # push converged states onto the ASPC windows for the next step's
        # warm start; store() also settles the predictor residual of the
        # guesses this step started from
        workspace.store(states, opts)
        predictor_residual = workspace.predictor_residual
        if predictor_residual is not None:
            ins.series("ldc.predictor_residual").append(predictor_residual)

    result = LDCResult(
        **fixed._asdict(),
        components=components,
        grid=grid,
        decomposition=decomp,
        states=states,
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
    ins: Observer,
    pool: DomainScratch,
) -> tuple[float, np.ndarray, dict[str, float], float, np.ndarray, int]:
    """One global-local pass: potentials → domain solves → μ → density.

    The global potentials are solved once, every domain with atoms goes
    through the domain-solve seam
    (:func:`repro.core.batched.batched_domain_pass`; ``pool`` is its stack
    buffer pool), and the outcomes are folded in domain-index order into
    the global μ search and the density assembly; the potentials, the
    eigenvalues and μ are numerics checkpoints of ``ins``.

    Returns (μ, assembled density, energy components, mean boundary-density
    error, Hartree potential field — the caller's Poisson warm start, and
    the summed eigensolver iterations over every domain solve).
    """
    if mg is not None:
        vh = mg.solve(rho, v0=vh_warm, tol=1e-8, instrumentation=ins)
    else:
        vh = hartree_potential(grid, rho)
    exc, vxc = lda_xc(rho)
    v_hxc_global = vh + vxc
    v_ks_global = v_loc_global + v_hxc_global
    ins.check("hartree_potential", vh, where="ldc.scf_pass")
    ins.check("v_ks_global", v_ks_global, where="ldc.scf_pass")

    all_eigs: list[np.ndarray] = []
    all_weights: list[np.ndarray] = []
    bnd_err_total = 0.0
    n_active = 0

    active = [(idom, s) for idom, s in enumerate(states) if s.nband > 0]
    outcomes = batched_domain_pass(
        active, rho, v_hxc_global, v_ks_global, xi, opts, ins, pool=pool
    )
    for (idom, state), (_, err) in zip(active, outcomes):
        assert state.eigenvalues is not None
        assert state.band_weights is not None
        all_eigs.append(state.eigenvalues)
        all_weights.append(state.band_weights)
        # the solver's out-buffer, before anything is assembled from it
        ins.check("band_densities", state.band_densities,
                  where=f"ldc.domain[{idom}]", expect_dtype=np.float64)
        if err is not None:
            bnd_err_total += err
            n_active += 1
            ins.series("ldc.boundary_error", domain=idom).append(err)

    eigs_cat = np.concatenate(all_eigs)
    w_cat = np.concatenate(all_weights)
    mu = find_chemical_potential(eigs_cat, n_electrons, opts.kt, weights=w_cat)
    ins.check("eigenvalues", eigs_cat, where="ldc.scf_pass")
    ins.check("mu", mu, where="ldc.scf_pass")

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
        state.band_densities = None  # consumed; the pool keeps the buffer
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
        grid, rho, vh, exc, vxc, band_e, vbc_corr, e_ewald, eigs_cat, w_cat,
        mu, opts.kt,
    )
    mean_err = bnd_err_total / n_active if n_active else 0.0
    eig_pass = sum(iterations for iterations, _ in outcomes)
    return mu, rho_new, components, mean_err, vh, eig_pass
