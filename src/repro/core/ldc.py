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

``mode="dc"`` disables the boundary potential (no domain holds one),
recovering the original divide-and-conquer algorithm — the comparison
baseline of Fig. 7.  Its one-domain, zero-buffer case is global Kohn–Sham
DFT, the conventional code of Sec. 5.5: :func:`repro.dft.scf.run_scf` is
this driver on that layout.

Design choice (documented in DESIGN.md): the *local pseudopotential* field is
built once globally and restricted to domains, so the buffer controls purely
the quantum (wave-function confinement) error — the error Eq. 1 models.  The
nonlocal projectors use the atoms inside each domain (core + buffer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.batched import batched_domain_pass
from repro.core.boundary import PAPER_XI
from repro.core.domains import Domain, DomainDecomposition
from repro.core.energy import dc_band_energy, dc_total_energy
from repro.core.workspace import RESIDENT_PARTS, DomainScratch, LDCWorkspace
from repro.dft.basis import PlaneWaveBasis
from repro.dft.ewald import ewald
from repro.dft.grid import RealSpaceGrid
from repro.dft.hartree import hartree_potential
from repro.dft.occupations import fermi_occupations, find_chemical_potential
from repro.dft.pseudopotential import NonlocalProjectors, local_potential
from repro.dft.scf import potential_terms, scf_fixed_point
from repro.dft.xc import lda_xc
from repro.multigrid.poisson import MultigridPoisson
from repro.observe import Observer, observer
from repro.systems.configuration import Configuration


@dataclass
class LDCOptions:
    """Knobs for the LDC/DC SCF driver; :func:`~repro.dft.scf.SCFOptions`
    builds the whole-cell layout at the global solve's defaults.  The
    density mixer is the :class:`~repro.dft.mixing.PulayMixer` at α = 0.4,
    cold domain orbitals come from :data:`~repro.dft.scf.ORBITAL_SEED`, and
    the boundary potential acts outside each domain's core only."""

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
    extra_bands: int = 4
    eig_tol: float = 1e-6
    eig_max_iter: int = 30
    #: global Poisson solver: "fft" | "multigrid" (the GSLF choice)
    poisson: str = "fft"
    #: stack width of the all-band domain solves
    #: (:mod:`repro.core.batched`): ``True`` solves every shape class —
    #: the domains sharing (grid shape, npw, nband, nproj) — as one stacked
    #: lockstep LOBPCG, ``False`` solves every domain as a stack of one
    #: through the same kernels.  The results are bit-identical; only the
    #: kernel sizes differ.
    batch_domains: bool = True

    def __post_init__(self) -> None:
        """Reject, when the options are built, a value the driver would
        fail on or silently mis-run with — before any structure build,
        Ewald sum or Poisson solve is spent on it; the error names the
        field.  A negative ``kt`` inverts the Fermi function and still
        converges (``kt = 0`` is valid: the step-function occupations), a
        negative ``extra_bands`` fails deep in the solve on an empty band
        block, and ``max_iter = 0`` returns a result no pass produced."""
        for name, ok, bound in (
            ("kt", self.kt >= 0.0, ">= 0"),
            ("extra_bands", self.extra_bands >= 0, ">= 0"),
            ("max_iter", self.max_iter >= 1, ">= 1"),
        ):
            if not ok:
                raise ValueError(
                    f"{name} must be {bound}, got {getattr(self, name)!r}"
                )
        if self.mode not in ("ldc", "dc"):
            raise ValueError(f"mode must be 'ldc' or 'dc', got {self.mode!r}")
        if self.poisson not in ("fft", "multigrid"):
            raise ValueError("poisson must be 'fft' or 'multigrid'")
        if min(self.domains) < 1:
            raise ValueError(f"domains must be >= 1 per axis, got {self.domains!r}")


@dataclass
class DomainState:
    """Per-domain solver state carried across SCF iterations."""

    domain: Domain
    atom_indices: np.ndarray
    local_config: Configuration
    basis: PlaneWaveBasis | None
    vnl: NonlocalProjectors | None
    #: the partition weight p_α, the core indicator on the domain grid
    #: (one read-only array all domains hold); ``None`` on the whole
    #: cell, whose weight is 1 everywhere and read nowhere
    support: np.ndarray | None
    nband: int
    psi: np.ndarray | None = None
    eigenvalues: np.ndarray | None = None
    band_weights: np.ndarray | None = None
    occupations: np.ndarray | None = None
    rho_local: np.ndarray | None = None
    vbc: np.ndarray | None = None
    #: per-band |ψ|² between the solve and density steps of one SCF pass:
    #: a view of the stack pool's densities phase (unset once consumed;
    #: never set on the whole cell)
    band_densities: np.ndarray | None = None
    #: the domain is the whole cell — partition weight identically 1, the
    #: global grid (:attr:`~repro.core.workspace.LDCWorkspace.whole_cell`):
    #: no restriction, no v_bc, band weights 1, and ρ_α = Σ f|ψ|² formed
    #: after μ with no per-band block
    whole_cell: bool = False


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
    #: were solved at: the one the workspace's density window carries
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
    forces: np.ndarray | None = None
    #: total eigensolver (LOBPCG/CG) iterations summed over every domain
    #: solve of every SCF pass, including the final consistent pass — the
    #: per-step cost number the warm-start/extrapolation benches gate on
    eig_iterations: int = 0
    #: mean gauge-invariant residual of the step's ASPC ψ predictions
    #: against the converged blocks (None on a cold step)
    predictor_residual: float | None = None

    @property
    def n_domains(self) -> int:
        return self.decomposition.ndomains


def make_global_grid(
    config: Configuration, options: LDCOptions
) -> RealSpaceGrid:
    """Global grid for the cutoff.  The whole cell on the FFT Poisson
    solver (one domain) takes it as it is; any other layout rounds every
    axis up so the domain counts divide it, and keeps it even for the
    multigrid hierarchy."""
    base = RealSpaceGrid.for_cutoff(config.cell, options.ecut)
    if math.prod(options.domains) == 1 and options.poisson == "fft":
        return base
    shape = []
    for n, nd in zip(base.shape, options.domains):
        step = int(np.lcm(int(nd), 2))
        shape.append(int(np.ceil(n / step)) * step)
    return RealSpaceGrid(config.cell, shape)


def run_ldc(
    config: Configuration,
    options: LDCOptions | None = None,
    compute_forces: bool = False,
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

    ``instrumentation`` is the observability handle (:mod:`repro.observe`).
    An :class:`~repro.observability.Instrumentation` records one
    ``ldc.domain_solve`` span per stack, per-iteration
    residual/energy/μ/boundary-error series, and ``poisson.*`` telemetry
    when the multigrid solver is selected.  ``None`` (the default) is
    resolved here, once, to the off observer, whose calls do nothing.  A
    non-finite potential is named where a domain stack's Hamiltonian is
    built (:class:`~repro.dft.hamiltonian.NonFiniteFieldError`).

    ``workspace`` is the :class:`~repro.core.workspace.LDCWorkspace` the
    solve runs through: the grid, decomposition, partition of unity,
    per-domain bases, Ewald structure and multigrid levels come from its
    cache, domain ψ and the starting density are the ASPC predictions over
    its windows, the Pulay mixer is its own — so the secant pairs of earlier
    calls seed this one's density mixing, and once every domain is warm
    the final consistent pass runs at the mixer's next iterate rather than
    at the raw output density — and the converged states are stored back
    for the next call.  Without one the call is a one-step trajectory
    through a throwaway workspace: every domain cold, a fresh mixer, the
    final pass at the converged output density, the loop's
    ``initial_density`` as the start.  ``grid`` replaces the
    throwaway's global grid, so it and ``workspace`` are mutually
    exclusive.
    """
    opts = options or LDCOptions()
    ins = observer(instrumentation)
    with ins.invocation(
        "ldc.run", opts, category="ldc", natoms=len(config.symbols),
        mode=opts.mode, domains=str(opts.domains), buffer=opts.buffer,
    ) as span:
        result = _run_ldc(config, opts, compute_forces, grid, ins, workspace)
        span.attrs.update(
            converged=result.converged, iterations=result.iterations,
            ndomains=result.n_domains, energy=result.energy,
        )
    return result


def _run_ldc(
    config: Configuration,
    opts: LDCOptions,
    compute_forces: bool,
    grid: RealSpaceGrid | None,
    ins: Observer,
    workspace: LDCWorkspace | None,
) -> LDCResult:
    """Set-up, the global-local density map, result packaging — the body of
    :func:`run_ldc`'s ``ldc.run`` invocation."""
    t_setup = ins.tracer.now()
    if workspace is None:
        workspace = LDCWorkspace()
        if grid is not None:
            workspace._ensure_structures(config, opts, grid)
    elif grid is not None:
        raise ValueError("pass either grid= or workspace=, not both")
    grid, decomp, states, rho0 = workspace.prepare(config, opts)
    ins.tracer.record_complete(
        "ldc.workspace_prepare", ins.tracer.now() - t_setup, category="ldc",
        ndomains=decomp.ndomains, warm_domains=workspace.warm_domains,
        cold_domains=workspace.cold_domains,
    )
    ins.gauge("ldc.warm_domains").set(workspace.warm_domains)
    resident = workspace.resident_bytes  # a walk over every pool: lazy
    for part in RESIDENT_PARTS:
        ins.gauge("ldc.workspace_bytes", part=part).set(
            lambda part=part: resident()[part]
        )
    ins.gauge("ldc.domains").set(decomp.ndomains)

    n_electrons = config.n_electrons()
    v_loc_global = local_potential(grid, config)
    # one Ewald evaluation per solve: the forces ride along for ldc_forces
    e_ewald, f_ewald = ewald(
        config.wrapped_positions(), config.zvals, config.cell,
        compute_forces=compute_forces,
        structure=workspace.ewald_structure(config),
    )
    mg = workspace.poisson() if opts.poisson == "multigrid" else None
    xi = opts.xi if opts.mode == "ldc" else None
    #: the workspace's mixer, whose secant pairs outlive this solve
    memory = workspace.scf_mixer()
    #: whether the solve continues a trajectory (every domain warm): its
    #: converged state then feeds the next step's ASPC windows
    continues = workspace.cold_domains == 0
    # what the last pass left behind (the map hands the loop scalars); the
    # multigrid solve's warm start, its V_H, is popped by the next pass
    vh_warm: list[np.ndarray] = []
    components: dict[str, float] = {}
    eig_total = 0

    def density_map(
        rho_in: np.ndarray, iteration: int | None
    ) -> tuple[np.ndarray, float, float, dict[str, float]]:
        nonlocal components, eig_total
        mu, rho_out, components, bnd_err, eig_pass = _scf_pass(
            grid, states, rho_in, v_loc_global, e_ewald, n_electrons,
            xi, mg, vh_warm, opts, ins, workspace.batch_pool,
        )
        eig_total += eig_pass
        if bnd_err is None:  # no domain had a ρ_α to measure against
            return rho_out, components["total"], mu, {}
        if iteration is not None:
            ins.series("ldc.boundary_error").append(bnd_err)
        return rho_out, components["total"], mu, {"boundary_error": bnd_err}

    # the predicted ρ₀ rides to the loop in a one-slot list, so no name
    # here keeps it alive once the loop has admitted it
    start = [rho0]
    del rho0
    fixed = scf_fixed_point(
        density_map, config, grid, start.pop(), opts, mixer=memory,
        continues=continues, ins=ins,
    )
    # report the drops of this solve (and of the reset / cold domain that
    # preceded it) once, with the step they belong to
    for reason, count in memory.dropped.items():
        ins.counter("ldc.mixer_memory_dropped", reason=reason).inc(count)
    memory.dropped.clear()

    # push converged states and the density they were solved at onto the
    # ASPC windows for the next step's warm start; store() also settles
    # the predictor residual of the guesses this step started from
    workspace.store(states, fixed.input_density)
    predictor_residual = workspace.predictor_residual
    if predictor_residual is not None:
        ins.series("ldc.predictor_residual").append(predictor_residual)

    result = LDCResult(
        **fixed._asdict(),
        components=components,
        grid=grid,
        decomposition=decomp,
        states=states,
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
    vh_warm: list[np.ndarray],
    opts: LDCOptions,
    ins: Observer,
    pool: DomainScratch,
) -> tuple[float, np.ndarray, dict[str, float], float | None, int]:
    """One global-local pass: potentials → domain solves → μ → density.

    The global potentials are solved once and reduced at once to the
    energy's scalars (:func:`~repro.dft.scf.potential_terms`), so of the
    global fields only v_KS — and on the multigrid path V_H, the next
    pass's warm start, which replaces the last one in ``vh_warm`` — is
    alive while the domains are solved.  Every domain with atoms goes
    through the domain-solve seam
    (:func:`repro.core.batched.batched_domain_pass`; ``pool`` is its stack
    buffer pool), and the outcomes are folded in domain-index order into
    the global μ search and the density assembly; the whole cell forms its
    ρ_α = ρ after μ, band by band, in one pooled |ψ_n|² buffer.

    Returns (μ, assembled density, energy components, mean boundary-density
    error — ``None`` when no domain had a ρ_α to measure it against — and
    the summed eigensolver iterations over every domain solve).
    """
    if mg is not None:
        vh = mg.solve(
            rho, v0=vh_warm.pop() if vh_warm else None, tol=1e-8,
            instrumentation=ins,
        )
        vh_warm.append(vh)
    else:
        vh = hartree_potential(grid, rho)
    exc, vxc = lda_xc(rho)
    terms = potential_terms(grid, rho, vh, exc, vxc)
    del exc  # reduced to ``terms``, like V_H and v_xc: not held any longer
    # grouped as v_loc + (V_H + v_xc) — floating-point addition does not
    # associate, and this order is the one every stored trajectory used —
    # in one array of its own (addition commutes exactly)
    v_ks_global = np.add(vh, vxc)
    v_ks_global += v_loc_global
    del vh, vxc

    all_eigs: list[np.ndarray] = []
    all_weights: list[np.ndarray] = []
    bnd_err_total = 0.0
    n_active = 0

    active = [(idom, s) for idom, s in enumerate(states) if s.nband > 0]
    outcomes = batched_domain_pass(
        active, rho, v_ks_global, xi, opts, ins, pool=pool
    )
    del v_ks_global  # restricted into every domain: not held to the peak
    for (idom, state), (_, err) in zip(active, outcomes):
        assert state.eigenvalues is not None
        assert state.band_weights is not None
        all_eigs.append(state.eigenvalues)
        all_weights.append(state.band_weights)
        if err is not None:
            bnd_err_total += err
            n_active += 1
            ins.series("ldc.boundary_error", domain=idom).append(err)

    eigs_cat = np.concatenate(all_eigs)
    w_cat = np.concatenate(all_weights)
    mu = find_chemical_potential(eigs_cat, n_electrons, opts.kt, weights=w_cat)

    t_asm = ins.tracer.now()
    rho_new = np.zeros(grid.shape)
    for idom, state in active:
        assert state.eigenvalues is not None and state.psi is not None
        occs = fermi_occupations(state.eigenvalues, mu, opts.kt)
        state.occupations = occs
        if state.whole_cell:
            assert state.basis is not None
            # p ≡ 1: ρ_α is the assembled density, summed into it
            rho_a = state.basis.densities(
                state.psi, rho_new, occupations=occs,
                band=pool.get(("band_density", idom), grid.shape),
            )
        else:
            assert state.band_densities is not None
            rho_a = np.einsum("n,nijk->ijk", occs, state.band_densities)
            state.band_densities = None  # consumed; the next solve reuses it
            # p_α is the core box and the cores tile the grid: each
            # ρ_α's core block is its whole share of ρ = Σ_α p_α ρ_α
            dom = state.domain
            rho_new[dom.global_core_slices] = rho_a[dom.core_slices]
        state.rho_local = rho_a
    ins.tracer.record_complete(
        "ldc.assemble_density", ins.tracer.now() - t_asm,
        category="ldc", ndomains=len(active),
    )

    band_e = dc_band_energy(
        [s.eigenvalues for s in states if s.nband],
        [s.occupations for s in states if s.nband],
        [s.band_weights for s in states if s.nband],
    )
    components = dc_total_energy(
        terms, band_e, e_ewald, eigs_cat, w_cat, mu, opts.kt,
    )
    mean_err = bnd_err_total / n_active if n_active else None
    eig_pass = sum(iterations for iterations, _ in outcomes)
    return mu, rho_new, components, mean_err, eig_pass
