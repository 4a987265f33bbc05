"""The SCF fixed-point loop, and the conventional O(N³) plane-wave map.

:func:`scf_fixed_point` is the one place an SCF map is iterated: it admits
the warm-start density, mixes, tests convergence, evaluates the final
consistent pass and reports.  :func:`run_scf` and
:func:`repro.core.ldc.run_ldc` each hand it a *density map* ``ρ_in → ρ_out``
and package what comes back.

:func:`run_scf` is the "conventional plane-wave DFT code" of Sec. 5.5 used
to verify LDC-DFT: one global plane-wave basis, all orbitals explicit,
O(N³) through orthonormalization and dense subspace operations — exactly
the bottleneck LDC-DFT removes.  Its map is the one-domain, zero-buffer DC
calculation written independently (``tests/test_ldc.py`` pins the two to
1e-10), which is what makes it a reference.  Both maps report the total
free energy through one expression, :func:`harris_foulkes_energy`:

    E = Σ_n f_n ε_n - ∫ρ(V_H + v_xc) dr + E_H[ρ] + E_xc[ρ] + E_Ewald - kT·S
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from repro.dft.basis import PlaneWaveBasis
from repro.dft.eigensolver import (
    lobpcg_work_shape,
    record_solve,
    solve_all_band,
    solve_direct,
)
from repro.dft.ewald import ewald_energy
from repro.dft.grid import RealSpaceGrid
from repro.dft.hamiltonian import Hamiltonian
from repro.dft.hartree import hartree_energy, hartree_potential
from repro.dft.mixing import PulayMixer, renormalize
from repro.dft.occupations import (
    fermi_occupations,
    find_chemical_potential,
    smearing_entropy,
)
from repro.dft.pseudopotential import NonlocalProjectors, local_potential
from repro.dft.xc import lda_xc
from repro.observe import OFF, Observer, observer
from repro.systems.configuration import Configuration

if TYPE_CHECKING:
    from repro.core.ldc import LDCOptions

#: One evaluation of an SCF map: ``(ρ_in, iteration — None for the final
#: consistent pass)`` → (un-normalized ρ_out, Harris–Foulkes energy at ρ_in,
#: μ, pass-specific telemetry attributes such as ``boundary_error``).
DensityMap = Callable[
    [np.ndarray, int | None], tuple[np.ndarray, float, float, dict[str, float]]
]


#: Seed of the random starting orbitals of a cold solve: ``run_scf``'s
#: block, and LDC domain ``i``'s at ``ORBITAL_SEED + 131·i`` (domain 0 of a
#: one-domain LDC solve starts where ``run_scf`` does)
ORBITAL_SEED = 7


def check_options(options: SCFOptions | LDCOptions) -> None:
    """Reject, when the options are built, a value either SCF driver would
    fail on or silently mis-run with — before any structure build, Ewald
    sum or Poisson solve is spent on it.  The error names the field.

    An unknown eigensolver fails at the first domain solve; a negative
    ``kt`` inverts the Fermi function and still converges (``kt = 0`` is
    valid: the step function of ``_zero_temperature_mu``); a negative
    ``extra_bands`` fails deep in the solve on an empty band block; and
    ``max_iter = 0`` returns a result no pass produced."""
    if options.eigensolver not in ("direct", "all_band"):
        raise ValueError(f"unknown eigensolver {options.eigensolver!r}")
    for name, ok, bound in (
        ("kt", options.kt >= 0.0, ">= 0"),
        ("extra_bands", options.extra_bands >= 0, ">= 0"),
        ("max_iter", options.max_iter >= 1, ">= 1"),
    ):
        if not ok:
            raise ValueError(
                f"{name} must be {bound}, got {getattr(options, name)!r}"
            )


@dataclass
class SCFOptions:
    """Knobs for the SCF loop.  The density mixer is the
    :class:`~repro.dft.mixing.PulayMixer` at its default α = 0.4, and a
    cold solve starts from the orbitals of :data:`ORBITAL_SEED`."""

    ecut: float = 6.0
    #: extra empty bands beyond ⌈N_e/2⌉
    extra_bands: int = 4
    #: electronic temperature (Hartree); the paper uses modest smearing
    kt: float = 0.01
    #: density-convergence threshold on ∫|Δρ| dr / N_e
    tol: float = 1e-6
    max_iter: int = 60
    #: eigensolver: "all_band" (production) | "direct" (the reference)
    eigensolver: str = "all_band"
    eig_tol: float = 1e-7
    eig_max_iter: int = 40

    def __post_init__(self) -> None:
        check_options(self)


@dataclass
class SCFResult:
    """Converged (or best-effort) SCF state; ``energy = band_energy −
    double_count + hartree + xc + ewald + entropy_term``, all from the
    final pass's one :func:`harris_foulkes_energy` call."""

    energy: float
    band_energy: float
    double_count: float
    hartree: float
    xc: float
    ewald: float
    entropy_term: float
    eigenvalues: np.ndarray
    occupations: np.ndarray
    mu: float
    #: the final pass's output Σ f|ψ|² (clipped, normalized): the density
    #: of forces and charges
    density: np.ndarray
    #: the density the final pass's Hamiltonian — and so ``orbitals`` — was
    #: solved at: the one to carry as the next solve's ``rho0``
    input_density: np.ndarray
    orbitals: np.ndarray
    basis: PlaneWaveBasis
    grid: RealSpaceGrid
    converged: bool
    iterations: int
    #: ∫|density − input_density|/N_e — the residual of the returned state
    #: (``density_residuals[-1]`` is the pass before it)
    final_residual: float
    #: Harris–Foulkes energy of every pass (second order in that pass's
    #: residual, not variational: it may approach the limit from below)
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
) -> tuple[Hamiltonian, np.ndarray, np.ndarray, np.ndarray]:
    """Assemble H for a given density; returns (H, V_H, ε_xc, v_xc)."""
    grid = basis.grid
    vh = hartree_potential(grid, rho)
    exc, vxc = lda_xc(rho)
    return Hamiltonian(basis, v_loc + vh + vxc, vnl), vh, exc, vxc


def harris_foulkes_energy(
    grid: RealSpaceGrid,
    rho: np.ndarray,
    vh: np.ndarray,
    exc: np.ndarray,
    vxc: np.ndarray,
    band_energy: float,
    e_ewald: float,
    entropy_term: float,
) -> dict[str, float]:
    """The total free energy of one SCF pass, everything at its *input*
    density ``rho`` — the one ``vh`` and ``exc``/``vxc`` (the pass's one
    :func:`~repro.dft.xc.lda_xc` evaluation), and so the Hamiltonian behind
    ``band_energy``, were built from.  That makes it the Harris–Foulkes
    functional, second order in the pass's residual (the double counting
    integrated over the *output* density instead is first order: 1.9e-4
    against 1.6e-8 Ha at ``tol=1e-3`` on one H₂O, DESIGN.md §20).
    ``band_energy`` arrives with any non-physical potential (LDC's
    ``v_bc``) already removed.  Returns the total and every part.
    """
    # every integral a dot product with ρ: no product field, no V_H + v_xc
    e_h = hartree_energy(grid, rho, vh)
    double_count = 2.0 * e_h + grid.inner(rho, vxc)
    e_xc = grid.inner(rho, exc)
    total = band_energy - double_count + e_h + e_xc + e_ewald + entropy_term
    return {
        "total": total,
        "band": band_energy,
        "double_count": double_count,
        "hartree": e_h,
        "xc": e_xc,
        "ewald": e_ewald,
        "entropy_term": entropy_term,
    }


class FixedPoint(NamedTuple):
    """What :func:`scf_fixed_point` returns, named as the result classes
    name it: the final consistent pass and the loop's per-pass scalars.

    The final pass is a pair of densities.  ``input_density`` is the one
    its Hamiltonian was built from, and *the density to carry*: what a
    trajectory's window stores and the next solve's ``rho0`` is predicted
    from.  The returned orbitals are eigenvectors of H[``input_density``],
    so the two are the consistent pair; and with J = ∂ρ_out/∂ρ_in the
    output's error is J·e against the input's e, largest in the
    long-wavelength components an ASPC window amplifies (DESIGN.md §17).
    ``density`` is that pass's output (clipped, normalized): Σ f|ψ|², the
    density of forces, charges and ``∫ρ = N_e`` checks.  They differ by
    ``final_residual`` = ∫|ρ − ρ_in|/N_e, the residual of the state that
    is returned (``density_residuals[-1]`` belongs to the pass before it).
    """

    density: np.ndarray
    input_density: np.ndarray
    energy: float
    mu: float
    converged: bool
    iterations: int
    history: list[float]
    density_residuals: list[float]
    final_residual: float


def scf_fixed_point(
    density_map: DensityMap,
    config: Configuration,
    grid: RealSpaceGrid,
    rho0: np.ndarray | None,
    options: SCFOptions | LDCOptions,
    engine: str,
    mixer: PulayMixer | None = None,
    continues: bool = False,
    ins: Observer = OFF,
) -> FixedPoint:
    """Iterate ``ρ_out = density_map(ρ_in)`` to self-consistency — the one
    SCF loop; ``run_scf`` and ``run_ldc`` differ only in the map.

    ``rho0`` is the warm-start density: ``None`` or a stale shape starts
    cold from :func:`initial_density`, a non-finite one is a
    :class:`~repro.dft.mixing.DensityError`.  Each pass clips and
    normalizes the map's output, takes the residual ``∫|ρ_out − ρ_in|/N_e``
    and stops below ``options.tol`` or mixes.  ``mixer`` is a caller-owned
    mixer whose secant pairs outlive this solve (the LDC workspace's);
    without one a fresh :class:`~repro.dft.mixing.PulayMixer` is built.

    The final consistent pass, whose density, energy and μ are returned,
    runs at the converged ``ρ_out`` — or, when the solve ``continues`` a
    trajectory (its state seeds the next MD step), at the mixer's next
    iterate; when ``options.max_iter`` runs out, at the last mixed iterate
    with ``converged=False``.  Whichever it was comes back as
    ``input_density`` (the loop's own array, never a mixer buffer), and
    that — not the pass's raw output ``density`` — is what a caller
    carries to the next solve (:class:`FixedPoint` has the reasons).

    ``engine`` (``"pw"`` | ``"ldc"``) labels what the loop tells ``ins``,
    the observability handle (the caller's, already resolved; the loop does
    not read the environment) — the ``scf.*`` instruments and a
    ``scf.iteration`` / ``ldc.iteration`` span per pass with the map's
    attributes merged in.  A non-finite potential is named where the map
    builds its Hamiltonian (:class:`~repro.dft.hamiltonian.NonFiniteFieldError`).
    """
    label = "scf" if engine == "pw" else engine
    n_electrons = config.n_electrons()
    if rho0 is not None and rho0.shape != grid.shape:
        rho0 = None  # stale-shaped warm start (grid changed) → cold start
    rho = initial_density(grid, config) if rho0 is None else rho0.copy()
    rho = renormalize(rho, n_electrons, grid.dv)
    step = mixer if mixer is not None else PulayMixer()

    def residual(rho_out: np.ndarray, rho_in: np.ndarray) -> float:
        return grid.integrate(np.abs(rho_out - rho_in)) / max(n_electrons, 1.0)

    history: list[float] = []
    residuals: list[float] = []
    converged = False
    it = 0
    for it in range(1, options.max_iter + 1):
        t_iter = ins.tracer.now()
        # unpacked, so no record keeps a pass's density alive past its use
        rho_out, energy, mu, attrs = density_map(rho, it)
        rho_out = renormalize(
            np.clip(rho_out, 0.0, None), n_electrons, grid.dv
        )
        resid = residual(rho_out, rho)
        residuals.append(resid)
        history.append(energy)
        ins.counter("scf.iterations", engine=engine).inc()
        ins.series("scf.residual", engine=engine).append(resid)
        ins.series("scf.energy", engine=engine).append(energy)
        ins.series("scf.mu", engine=engine).append(mu)
        ins.tracer.record_complete(
            f"{label}.iteration", ins.tracer.now() - t_iter,
            category=label, iteration=it, residual=resid, energy=energy,
            **attrs,
        )
        converged = bool(resid < options.tol)
        if converged and not continues:
            rho = rho_out
            break
        # On a trajectory the final pass, too, runs at the mixer's next
        # quasi-Newton iterate, not at the raw output density: on a
        # metal rho_out carries the residual's long-wavelength part
        # amplified, and the ASPC windows would extrapolate it into
        # the next step's starting point.
        rho = renormalize(
            np.clip(step.mix(rho, rho_out), 0.0, None), n_electrons, grid.dv
        )
        if mixer is not None and it == 1:
            ins.series(f"{engine}.mixer_carried_pairs").append(
                mixer.carried_pairs
            )
        if converged:
            break

    rho_final, energy, mu, _ = density_map(rho, None)
    rho_final = renormalize(
        np.clip(rho_final, 0.0, None), n_electrons, grid.dv
    )
    # "converged to tol" describes the pass before this one; the state that
    # goes out has a residual of its own (recorded, nothing depends on it)
    final_resid = residual(rho_final, rho)
    ins.series("scf.final_residual", engine=engine).append(final_resid)
    return FixedPoint(
        rho_final, rho, energy, mu, converged, it, history, residuals,
        final_resid,
    )


def run_scf(
    config: Configuration,
    options: SCFOptions | None = None,
    rho0: np.ndarray | None = None,
    grid: RealSpaceGrid | None = None,
    instrumentation: Observer | None = None,
    psi0: np.ndarray | None = None,
) -> SCFResult:
    """Solve global Kohn–Sham DFT to self-consistency.

    The loop is :func:`scf_fixed_point`; this function supplies the global
    density map (build H[ρ], solve all bands on one basis, occupy, sum
    |ψ|²) and packages the final pass, which runs at the converged output
    density.  Every call builds a fresh mixer.

    Parameters
    ----------
    config:
        The atomic configuration (periodic cell).
    options:
        :class:`SCFOptions`; defaults are sized for toy systems.
    rho0:
        Optional initial density.  From the previous MD step, carry its
        ``SCFResult.input_density`` — the density its orbitals (``psi0``)
        were solved at — not ``.density``, that pass's raw output.  A
        stale-shaped array (grid changed since it was produced) is ignored
        — cold start, not a crash.
    grid:
        Optional explicit grid (must match ``rho0``).
    instrumentation:
        The observability handle (:mod:`repro.observe`).  An
        :class:`~repro.observability.Instrumentation` records ``scf.*``
        spans and per-iteration residual/energy/μ series.  ``None`` (the
        default) is resolved here, once, to the off observer, whose calls
        do nothing.
    psi0:
        Optional starting orbitals ``(npw, nband)`` — e.g. the previous MD
        step's converged block (the QMD orbital warm start).  Ignored when
        the shape does not match the basis/band count of this call.  Both
        warm starts are the caller's to keep consistent with ``config``:
        :class:`~repro.md.qmd.SCFEngine` keys its window by the cell, so a
        cell change there is a cold start.
    """
    opts = options or SCFOptions()
    ins = observer(instrumentation)
    with ins.invocation(
        "scf.run", opts, category="scf", natoms=len(config.symbols),
        eigensolver=opts.eigensolver,
    ) as span:
        result = _run_scf(config, opts, rho0, grid, ins, psi0)
        span.attrs.update(
            converged=result.converged, iterations=result.iterations,
            energy=result.energy,
        )
    return result


def _run_scf(
    config: Configuration,
    opts: SCFOptions,
    rho0: np.ndarray | None,
    grid: RealSpaceGrid | None,
    ins: Observer,
    psi0: np.ndarray | None,
) -> SCFResult:
    """Set-up, the global density map, result packaging — the body of
    :func:`run_scf`'s ``scf.run`` invocation."""
    if grid is None:
        grid = RealSpaceGrid.for_cutoff(config.cell, opts.ecut)
    basis = PlaneWaveBasis(grid, opts.ecut)
    n_electrons = config.n_electrons()
    nband = int(np.ceil(n_electrons / 2.0)) + opts.extra_bands
    nband = min(nband, basis.npw)

    v_loc = local_potential(grid, config)
    nonlocal_ = NonlocalProjectors(basis, config)
    e_ewald = ewald_energy(
        config.wrapped_positions(), config.zvals, config.cell
    )
    if psi0 is not None and psi0.shape == (basis.npw, nband):
        psi = psi0  # orbital warm start (previous MD step's converged block)
    else:
        psi = basis.random_orbitals(nband, seed=ORBITAL_SEED)
    # what the all-band solver iterates in, one buffer for every pass
    work = None
    if opts.eigensolver == "all_band":
        work = np.empty(lobpcg_work_shape(1, basis.npw, nband), dtype=complex)
    # what the last pass left behind (the map hands the driver scalars)
    eigs = occs = np.zeros(nband, dtype=float)
    parts: dict[str, float] = {}
    eig_total = 0

    def density_map(
        rho_in: np.ndarray, iteration: int | None
    ) -> tuple[np.ndarray, float, float, dict[str, float]]:
        nonlocal psi, eigs, occs, parts, eig_total
        ham, vh, exc, vxc = build_hamiltonian(
            basis, config, rho_in, v_loc, nonlocal_
        )
        with ins.span("scf.eigensolve", category="scf", iteration=iteration) as sp:
            if opts.eigensolver == "direct":
                eig = solve_direct(ham, nband)
            else:
                eig = solve_all_band(
                    ham, psi, opts.eig_max_iter, opts.eig_tol, work=work
                )
            record_solve(ins, opts.eigensolver, eig)
            # solve sizes feed the per-kernel FLOP attribution
            # (repro.observability.costattr) at report time
            sp.attrs.update(
                npw=basis.npw, nband=nband, grid_points=grid.npoints,
                fft_stages=basis.stage_lines,
                nproj=len(nonlocal_.d), cg_iterations=eig.iterations,
            )
        psi, eigs = eig.orbitals, eig.eigenvalues
        eig_total += int(eig.iterations)
        mu = find_chemical_potential(eigs, n_electrons, opts.kt)
        occs = fermi_occupations(eigs, mu, opts.kt)
        parts = harris_foulkes_energy(
            grid, rho_in, vh, exc, vxc, float(np.sum(occs * eigs)), e_ewald,
            -opts.kt * smearing_entropy(eigs, mu, opts.kt),
        )
        # Σ_n f_n |ψ_n|², μ being known, accumulated band by band: no
        # per-band array; un-normalized, the loop's one clip +
        # renormalize does it
        rho_out = basis.densities(psi, np.zeros(grid.shape, dtype=float), occs)
        return rho_out, parts["total"], mu, {}

    fixed = scf_fixed_point(density_map, config, grid, rho0, opts, "pw", ins=ins)
    return SCFResult(
        **fixed._asdict(),
        band_energy=parts["band"],
        double_count=parts["double_count"],
        hartree=parts["hartree"],
        xc=parts["xc"],
        ewald=e_ewald,
        entropy_term=parts["entropy_term"],
        eigenvalues=eigs,
        occupations=occs,
        orbitals=psi,
        basis=basis,
        grid=grid,
        eig_iterations=eig_total,
    )
