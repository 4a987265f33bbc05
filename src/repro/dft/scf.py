"""The SCF fixed-point loop, and the whole-cell solve.

:func:`scf_fixed_point` is the one place an SCF map is iterated: it admits
the warm-start density, mixes, tests convergence, evaluates the final
consistent pass and reports.  :func:`repro.core.ldc.run_ldc` hands it the
global–local *density map* ``ρ_in → ρ_out`` and packages what comes back.

:func:`run_scf` is the "conventional plane-wave DFT code" of Sec. 5.5 used
to verify LDC-DFT: one plane-wave basis over the whole cell, all orbitals
explicit, O(N³) through orthonormalization and dense subspace operations —
exactly the bottleneck LDC-DFT removes.  It is LDC's one-domain,
zero-buffer ``mode="dc"`` case (:func:`SCFOptions` builds that layout),
run through :func:`~repro.core.ldc.run_ldc`; an independently written
global map in ``tests/oracles/`` agrees with it to 1e-10 pass by pass,
which is what makes it a reference.  Every pass reports the total free
energy through one expression, :func:`harris_foulkes_energy`:

    E = Σ_n f_n ε_n - ∫ρ(V_H + v_xc) dr + E_H[ρ] + E_xc[ρ] + E_Ewald - kT·S
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

import numpy as np

from repro.dft.grid import RealSpaceGrid
from repro.dft.hartree import hartree_energy
from repro.dft.mixing import PulayMixer, renormalize
from repro.observe import OFF, Observer
from repro.systems.configuration import Configuration

if TYPE_CHECKING:
    from repro.core.ldc import LDCOptions, LDCResult

#: One evaluation of an SCF map: ``(ρ_in, iteration — None for the final
#: consistent pass)`` → (un-normalized ρ_out, Harris–Foulkes energy at ρ_in,
#: μ, pass-specific telemetry attributes such as ``boundary_error``).
DensityMap = Callable[
    [np.ndarray, int | None], tuple[np.ndarray, float, float, dict[str, float]]
]


#: Seed of the random starting orbitals of a cold solve: LDC domain ``i``
#: starts at ``ORBITAL_SEED + 131·i`` (the whole cell, domain 0, at the
#: seed itself)
ORBITAL_SEED = 7

#: The whole-cell layout of :class:`~repro.core.ldc.LDCOptions`: one domain,
#: no buffer, no boundary potential — global Kohn–Sham DFT
WHOLE_CELL: dict[str, Any] = dict(domains=(1, 1, 1), buffer=0.0, mode="dc")


def SCFOptions(**fields: Any) -> LDCOptions:
    """:class:`~repro.core.ldc.LDCOptions` on the whole-cell layout, at the
    global solve's defaults: ``ecut`` 6.0, ``tol`` 1e-6, ``max_iter`` 60,
    ``eig_tol`` 1e-7 and ``eig_max_iter`` 40.  ``fields`` override these
    or set any other option; naming a layout field (``domains``,
    ``buffer``, ``mode``) is a ``TypeError``."""
    from repro.core.ldc import LDCOptions

    options: dict[str, Any] = dict(
        ecut=6.0, tol=1e-6, max_iter=60, eig_tol=1e-7, eig_max_iter=40
    )
    options.update(fields)
    return LDCOptions(**options, **WHOLE_CELL)


def run_scf(
    config: Configuration,
    options: LDCOptions | None = None,
    grid: RealSpaceGrid | None = None,
    instrumentation: Observer | None = None,
) -> LDCResult:
    """Solve Kohn–Sham DFT over the whole cell to self-consistency:
    :func:`~repro.core.ldc.run_ldc` on :data:`WHOLE_CELL`.

    ``options`` default to :func:`SCFOptions`; options of another layout
    are moved onto the whole cell.  ``grid`` and ``instrumentation`` are
    ``run_ldc``'s.  The result's one domain state
    holds the orbitals, eigenvalues and occupations;
    :func:`~repro.dft.forces.forces_from_scf` reads them.
    """
    from repro.core.ldc import run_ldc

    opts = SCFOptions() if options is None else replace(options, **WHOLE_CELL)
    return run_ldc(config, opts, grid=grid, instrumentation=instrumentation)


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


class PotentialTerms(NamedTuple):
    """The integrals of one pass's global fields against its input density
    ρ: what the energy expression needs of V_H, ε_xc and v_xc, so a pass
    can drop the fields before its domain solves."""

    #: E_H = ½⟨ρ, V_H⟩
    hartree: float
    #: ⟨ρ, v_xc⟩
    rho_vxc: float
    #: E_xc = ⟨ρ, ε_xc⟩
    xc: float


def potential_terms(
    grid: RealSpaceGrid,
    rho: np.ndarray,
    vh: np.ndarray,
    exc: np.ndarray,
    vxc: np.ndarray,
) -> PotentialTerms:
    """Reduce a pass's ``vh`` and ``exc``/``vxc`` (its one
    :func:`~repro.dft.xc.lda_xc` evaluation) at its input density ``rho``
    to the scalars of :func:`harris_foulkes_energy`: every integral a dot
    product with ρ, no product field."""
    return PotentialTerms(
        hartree_energy(grid, rho, vh), grid.inner(rho, vxc),
        grid.inner(rho, exc),
    )


def harris_foulkes_energy(
    terms: PotentialTerms,
    band_energy: float,
    e_ewald: float,
    entropy_term: float,
) -> dict[str, float]:
    """The total free energy of one SCF pass, everything at its *input*
    density — the one the potentials behind ``terms`` (:func:`potential_terms`),
    and so the Hamiltonian behind ``band_energy``, were built from.  That
    makes it the Harris–Foulkes functional, second order in the pass's
    residual (the double counting integrated over the *output* density
    instead is first order: 1.9e-4 against 1.6e-8 Ha at ``tol=1e-3`` on
    one H₂O, DESIGN.md §20).  LDC's ``v_bc`` leaves nothing to remove
    from ``band_energy``: it acts outside each core, where the partition
    weight is 0.  Returns the total and every part.
    """
    e_h = terms.hartree
    double_count = 2.0 * e_h + terms.rho_vxc
    total = band_energy - double_count + e_h + terms.xc + e_ewald + entropy_term
    return {
        "total": total,
        "band": band_energy,
        "double_count": double_count,
        "hartree": e_h,
        "xc": terms.xc,
        "ewald": e_ewald,
        "entropy_term": entropy_term,
    }


class FixedPoint(NamedTuple):
    """What :func:`scf_fixed_point` returns, named as
    :class:`~repro.core.ldc.LDCResult` names it: the final consistent pass
    and the loop's per-pass scalars.

    The final pass is a pair of densities.  ``input_density`` is the one
    its Hamiltonian was built from, and *the density to carry*: what a
    trajectory's window stores and the next solve's starting density is
    predicted from.  The returned orbitals are eigenvectors of H[``input_density``],
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
    options: LDCOptions,
    mixer: PulayMixer | None = None,
    continues: bool = False,
    ins: Observer = OFF,
) -> FixedPoint:
    """Iterate ``ρ_out = density_map(ρ_in)`` to self-consistency — the one
    SCF loop, on the map :func:`~repro.core.ldc.run_ldc` builds (a test
    hands it an oracle's or a toy's).

    ``rho0`` is the warm-start density: ``None`` or a stale shape starts
    cold from :func:`initial_density`, a non-finite one is a
    :class:`~repro.dft.mixing.DensityError`.  The loop starts from a
    normalized copy and drops ``rho0`` at once, so a caller that keeps no
    reference of its own (the LDC workspace's prediction) frees it before
    the first pass.  Each pass clips and
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

    ``ins`` is the observability handle (the caller's, already resolved;
    the loop does not read the environment): the ``scf.*{engine=ldc}``
    instruments and an ``ldc.iteration`` span per pass with the map's
    attributes merged in.  A non-finite potential is named where the map
    builds its Hamiltonian (:class:`~repro.dft.hamiltonian.NonFiniteFieldError`).
    """
    n_electrons = config.n_electrons()
    if rho0 is not None and rho0.shape != grid.shape:
        rho0 = None  # stale-shaped warm start (grid changed) → cold start
    rho = initial_density(grid, config) if rho0 is None else rho0
    rho = renormalize(rho, n_electrons, grid.dv)
    del rho0  # admitted: ``rho`` is a copy
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
        ins.counter("scf.iterations", engine="ldc").inc()
        ins.series("scf.residual", engine="ldc").append(resid)
        ins.series("scf.energy", engine="ldc").append(energy)
        ins.series("scf.mu", engine="ldc").append(mu)
        ins.tracer.record_complete(
            "ldc.iteration", ins.tracer.now() - t_iter,
            category="ldc", iteration=it, residual=resid, energy=energy,
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
        del rho_out  # mixed in: not alive through the next map call
        if mixer is not None and it == 1:
            ins.series("ldc.mixer_carried_pairs").append(
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
    ins.series("scf.final_residual", engine="ldc").append(final_resid)
    return FixedPoint(
        rho_final, rho, energy, mu, converged, it, history, residuals,
        final_resid,
    )
