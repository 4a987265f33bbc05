"""The global Kohn–Sham density map, written apart from LDC.

``repro.dft.scf.run_scf`` is LDC's one-domain, zero-buffer ``mode="dc"``
case.  This is the map it replaced, kept as its reference: one plane-wave
basis over the whole cell, H[ρ_in] built from the global fields, all
bands solved on it, occupied, and Σ f|ψ|² accumulated band by band —
through the same loop, ``scf_fixed_point``, so a disagreement beyond
roundoff is a defect in one of the two maps
(``tests/test_ldc.py::test_single_domain_equals_conventional``).  Its
forces are the Hellmann–Feynman sum written out term by term
(:func:`hellmann_feynman_forces`), the reference of the engine's one
assembly, ``repro.core.forces.ldc_forces``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.ldc import LDCOptions
from repro.dft.basis import PlaneWaveBasis
from repro.dft.eigensolver import lobpcg_work_shape, solve_all_band
from repro.dft.ewald import ewald
from repro.dft.forces import local_forces, projector_forces
from repro.dft.grid import RealSpaceGrid
from repro.dft.hamiltonian import Hamiltonian
from repro.dft.hartree import hartree_potential
from repro.dft.occupations import (
    fermi_occupations,
    find_chemical_potential,
    smearing_entropy,
)
from repro.dft.pseudopotential import NonlocalProjectors, local_potential
from repro.dft.scf import (
    ORBITAL_SEED,
    harris_foulkes_energy,
    potential_terms,
    scf_fixed_point,
)
from repro.dft.xc import lda_xc
from repro.systems.configuration import Configuration
from tests.oracles.reference import solve_direct


def dense_stack_solve(states, key, v_eff, opts, pool):
    """A stand-in for the LDC seam's ``repro.core.batched._solve_stack``:
    each slot of the stack solved densely, ``solve_direct`` on its own
    plain :class:`Hamiltonian` at its ``v_eff`` — the reference the
    lockstep LOBPCG is checked against on a whole SCF run."""
    return [
        solve_direct(Hamiltonian(state.basis, v_eff[j], state.vnl), state.nband)
        for j, state in enumerate(states)
    ]


def nonlocal_forces(
    basis: PlaneWaveBasis,
    config: Configuration,
    nonlocal_: NonlocalProjectors,
    psi: np.ndarray,
    occupations: np.ndarray,
) -> np.ndarray:
    """Forces from the Kleinman–Bylander projectors, every column."""
    forces = np.zeros((config.natoms, 3), dtype=float)
    if nonlocal_.nproj == 0:
        return forces
    de = projector_forces(
        basis, nonlocal_, psi, occupations, range(nonlocal_.nproj)
    )
    for col, atom in enumerate(nonlocal_.atom_indices):
        forces[atom] -= de[col]
    return forces


def hellmann_feynman_forces(
    config: Configuration,
    basis: PlaneWaveBasis,
    rho: np.ndarray,
    psi: np.ndarray,
    occupations: np.ndarray,
    nonlocal_: NonlocalProjectors | None = None,
) -> np.ndarray:
    """Total HF forces: local + nonlocal + Ewald.  Shape ``(natom, 3)``."""
    f = local_forces(basis.grid, config, rho)
    if nonlocal_ is None:
        nonlocal_ = NonlocalProjectors(basis, config)
    f += nonlocal_forces(basis, config, nonlocal_, psi, occupations)
    _, f_ewald = ewald(config.wrapped_positions(), config.zvals, config.cell)
    f += f_ewald
    return f


@dataclass
class GlobalResult:
    """The final pass of a global solve; ``energy = band_energy −
    double_count + hartree + xc + ewald + entropy_term``."""

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
    density: np.ndarray
    input_density: np.ndarray
    orbitals: np.ndarray
    basis: PlaneWaveBasis
    grid: RealSpaceGrid
    converged: bool
    iterations: int
    final_residual: float
    history: list[float] = field(default_factory=list)
    density_residuals: list[float] = field(default_factory=list)
    eig_iterations: int = 0

    def forces(self, config: Configuration) -> np.ndarray:
        """Hellmann–Feynman forces of the final pass."""
        return hellmann_feynman_forces(
            config, self.basis, self.density, self.orbitals, self.occupations,
            NonlocalProjectors(self.basis, config),
        )


def global_scf(
    config: Configuration,
    opts: LDCOptions,
    grid: RealSpaceGrid | None = None,
    rho0: np.ndarray | None = None,
    solver: str = "all_band",
) -> GlobalResult:
    """Solve global KS-DFT with the independent map; ``opts`` supplies the
    cutoff, bands, smearing and tolerances (its layout fields are not
    read), ``solver`` the eigensolver: ``"all_band"`` (the engine's
    LOBPCG) or the dense reference ``"direct"``."""
    if solver not in ("all_band", "direct"):
        raise ValueError(f"unknown eigensolver {solver!r}")
    if grid is None:
        grid = RealSpaceGrid.for_cutoff(config.cell, opts.ecut)
    basis = PlaneWaveBasis(grid, opts.ecut)
    n_electrons = config.n_electrons()
    nband = int(np.ceil(n_electrons / 2.0)) + opts.extra_bands
    nband = min(nband, basis.npw)

    v_loc = local_potential(grid, config)
    nonlocal_ = NonlocalProjectors(basis, config)
    e_ewald, _ = ewald(
        config.wrapped_positions(), config.zvals, config.cell,
        compute_forces=False,
    )
    psi = basis.random_orbitals(nband, seed=ORBITAL_SEED)
    # what the all-band solver iterates in, one buffer for every pass
    work = None
    if solver == "all_band":
        work = np.empty(lobpcg_work_shape(1, basis.npw, nband), dtype=complex)
    # what the last pass left behind (the map hands the loop scalars)
    eigs = occs = np.zeros(nband, dtype=float)
    parts: dict[str, float] = {}
    eig_total = 0

    def density_map(rho_in, iteration):
        nonlocal psi, eigs, occs, parts, eig_total
        vh = hartree_potential(grid, rho_in)
        exc, vxc = lda_xc(rho_in)
        ham = Hamiltonian(basis, v_loc + vh + vxc, nonlocal_)
        if solver == "direct":
            eig = solve_direct(ham, nband)
        else:
            eig = solve_all_band(
                ham, psi, opts.eig_max_iter, opts.eig_tol, work=work
            )
        psi, eigs = eig.orbitals, eig.eigenvalues
        eig_total += int(eig.iterations)
        mu = find_chemical_potential(eigs, n_electrons, opts.kt)
        occs = fermi_occupations(eigs, mu, opts.kt)
        parts = harris_foulkes_energy(
            potential_terms(grid, rho_in, vh, exc, vxc),
            float(np.sum(occs * eigs)), e_ewald,
            -opts.kt * smearing_entropy(eigs, mu, opts.kt),
        )
        # Σ_n f_n |ψ_n|², μ being known, accumulated band by band;
        # un-normalized, the loop's one clip + renormalize does it
        rho_out = basis.densities(psi, np.zeros(grid.shape, dtype=float), occs)
        return rho_out, parts["total"], mu, {}

    fixed = scf_fixed_point(density_map, config, grid, rho0, opts)
    return GlobalResult(
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
