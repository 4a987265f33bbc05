"""The global Kohn–Sham density map, written apart from LDC.

``repro.dft.scf.run_scf`` is LDC's one-domain, zero-buffer ``mode="dc"``
case.  This is the map it replaced, kept as its reference: one plane-wave
basis over the whole cell, H[ρ_in] built from the global fields, all
bands solved on it, occupied, and Σ f|ψ|² accumulated band by band —
through the same loop, ``scf_fixed_point``, so a disagreement beyond
roundoff is a defect in one of the two maps
(``tests/test_ldc.py::test_single_domain_equals_conventional``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.ldc import LDCOptions
from repro.dft.basis import PlaneWaveBasis
from repro.dft.eigensolver import lobpcg_work_shape, solve_all_band, solve_direct
from repro.dft.ewald import ewald
from repro.dft.forces import hellmann_feynman_forces
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
) -> GlobalResult:
    """Solve global KS-DFT with the independent map; ``opts`` supplies the
    cutoff, bands, smearing, tolerances and eigensolver (its layout fields
    are not read)."""
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
    if opts.eigensolver == "all_band":
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
        if opts.eigensolver == "direct":
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
