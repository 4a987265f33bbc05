"""The dense, band-by-band and BLAS2 references: what the engine's one
path is checked and benchmarked against, and nothing the engine runs.

* the full-grid reciprocal space of a :class:`RealSpaceGrid` — its complex
  transforms in the density convention (:func:`grid_fft`,
  :func:`grid_ifft`) and its ``(*shape, 3)`` G and ``|G|²`` tables
  (:func:`grid_g_vectors`, :func:`grid_g2`), against which the engine's
  half-grid layers and per-axis tables are tested;
* the dense operators — the npw×npw Hamiltonian
  (:func:`hamiltonian_dense`, indexed by :func:`basis_miller`) and its
  nonlocal part (:func:`projectors_dense`) — and the solver that
  diagonalizes them, :func:`solve_direct`;
* the "before" arms of the paper's Sec. 3.4 BLAS2 → BLAS3 transformation:
  the band-by-band CG (:func:`solve_band_by_band`) and the per-band
  projector loop of Eq. 4 (:func:`apply_projectors_blas2`);
* the structure factors on the full grid (:func:`structure_factors`), the
  oracle of the half-grid local potential, and the band-by-band density
  (:func:`density_from_orbitals`), the oracle of
  :meth:`PlaneWaveBasis.densities`.

The two ablation benches (``benchmarks/bench_ablation_gslf.py``,
``benchmarks/bench_sec34_blas3.py``) time these against the engine's
lockstep LOBPCG and packed Eq. 5 product.
"""

from __future__ import annotations

import numpy as np

from repro.dft.basis import PlaneWaveBasis
from repro.dft.eigensolver import EigenResult
from repro.dft.grid import RealSpaceGrid
from repro.dft.hamiltonian import Hamiltonian
from repro.dft.pseudopotential import NonlocalProjectors, _phase_sum, species_atoms
from repro.systems.configuration import Configuration
from repro.util.linalg import cholesky_orthonormalize

# -- the full grid ---------------------------------------------------------------


def grid_fft(grid: RealSpaceGrid, field: np.ndarray) -> np.ndarray:
    """Real field → Fourier coefficients in the density convention."""
    return np.fft.fftn(field) / grid.npoints


def grid_ifft(grid: RealSpaceGrid, coeffs: np.ndarray) -> np.ndarray:
    """Fourier coefficients (density convention) → real-space field."""
    return np.fft.ifftn(coeffs * grid.npoints)


def grid_g_vectors(grid: RealSpaceGrid) -> np.ndarray:
    """``(*shape, 3)`` array of G vectors."""
    gx, gy, gz = grid.g_components()
    out = np.empty(grid.shape + (3,), dtype=float)
    out[..., 0] = gx[:, None, None]
    out[..., 1] = gy[None, :, None]
    out[..., 2] = gz[None, None, :]
    return out


def grid_g2(grid: RealSpaceGrid) -> np.ndarray:
    """``|G|²`` on the full FFT grid."""
    gx, gy, gz = grid.g_components()
    return (
        gx[:, None, None] ** 2 + gy[None, :, None] ** 2 + gz[None, None, :] ** 2
    )


def basis_miller(basis: PlaneWaveBasis) -> np.ndarray:
    """Integer Miller indices per basis function, shape ``(npw, 3)``."""
    ix, iy, iz = np.unravel_index(basis.indices, basis.grid.shape)
    mx, my, mz = basis.grid.miller()
    return np.stack([mx[ix], my[iy], mz[iz]], axis=-1)


def structure_factors(grid: RealSpaceGrid, config: Configuration) -> dict[str, np.ndarray]:
    """Per-species structure factors S_s(G) = Σ_{I∈s} e^{-iG·R_I} on the
    full grid.

    ``e^{-iG·R}`` factorizes over the axes of the orthorhombic grid, so each
    atom costs ``n0 + n1 + n2`` exponentials instead of ``n0·n1·n2``, and
    nothing of size ``ngrid × natoms`` is ever built.
    """
    return {
        symbol: _phase_sum(*(
            np.exp(-1j * np.outer(config.positions[idx, axis], g))
            for axis, g in enumerate(grid.g_components())
        ))
        for symbol, idx in species_atoms(config)
    }


def density_from_orbitals(
    basis: PlaneWaveBasis, psi: np.ndarray, occupations: np.ndarray
) -> np.ndarray:
    """Electron density ``ρ(r) = Σ_n f_n |ψ_n(r)|²`` on the real grid, band
    by band (a dense transform, ``re² + im²``).

    Normalization: ``∫ ρ dr = Σ_n f_n`` when the orbitals are orthonormal.
    """
    occupations = np.asarray(occupations, dtype=float)
    if psi.shape[1] != occupations.size:
        raise ValueError("one occupation per band required")
    rho = np.zeros(basis.grid.shape, dtype=float)
    for f, field in zip(occupations, basis.to_grid(psi)):
        rho += f * (field.real**2 + field.imag**2)
    return rho


# -- dense operators and the direct solver ---------------------------------------


def projectors_dense(vnl: NonlocalProjectors) -> np.ndarray:
    """The dense npw×npw nonlocal matrix ``B̃ D B̃^H``."""
    return (vnl.b * vnl.d[None, :]) @ vnl.b_conj.T


def hamiltonian_dense(ham: Hamiltonian) -> np.ndarray:
    """The full npw×npw Hermitian matrix of ``ham`` (small bases)."""
    basis = ham.basis
    grid = basis.grid
    npw = basis.npw
    # Local part: V(G_i - G_j) from the FFT of v_eff, indexed by the
    # wrapped Miller-index differences.
    vg = grid_fft(grid, ham.v_eff.astype(complex))
    shape = np.array(grid.shape)
    miller = basis_miller(basis)
    diff = miller[:, None, :] - miller[None, :, :]  # (npw,npw,3)
    diff = np.mod(diff, shape[None, None, :])
    flat = (
        diff[..., 0] * (shape[1] * shape[2])
        + diff[..., 1] * shape[2]
        + diff[..., 2]
    )
    h = vg.ravel()[flat]
    h[np.arange(npw), np.arange(npw)] += ham.kinetic
    if ham.vnl is not None and ham.vnl.nproj:
        h = h + projectors_dense(ham.vnl)
    return h


def solve_direct(ham: Hamiltonian, nband: int) -> EigenResult:
    """Dense diagonalization of the full plane-wave Hamiltonian: exact, and
    viable for the small bases the tests use."""
    if nband > ham.basis.npw:
        raise ValueError(
            f"requested {nband} bands from a {ham.basis.npw}-plane-wave basis"
        )
    evals, evecs = np.linalg.eigh(hamiltonian_dense(ham))
    return EigenResult(
        eigenvalues=evals[:nband].copy(),
        orbitals=np.ascontiguousarray(evecs[:, :nband]),
        iterations=1,
        residual_norm=0.0,
        converged=True,
    )


# -- the BLAS2 arms of Sec. 3.4 ----------------------------------------------------


def solve_band_by_band(
    ham: Hamiltonian,
    psi0: np.ndarray,
    max_iter: int = 80,
    tol: float = 1e-8,
    cg_per_band: int = 5,
    outer_sweeps: int = 12,
) -> EigenResult:
    """Sequential per-band preconditioned CG (the original BLAS2 scheme of
    the paper's Sec. 3.4).

    Bands are optimized in ascending order, each constrained orthogonal to
    the bands below it, with ``cg_per_band`` CG steps per sweep and
    ``outer_sweeps`` sweeps with Rayleigh–Ritz rotations between them.
    """
    x = cholesky_orthonormalize(np.asarray(psi0, dtype=complex))
    nband = x.shape[1]
    resid_norm = np.inf
    total_iter = 0
    for sweep in range(outer_sweeps):
        for n in range(nband):
            psi = x[:, n].copy()
            lower = x[:, :n]
            d_prev = None
            g_dot_prev = None
            for _ in range(cg_per_band):
                total_iter += 1
                psi = _project_out(psi, lower)
                psi /= np.linalg.norm(psi)
                hpsi = ham.apply(psi)
                eps = float(np.real(np.vdot(psi, hpsi)))
                r = hpsi - eps * psi
                r = _project_out(r, lower)
                r -= psi * np.vdot(psi, r)
                if np.linalg.norm(r) < tol:
                    break
                pr = ham.precondition(r, psi)
                pr = _project_out(pr, lower)
                pr -= psi * np.vdot(psi, pr)
                g_dot = float(np.real(np.vdot(pr, r)))
                if d_prev is None or g_dot_prev in (None, 0.0):
                    d = -pr
                else:
                    beta = g_dot / g_dot_prev
                    d = -pr + beta * d_prev
                d = _project_out(d, lower)
                d -= psi * np.vdot(psi, d)
                dnorm = np.linalg.norm(d)
                if dnorm < 1e-14:
                    break
                d /= dnorm
                # Exact 2×2 Rayleigh–Ritz on span{psi, d}.
                hd = ham.apply(d)
                a = eps
                b = float(np.real(np.vdot(d, hd)))
                cmix = complex(np.vdot(psi, hd))
                hmat = np.array([[a, cmix], [np.conj(cmix), b]])
                w2, v2 = np.linalg.eigh(hmat)
                coeff = v2[:, 0]
                psi = coeff[0] * psi + coeff[1] * d
                psi /= np.linalg.norm(psi)
                d_prev = d
                g_dot_prev = g_dot
            x[:, n] = psi
        # Subspace rotation after each sweep.
        x = cholesky_orthonormalize(x)
        hx = ham.apply(x)
        hsub = x.conj().T @ hx
        hsub = 0.5 * (hsub + hsub.conj().T)
        eps_all, u = np.linalg.eigh(hsub)
        x = x @ u
        hx = hx @ u
        r = hx - x * eps_all[None, :]
        resid_norm = float(np.max(np.linalg.norm(r, axis=0)))
        if resid_norm < tol:
            break
    return EigenResult(eps_all.copy(), x, total_iter, resid_norm,
                       resid_norm < tol)


def _project_out(vec: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Remove the components of ``vec`` along the columns of ``block``."""
    if block.shape[1] == 0:
        return vec
    return vec - block @ (block.conj().T @ vec)


def apply_projectors_blas2(
    projectors: np.ndarray, coeffs: np.ndarray, psi: np.ndarray
) -> np.ndarray:
    """Apply ``v_nl`` band by band: Eq. 4, the original BLAS2 formulation
    of :meth:`NonlocalProjectors.apply` (Eq. 5).

    Parameters
    ----------
    projectors:
        ``(npw, nproj)`` complex projector matrix ``B``.
    coeffs:
        ``(nproj, nproj)`` coefficient matrix ``D`` (block-diagonal per atom
        in the physical problem; any Hermitian matrix is accepted).
    psi:
        ``(npw, nband)`` wave-function matrix ``Ψ``.

    Returns
    -------
    ``(npw, nband)`` array ``v_nl Ψ`` computed with per-band matvecs
    (``B†`` is formed once, so the loop times the matvecs alone).
    """
    npw, nband = psi.shape
    out = np.zeros_like(psi)
    adjoint = projectors.conj().T
    for n in range(nband):  # deliberate per-band loop: the BLAS2 path
        overlaps = adjoint @ psi[:, n]
        out[:, n] = projectors @ (coeffs @ overlaps)
    return out
