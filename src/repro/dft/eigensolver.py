"""Iterative eigensolvers for the domain Kohn–Sham problems.

Three interchangeable solvers, all returning eigenvalues ascending with
column-orthonormal orbitals:

* :func:`solve_direct` — dense diagonalization of the full plane-wave
  Hamiltonian.  Exact reference; viable for the small domain bases this
  package uses in tests.
* :func:`solve_band_by_band` — the *original* (pre-optimization) scheme the
  paper describes in Sec. 3.4: bands optimized one at a time by
  preconditioned conjugate gradients (matrix-vector / BLAS2 structure).
* :func:`solve_all_band_batched` — the paper's production scheme: all bands
  advanced together (locally optimal block preconditioned CG), so every
  inner operation is a matrix-matrix product (BLAS3 structure), over a
  whole stack of same-shape domain problems in lockstep.
  :func:`solve_all_band` is its stack-of-one form for a single
  :class:`~repro.dft.hamiltonian.Hamiltonian`.

Both iterative solvers use the Teter–Payne–Allan preconditioner of
:class:`~repro.dft.hamiltonian.BatchedHamiltonian`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.dft.basis import PlaneWaveBasis
from repro.dft.hamiltonian import BatchedHamiltonian, Hamiltonian
from repro.observe import Observer
from repro.util.linalg import cholesky_orthonormalize


@dataclass
class EigenResult:
    """Solver output: eigenvalues, orbitals, and convergence diagnostics.

    Every solver also takes ``band_densities=``, a real ``(nband,
    *grid.shape)`` buffer it fills with the per-band ``|ψ_n(r)|²`` of the
    returned block — from the fields its last ``H·ψ`` already transformed
    (a subspace rotation, a row block at a time) where it can, so density
    assembly needs neither a second batched FFT nor a complex ``(nband,
    *grid)`` array of its own.
    """

    eigenvalues: np.ndarray
    orbitals: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool


def _abs2(fields: np.ndarray, out: np.ndarray) -> None:
    """``out = |fields|²`` — the one |ψ|² formula, allocation-free (``ndarray
    ** 2`` is ``np.power``, so the values equal ``np.abs(fields) ** 2``)."""
    np.absolute(fields, out=out)
    np.power(out, 2, out=out)


def _rotated_abs2(
    basis: PlaneWaveBasis, fields: np.ndarray, u: np.ndarray, out: np.ndarray
) -> None:
    """``out[k] = |Σ_m u[m, k] · fields[m]|²``: the band densities of
    ``x @ u`` from the fields of ``x`` (the transform is linear).  The
    rotated fields exist a row block at a time, in the basis work block."""
    flat = fields.reshape(fields.shape[0], -1)
    step = basis.block_rows
    for a in range(0, u.shape[1], step):
        cols = u[:, a:a + step]
        work = basis.work_block(cols.shape[1])
        np.matmul(cols.T, flat, out=work.reshape(cols.shape[1], -1))
        _abs2(work, out[a:a + step])


def solve_direct(
    ham: Hamiltonian, nband: int, band_densities: np.ndarray | None = None
) -> EigenResult:
    """Dense-diagonalization reference solver."""
    if nband > ham.basis.npw:
        raise ValueError(
            f"requested {nband} bands from a {ham.basis.npw}-plane-wave basis"
        )
    h = ham.dense()
    evals, evecs = np.linalg.eigh(h)
    orbitals = np.ascontiguousarray(evecs[:, :nband])
    if band_densities is not None:
        _abs2(ham.basis.to_grid(orbitals), band_densities)
    return EigenResult(
        eigenvalues=evals[:nband].copy(),
        orbitals=orbitals,
        iterations=1,
        residual_norm=0.0,
        converged=True,
    )


def record_solve(ins: Observer, solver: str, npw: int, result: EigenResult) -> None:
    """Telemetry for one eigensolve, whichever solver ran it.

    The solvers never see the handle: their callers (``run_scf``'s map
    and the LDC domain-solve seam, once per domain of a stack) record each
    result after the solve, so nothing is emitted from inside the
    BLAS2/BLAS3 hot paths being measured.
    """
    ins.counter("eigensolver.solves", solver=solver).inc()
    ins.counter("eigensolver.iterations", solver=solver).inc(result.iterations)
    ins.histogram("eigensolver.iterations_per_solve", solver=solver).observe(
        result.iterations
    )
    ins.histogram("eigensolver.residual", solver=solver).observe(
        result.residual_norm
    )
    if not result.converged:
        ins.counter("eigensolver.unconverged", solver=solver).inc()
    ins.log.debug(
        "eigensolve done",
        extra={
            "solver": solver,
            "npw": npw,
            "nband": result.orbitals.shape[1],
            "iterations": result.iterations,
            "residual": result.residual_norm,
        },
    )


# ---------------------------------------------------------------------------
# All-band solver (BLAS3 path): one lockstep LOBPCG over a stack of domains
# ---------------------------------------------------------------------------

def solve_all_band(
    ham: Hamiltonian,
    psi0: np.ndarray,
    max_iter: int = 60,
    tol: float = 1e-8,
    band_densities: np.ndarray | None = None,
) -> EigenResult:
    """Locally optimal block preconditioned CG over all bands of one
    Hamiltonian: the lockstep solver on ``ham.stack``, a stack of one
    (``band_densities`` is the one domain's ``(nband, *grid.shape)``
    buffer; the field-capture block is allocated per solve)."""
    psi0 = np.asarray(psi0, dtype=complex)[None]
    (result,) = _lockstep_lobpcg(
        ham.stack, psi0, max_iter, tol,
        None if band_densities is None else [band_densities], None,
    )
    return result


def _safe_orthonormalize(block: np.ndarray) -> np.ndarray:
    """QR-orthonormalize a block, dropping numerically null columns."""
    if block.shape[1] == 0:
        return block
    norms = np.linalg.norm(block, axis=0)
    keep = norms > 1e-12
    block = block[:, keep] / norms[keep][None, :]
    if block.shape[1] == 0:
        return block
    q, r = np.linalg.qr(block)
    diag = np.abs(np.diag(r))
    good = diag > 1e-10
    return q[:, good]


def solve_all_band_batched(
    bham: BatchedHamiltonian,
    psi0,
    max_iter: int = 60,
    tol: float = 1e-8,
    band_densities: Sequence[np.ndarray] | None = None,
    capture: np.ndarray | None = None,
) -> list[EigenResult]:
    """Lockstep LOBPCG over a stack of same-shape domain KS problems.

    ``bham`` holds the stack (see
    :class:`~repro.dft.hamiltonian.BatchedHamiltonian`); ``psi0`` is the
    ``(n_domains, npw, nband)`` stack of starting blocks.  Returns one
    :class:`EigenResult` per domain, in stack order.

    ``band_densities`` holds one real ``(nband, *grid.shape)`` array per
    domain, filled with its ``|ψ_n(r)|²`` when the domain retires;
    ``capture`` is the complex ``(n_domains, nband, *grid.shape)`` scratch
    for the fields of the last ``H·X`` (pooled by the caller, a warm solve
    allocates nothing of grid size; else allocated per solve).
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape[:2] != (bham.n_domains, bham.basis.npw):
        raise ValueError(
            f"psi0 stack {psi0.shape} does not match {bham.n_domains} "
            f"domains over {bham.basis.npw} plane waves"
        )
    return _lockstep_lobpcg(bham, psi0, max_iter, tol, band_densities, capture)


def _lockstep_lobpcg(
    bham: BatchedHamiltonian,
    psi0: np.ndarray,
    max_iter: int,
    tol: float,
    band_densities: Sequence[np.ndarray] | None,
    capture: np.ndarray | None,
) -> list[EigenResult]:
    """The one all-band LOBPCG body, behind both public entry points.

    Subspace per iteration and domain: current block X, preconditioned
    residuals W, and the previous search directions P (classic LOBPCG
    three-term basis); the Rayleigh–Ritz solves and orthonormalizations are
    the Cholesky-based scheme of Sec. 3.3.

    All unconverged domains advance together so the heavy kernels run as
    single batched array calls: the Rayleigh–Ritz subspace products and the
    ``(n, nband, nband)`` ``eigh`` stack, the residual/TPA-preconditioner
    updates, and every Hamiltonian application (stacked FFTs + one batched
    nonlocal GEMM; the W and P blocks of an iteration share one padded
    apply).  The small variable-shape steps — column-dropping
    orthonormalization, the mixed-subspace ``t`` diagonalisation, the
    re-apply decision — run per domain.  Zero-padded columns pass through H
    as zeros and every batched kernel acts on stack slices independently,
    so a domain's iterates do not depend on the stack it is solved in, and
    each domain retires from the stack at its own convergence iteration.

    With ``band_densities`` every apply of X transforms straight into the
    leading slots of ``capture``.  It covers every slot whose fields are
    current (all at the start; then the re-applied ones — the rest changed
    X without a transform), so it may overwrite the previous capture, and
    while some slot has no captured fields the last slot is free.
    """
    basis = bham.basis
    nd = bham.n_domains
    nband = int(psi0.shape[2])
    results: list[EigenResult | None] = [None] * nd

    x = np.stack([cholesky_orthonormalize(psi0[i]) for i in range(nd)])
    active = list(range(nd))
    if band_densities is not None and capture is None:
        capture = np.empty((nd, nband) + basis.grid.shape, dtype=complex)
    hx = bham.apply(x, capture=capture)
    # Per-slot lists ride along with the active stack and are compacted
    # together with it whenever a domain retires.
    fx: list = [None] * nd if capture is None else list(capture[:nd])
    p: list = [None] * nd
    last_resid: list[float] = [float("inf")] * nd
    it = 0

    def retire(slot: int, resid: float) -> None:
        """File ``slot``'s Ritz pairs as its domain's result.  Its band
        densities come from the fields captured with the last apply of X,
        rotated like X — or from one transform (into the free last slot of
        ``capture``) when X changed without a re-apply."""
        xr = x_rot[slot].copy()
        if band_densities is not None and capture is not None:
            out = band_densities[active[slot]]
            if fx[slot] is not None:
                _rotated_abs2(basis, fx[slot], u[slot], out)
            else:
                _abs2(basis.to_grid(xr, out=capture[-1]), out)
        results[active[slot]] = EigenResult(
            eps[slot].copy(), xr, it, resid, resid < tol
        )

    for it in range(1, max_iter + 1):
        # Rayleigh–Ritz within each current block (batched).
        hsub = np.matmul(x.conj().transpose(0, 2, 1), hx)
        hsub = 0.5 * (hsub + hsub.conj().transpose(0, 2, 1))
        eps, u = np.linalg.eigh(hsub)
        x_rot = np.matmul(x, u)
        hx_rot = np.matmul(hx, u)
        r = hx_rot - x_rot * eps[:, None, :]
        # Convergence is judged per domain, on its own slice only, so the
        # decision (and the returned residual) is independent of the stack.
        keep: list[int] = []
        for slot in range(len(active)):
            resid = float(np.max(np.linalg.norm(r[slot], axis=0)))
            last_resid[slot] = resid
            if resid < tol:
                retire(slot, resid)
            else:
                keep.append(slot)
        if len(keep) != len(active):
            if not keep:
                return results  # type: ignore[return-value]
            active = [active[s] for s in keep]
            fx = [fx[s] for s in keep]
            p = [p[s] for s in keep]
            last_resid = [last_resid[s] for s in keep]
            x_rot = x_rot[keep]
            hx_rot = hx_rot[keep]
            r = r[keep]
        x, hx = x_rot, hx_rot

        w = bham.precondition(r, x)
        # Project W against X (batched) and orthonormalize per domain.
        w = w - np.matmul(x, np.matmul(x.conj().transpose(0, 2, 1), w))
        w_blocks: list = []
        p_blocks: list = []
        for slot in range(len(active)):
            wi = _safe_orthonormalize(w[slot])
            w_blocks.append(wi)
            pk = None
            pi = p[slot]
            if pi is not None:
                xi = x[slot]
                p_proj = pi - xi @ (xi.conj().T @ pi) - wi @ (wi.conj().T @ pi)
                norms = np.linalg.norm(p_proj, axis=0)
                sel = norms > 1e-10
                if np.any(sel):
                    pk = _safe_orthonormalize(p_proj[:, sel])
            p_blocks.append(pk)
        # One padded batched apply covers every W and surviving P block:
        # zero columns pass through H as zeros and each real column is
        # transformed independently, so the slices match the serial narrow
        # applies exactly.  The pad is sized to this iteration's widest
        # blocks (not a fixed 2·nband) — on the first sweeps P is empty and
        # the stacked FFT halves in width.
        wmax = max(wi.shape[1] for wi in w_blocks)
        pmax = max((pk.shape[1] for pk in p_blocks if pk is not None),
                   default=0)
        pad = np.zeros((len(active), basis.npw, wmax + pmax), dtype=complex)
        for slot, (wi, pk) in enumerate(zip(w_blocks, p_blocks)):
            pad[slot, :, : wi.shape[1]] = wi
            if pk is not None:
                pad[slot, :, wmax: wmax + pk.shape[1]] = pk
        hpad = bham.apply(pad, domains=active)
        reapply: list[int] = []
        x_next: list = []
        hx_next: list = []
        for slot in range(len(active)):
            xi = x[slot]
            hxi = hx[slot]
            wi = w_blocks[slot]
            pk = p_blocks[slot]
            blocks = [xi, wi]
            hblocks = [hxi, hpad[slot, :, : wi.shape[1]]]
            if pk is not None:
                blocks.append(pk)
                hblocks.append(hpad[slot, :, wmax: wmax + pk.shape[1]])
            s = np.hstack(blocks)
            hs = np.hstack(hblocks)
            t = s.conj().T @ hs
            t = 0.5 * (t + t.conj().T)
            evals, evecs = np.linalg.eigh(t)
            c = evecs[:, :nband]
            x_new = s @ c
            hx_new = hs @ c
            # New implicit search direction: the part of x_new outside old X.
            c_tail = c[nband:, :]
            s_tail = s[:, nband:]
            p[slot] = s_tail @ c_tail
            xi_new = cholesky_orthonormalize(x_new)
            x_next.append(xi_new)
            # Re-apply H only if orthonormalization changed X materially.
            if np.allclose(xi_new, x_new, atol=1e-12):
                hx_next.append(hx_new)
                fx[slot] = None  # fields of the new X were never computed
            else:
                reapply.append(slot)
                hx_next.append(None)
        x = np.stack(x_next)
        if reapply:
            h_re = bham.apply(
                x[reapply], capture=capture,
                domains=[active[s] for s in reapply],
            )
            for j, slot in enumerate(reapply):
                hx_next[slot] = h_re[j]
                fx[slot] = None if capture is None else capture[j]
        hx = np.stack(hx_next)
    # Final clean Rayleigh–Ritz for the domains that ran out of iterations.
    hsub = np.matmul(x.conj().transpose(0, 2, 1), hx)
    hsub = 0.5 * (hsub + hsub.conj().transpose(0, 2, 1))
    eps, u = np.linalg.eigh(hsub)
    x_rot = np.matmul(x, u)
    for slot in range(len(active)):
        retire(slot, last_resid[slot])
    return results  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Band-by-band solver (BLAS2 path)
# ---------------------------------------------------------------------------

def solve_band_by_band(
    ham: Hamiltonian,
    psi0: np.ndarray,
    max_iter: int = 80,
    tol: float = 1e-8,
    cg_per_band: int = 5,
    outer_sweeps: int = 12,
    band_densities: np.ndarray | None = None,
) -> EigenResult:
    """Sequential per-band preconditioned CG (the original BLAS2 scheme).

    Bands are optimized in ascending order, each constrained orthogonal to
    the bands below it, with ``cg_per_band`` CG steps per sweep and
    ``outer_sweeps`` sweeps with Rayleigh–Ritz rotations between them.
    """
    x = cholesky_orthonormalize(np.asarray(psi0, dtype=complex))
    nband = x.shape[1]
    capture = None
    if band_densities is not None:
        capture = np.empty((1, nband) + ham.basis.grid.shape, dtype=complex)
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
        hx = ham.stack.apply(x[None], capture=capture)[0]
        hsub = x.conj().T @ hx
        hsub = 0.5 * (hsub + hsub.conj().T)
        eps_all, u = np.linalg.eigh(hsub)
        x = x @ u
        hx = hx @ u
        r = hx - x * eps_all[None, :]
        resid_norm = float(np.max(np.linalg.norm(r, axis=0)))
        if resid_norm < tol:
            break
    if band_densities is not None and capture is not None:
        _rotated_abs2(ham.basis, capture[0], u, band_densities)
    return EigenResult(eps_all.copy(), x, total_iter, resid_norm,
                       resid_norm < tol)


def _project_out(vec: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Remove the components of ``vec`` along the columns of ``block``."""
    if block.shape[1] == 0:
        return vec
    return vec - block @ (block.conj().T @ vec)
