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

import numpy as np

from repro.dft.hamiltonian import BatchedHamiltonian, Hamiltonian
from repro.observe import Observer
from repro.util.linalg import cholesky_orthonormalize


@dataclass
class EigenResult:
    """Solver output: eigenvalues, orbitals, and convergence diagnostics.

    ``fields`` (present when a solver was called with ``want_fields=True``)
    holds the real-space orbitals ``ψ_n(r)`` of the returned block, shape
    ``(nband, *grid.shape)`` — reused from the solver's last ``H·ψ``
    (a cheap subspace rotation of already-computed fields) where possible,
    so downstream density assembly skips a redundant batched FFT.
    """

    eigenvalues: np.ndarray
    orbitals: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool
    fields: np.ndarray | None = None


def solve_direct(
    ham: Hamiltonian, nband: int, want_fields: bool = False
) -> EigenResult:
    """Dense-diagonalization reference solver."""
    if nband > ham.basis.npw:
        raise ValueError(
            f"requested {nband} bands from a {ham.basis.npw}-plane-wave basis"
        )
    h = ham.dense()
    evals, evecs = np.linalg.eigh(h)
    orbitals = np.ascontiguousarray(evecs[:, :nband])
    return EigenResult(
        eigenvalues=evals[:nband].copy(),
        orbitals=orbitals,
        iterations=1,
        residual_norm=0.0,
        converged=True,
        fields=ham.basis.to_grid(orbitals) if want_fields else None,
    )


def record_solve(ins: Observer, solver: str, npw: int, result: EigenResult) -> None:
    """Telemetry for one eigensolve, whichever solver ran it.

    The solvers never see the handle: their callers (``dft.scf._solve``
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
    want_fields: bool = False,
) -> EigenResult:
    """Locally optimal block preconditioned CG over all bands of one
    Hamiltonian: the lockstep solver on ``ham.stack``, a stack of one."""
    psi0 = np.asarray(psi0, dtype=complex)[None]
    (result,) = _lockstep_lobpcg(ham.stack, psi0, max_iter, tol, want_fields)
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
    want_fields: bool = False,
) -> list[EigenResult]:
    """Lockstep LOBPCG over a stack of same-shape domain KS problems.

    ``bham`` holds the stack (see
    :class:`~repro.dft.hamiltonian.BatchedHamiltonian`); ``psi0`` is the
    ``(n_domains, npw, nband)`` stack of starting blocks.  Returns one
    :class:`EigenResult` per domain, in stack order.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape[:2] != (bham.n_domains, bham.basis.npw):
        raise ValueError(
            f"psi0 stack {psi0.shape} does not match {bham.n_domains} "
            f"domains over {bham.basis.npw} plane waves"
        )
    return _lockstep_lobpcg(bham, psi0, max_iter, tol, want_fields)


def _lockstep_lobpcg(
    bham: BatchedHamiltonian,
    psi0: np.ndarray,
    max_iter: int,
    tol: float,
    want_fields: bool,
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
    """
    basis = bham.basis
    nd = bham.n_domains
    nband = int(psi0.shape[2])
    results: list[EigenResult | None] = [None] * nd

    x = np.stack([cholesky_orthonormalize(psi0[i]) for i in range(nd)])
    active = list(range(nd))
    cap: list | None = [] if want_fields else None
    hx = bham.apply(x, fields_out=cap)
    # Per-slot lists ride along with the active stack and are compacted
    # together with it whenever a domain retires.
    fx: list = list(cap.pop()) if cap else [None] * nd
    p: list = [None] * nd
    last_resid: list[float] = [float("inf")] * nd
    it = 0

    def retire(slot: int, resid: float) -> None:
        """File ``slot``'s Ritz pairs as its domain's result.  Its fields
        are a subspace rotation of the fields captured with the last apply
        of X — ``to_grid(x @ u)[k] = Σ_m u[m, k] · fx[m]`` — or one
        transform when X changed without a re-apply."""
        xr = x_rot[slot].copy()
        fields = None
        if want_fields:
            fields = (
                np.tensordot(u[slot], fx[slot], axes=(0, 0))
                if fx[slot] is not None
                else basis.to_grid(xr)
            )
        results[active[slot]] = EigenResult(
            eps[slot].copy(), xr, it, resid, resid < tol, fields=fields
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
            cap = [] if want_fields else None
            h_re = bham.apply(
                x[reapply],
                fields_out=cap,
                domains=[active[s] for s in reapply],
            )
            fre = cap.pop() if cap else None
            for j, slot in enumerate(reapply):
                hx_next[slot] = h_re[j]
                fx[slot] = fre[j] if fre is not None else None
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
    want_fields: bool = False,
) -> EigenResult:
    """Sequential per-band preconditioned CG (the original BLAS2 scheme).

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
        cap: list[np.ndarray] | None = [] if want_fields else None
        hx = ham.apply(x, fields_out=cap)
        fx = cap.pop() if cap else None
        hsub = x.conj().T @ hx
        hsub = 0.5 * (hsub + hsub.conj().T)
        eps_all, u = np.linalg.eigh(hsub)
        x = x @ u
        hx = hx @ u
        r = hx - x * eps_all[None, :]
        resid_norm = float(np.max(np.linalg.norm(r, axis=0)))
        if resid_norm < tol:
            fields = np.tensordot(u, fx, axes=(0, 0)) if want_fields else None
            return EigenResult(eps_all.copy(), x, total_iter, resid_norm, True,
                               fields=fields)
    fields = np.tensordot(u, fx, axes=(0, 0)) if want_fields else None
    return EigenResult(eps_all.copy(), x, total_iter, resid_norm,
                       resid_norm < tol, fields=fields)


def _project_out(vec: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Remove the components of ``vec`` along the columns of ``block``."""
    if block.shape[1] == 0:
        return vec
    return vec - block @ (block.conj().T @ vec)
