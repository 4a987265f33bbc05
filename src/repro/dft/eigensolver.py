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
    returned block (:func:`_band_densities`: one transform of ``orbitals``,
    a row block at a time through the basis' pooled work block), so density
    assembly needs no complex ``(nband, *grid)`` array anywhere.
    """

    eigenvalues: np.ndarray
    orbitals: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool


def _band_densities(
    basis: PlaneWaveBasis, orbitals: np.ndarray, out: np.ndarray
) -> None:
    """``out[n] = |ψ_n(r)|²`` of an ``(npw, nband)`` block — how every
    solver fills ``band_densities``.  The fields exist a row block at a
    time, in the basis work block; ``ndarray ** 2`` is ``np.power``, so
    the values equal ``np.abs(basis.to_grid(orbitals)) ** 2``."""
    step = basis.block_rows
    for a in range(0, orbitals.shape[1], step):
        cols, dens = orbitals[:, a:a + step], out[a:a + step]
        fields = basis.to_grid(cols, out=basis.work_block(cols.shape[1]))
        np.absolute(fields, out=dens)
        np.power(dens, 2, out=dens)


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
        _band_densities(ham.basis, orbitals, band_densities)
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

def lobpcg_work_shape(n_domains: int, npw: int, nband: int) -> tuple[int, ...]:
    """Shape of the complex workspace the all-band solver iterates in:
    three stacks of ``(n_domains, 3·nband, npw)`` — the subspace
    ``[X|W|P]``, its image ``[HX|HW|HP]``, and the iterate stack the
    Rayleigh–Ritz results land in, one band per row so that every block
    and every run of adjacent blocks is one contiguous piece of memory.
    Nine blocks of ``(n_domains, npw, nband)``; a caller that lends one
    (``work=``) can reuse it for every solve that fits."""
    return (3, n_domains, 3 * nband, npw)


def solve_all_band(
    ham: Hamiltonian,
    psi0: np.ndarray,
    max_iter: int = 60,
    tol: float = 1e-8,
    band_densities: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> EigenResult:
    """Locally optimal block preconditioned CG over all bands of one
    Hamiltonian: the lockstep solver on ``ham.stack``, a stack of one
    (``band_densities`` is the one domain's ``(nband, *grid.shape)``
    buffer; ``work`` as for :func:`solve_all_band_batched` with
    ``n_domains = 1``)."""
    (result,) = _lockstep_lobpcg(
        ham.stack, [np.asarray(psi0, dtype=complex)], max_iter, tol,
        None if band_densities is None else [band_densities], work,
    )
    return result


def _column_norms(block: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(block, axis=0)`` of a complex ``(npw, n)`` block —
    the same ``sqrt(Σ (conj(x)·x).real)`` — with the product formed in
    ``scratch`` (complex, ≥ n columns) instead of two fresh arrays."""
    prod = np.conjugate(block, out=scratch[:, : block.shape[1]])
    np.multiply(prod, block, out=prod)
    return np.sqrt(np.add.reduce(prod.real, axis=0))


def _safe_orthonormalize(
    block: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> int:
    """QR-orthonormalize ``block`` (overwritten) into the leading columns
    of ``out``, dropping numerically null columns; returns how many
    columns that left.  ``scratch`` is for :func:`_column_norms`."""
    if block.shape[1] == 0:
        return 0
    norms = _column_norms(block, scratch)
    keep = norms > 1e-12
    if not keep.all():
        block, norms = block[:, keep], norms[keep]
        if block.shape[1] == 0:
            return 0
    np.divide(block, norms[None, :], out=block)
    q, r = np.linalg.qr(block)
    good = np.abs(np.diag(r)) > 1e-10
    if not good.all():
        q = q[:, good]
    out[:, : q.shape[1]] = q
    return int(q.shape[1])


def solve_all_band_batched(
    bham: BatchedHamiltonian,
    psi0: Sequence[np.ndarray] | np.ndarray,
    max_iter: int = 60,
    tol: float = 1e-8,
    band_densities: Sequence[np.ndarray] | None = None,
    work: np.ndarray | None = None,
) -> list[EigenResult]:
    """Lockstep LOBPCG over a stack of same-shape domain KS problems.

    ``bham`` holds the stack (see
    :class:`~repro.dft.hamiltonian.BatchedHamiltonian`); ``psi0`` holds
    the ``n_domains`` starting blocks, ``(npw, nband)`` each — a stacked
    array or the domains' own arrays in a list, they are only read.
    Returns one :class:`EigenResult` per domain, in stack order.

    ``band_densities`` holds one real ``(nband, *grid.shape)`` array per
    domain, filled with its ``|ψ_n(r)|²`` when the domain retires — a
    solve allocates nothing of grid size.  ``work`` is the complex
    :func:`lobpcg_work_shape` workspace the iteration runs in: lent by the
    caller (the LDC seam pools one, ``run_scf`` holds one for a whole run)
    an iteration allocates nothing of the stack's block size; else it is
    allocated per solve.
    """
    psi0 = [np.asarray(block, dtype=complex) for block in psi0]
    shapes = {block.shape for block in psi0}
    if (
        len(psi0) != bham.n_domains
        or len(shapes) != 1
        or len(psi0[0].shape) != 2
        or psi0[0].shape[0] != bham.basis.npw
    ):
        raise ValueError(
            f"psi0 blocks {sorted(shapes)} × {len(psi0)} do not match "
            f"{bham.n_domains} domains over {bham.basis.npw} plane waves"
        )
    return _lockstep_lobpcg(bham, psi0, max_iter, tol, band_densities, work)


def _lockstep_lobpcg(
    bham: BatchedHamiltonian,
    psi0: Sequence[np.ndarray],
    max_iter: int,
    tol: float,
    band_densities: Sequence[np.ndarray] | None,
    work: np.ndarray | None,
) -> list[EigenResult]:
    """The one all-band LOBPCG body, behind both public entry points.

    Subspace per iteration and domain: current block X, preconditioned
    residuals W, and the previous search directions P (classic LOBPCG
    three-term basis); the Rayleigh–Ritz solves and orthonormalizations are
    the Cholesky-based scheme of Sec. 3.3.

    All unconverged domains advance together so the heavy kernels run as
    single batched array calls: the Rayleigh–Ritz subspace products and the
    ``(n, nband, nband)`` ``eigh`` stack, the residual/TPA-preconditioner
    updates, and every Hamiltonian application (stacked FFTs + the
    nonlocal GEMMs; the W and P blocks of an iteration share one apply).
    The small variable-shape steps — column-dropping orthonormalization,
    the mixed-subspace ``t`` diagonalisation, the re-apply decision — run
    per domain.  Zero columns pass through H as zeros, every batched
    kernel acts on stack slices independently and every GEMM runs on a
    slot's own columns, so a domain's iterates do not depend on the stack
    it is solved in, and each domain retires from the stack at its own
    convergence iteration.

    Every block lives in ``work`` (:func:`lobpcg_work_shape`) as a column
    range of one of three stacks, and every product, rotation, projection
    and ``H·ψ`` writes through ``out=``: ``sub = [X|W|P]`` and ``hsub``,
    its image under H, per slot the contiguous leading columns (P sits
    right after the W columns that survived, so the mixed subspace is one
    GEMM operand and ``H·[W|P]`` one apply over the stack's widest
    ``[W|P]``, narrower slots zero-filled); ``iterate`` = X | the raw new
    P | HX, what one iteration hands the next.  A rotation reads one stack
    and writes another, whatever a step no longer needs is the next one's
    scratch (the comments name it), and when a domain retires the slots
    behind it move down one.
    """
    basis = bham.basis
    nd = bham.n_domains
    nb = int(psi0[0].shape[1])
    results: list[EigenResult | None] = [None] * nd
    shape = lobpcg_work_shape(nd, basis.npw, nb)
    if work is None:
        work = np.empty(shape, dtype=complex)
    elif work.shape != shape or work.dtype != complex:
        raise ValueError(
            f"work must be a complex array of shape {shape}, got "
            f"{work.dtype} {work.shape}"
        )
    # the solver's (slot, plane wave, column) view of the band-major stacks
    sub, hsub, iterate = work.transpose(0, 1, 3, 2)
    x, p_raw, hx = (iterate[:, :, k * nb:(k + 1) * nb] for k in range(3))
    # the [HW|HP] columns: two blocks of scratch until H·[W|P] lands there
    spare = hsub[:, :, nb:]

    for i in range(nd):
        cholesky_orthonormalize(psi0[i], out=x[i], scratch=sub[i, :, :nb])
    active = list(range(nd))
    bham.apply(x, out=hx, scratch=sub[:, :, :nb])
    # rides along with the active stack, compacted whenever a domain retires
    last_resid: list[float] = [float("inf")] * nd
    it = 0

    def rayleigh_ritz(na: int) -> np.ndarray:
        """Rotate X, HX of the first ``na`` slots to their Ritz vectors,
        into the leading block of ``sub``/``hsub``; returns the Ritz
        values."""
        x_conj = np.conjugate(x[:na], out=spare[:na, :, :nb])
        h = np.matmul(x_conj.transpose(0, 2, 1), hx[:na])
        h = 0.5 * (h + h.conj().transpose(0, 2, 1))
        eps, u = np.linalg.eigh(h)
        np.matmul(x[:na], u, out=sub[:na, :, :nb])
        np.matmul(hx[:na], u, out=hsub[:na, :, :nb])
        return eps

    def retire(slot: int, resid: float) -> None:
        """File ``slot``'s Ritz pairs, and the band densities of its Ritz
        vectors, as its domain's result."""
        xr = sub[slot, :, :nb].copy()
        if band_densities is not None:
            _band_densities(basis, xr, band_densities[active[slot]])
        results[active[slot]] = EigenResult(
            eps[slot].copy(), xr, it, resid, resid < tol
        )

    for it in range(1, max_iter + 1):
        na = len(active)
        # Rayleigh–Ritz within each current block (batched).
        eps = rayleigh_ritz(na)
        x_rot, hx_rot = sub[:na, :, :nb], hsub[:na, :, :nb]
        w = sub[:na, :, nb:2 * nb]  # the residual, then W, in place
        np.multiply(x_rot, eps[:, None, :], out=w)
        np.subtract(hx_rot, w, out=w)
        # Convergence is judged per domain, on its own slice only, so the
        # decision (and the returned residual) is independent of the stack.
        keep: list[int] = []
        for slot in range(na):
            resid = float(np.max(_column_norms(w[slot], spare[slot])))
            last_resid[slot] = resid
            if resid < tol:
                retire(slot, resid)
            else:
                keep.append(slot)
        if len(keep) != na:
            if not keep:
                return results  # type: ignore[return-value]
            for dst, src in enumerate(keep):
                if dst != src:
                    work[:, dst] = work[:, src]
            active = [active[s] for s in keep]
            last_resid = [last_resid[s] for s in keep]
            na = len(keep)
            x_rot, w = x_rot[:na], w[:na]

        bham.precondition(w, x_rot, out=w, scratch=spare[:na])
        # Project W against X (batched) and orthonormalize per domain.
        x_conj = np.conjugate(x_rot, out=spare[:na, :, :nb])
        proj = np.matmul(x_rot, np.matmul(x_conj.transpose(0, 2, 1), w),
                         out=spare[:na, :, nb:])
        np.subtract(w, proj, out=w)
        widths: list[int] = []  # of each slot's [X|W|P]
        for slot in range(na):
            basis_w = sub[slot, :, nb:]
            nw = _safe_orthonormalize(w[slot], basis_w, spare[slot, :, nb:])
            if it > 1:  # there is a previous search direction
                xi, wi, pi = x_rot[slot], basis_w[:, :nw], p_raw[slot]
                # (the old X is spent: its block holds the projected P)
                p_proj, term = x[slot], spare[slot, :, nb:]
                np.matmul(xi, x_conj[slot].T @ pi, out=term)
                np.subtract(pi, term, out=p_proj)
                wi_conj = np.conjugate(wi, out=x_conj[slot, :, :nw])
                np.matmul(wi, wi_conj.T @ pi, out=term)
                np.subtract(p_proj, term, out=p_proj)
                sel = _column_norms(p_proj, term) > 1e-10
                if np.any(sel):
                    nw += _safe_orthonormalize(
                        p_proj if sel.all() else p_proj[:, sel],
                        basis_w[:, nw:], term,
                    )
            widths.append(nb + nw)
        # One batched apply covers every W and surviving P block: each
        # column is transformed independently and zero columns pass through
        # H as zeros, so the slices match the serial narrow applies exactly.
        # It is sized to this iteration's widest [W|P] (not a fixed
        # 2·nband) — on the first sweeps P is empty and the stacked FFT
        # halves in width.
        widest = max(widths)
        for slot, width in enumerate(widths):
            sub[slot, :, width:widest] = 0.0
        bham.apply(
            sub[:na, :, nb:widest], domains=active,
            out=hsub[:na, :, nb:widest], scratch=iterate[:na, :, : widest - nb],
            widths=[width - nb for width in widths],
        )
        reapply: list[int] = []
        for slot, width in enumerate(widths):
            s, hs = sub[slot, :, :width], hsub[slot, :, :width]
            # (the slot's iterate blocks are all spent by now)
            s_conj = np.conjugate(s, out=iterate[slot, :, :width])
            t = s_conj.T @ hs
            t = 0.5 * (t + t.conj().T)
            evals, evecs = np.linalg.eigh(t)
            c = evecs[:, :nb]
            np.matmul(hs, c, out=hx[slot])
            # hs is spent: the new X, before orthonormalization, takes
            # its leading block
            x_new = np.matmul(s, c, out=hs[:, :nb])
            # New implicit search direction: the part of x_new outside old X.
            np.matmul(s[:, nb:], c[nb:, :], out=p_raw[slot])
            cholesky_orthonormalize(x_new, out=x[slot], scratch=s[:, :nb])
            # Re-apply H only if orthonormalization changed X materially.
            if not np.allclose(x[slot], x_new, atol=1e-12):
                reapply.append(slot)
        if reapply:
            # through the leading slots of the (now spent) subspace stacks
            n = len(reapply)
            for j, slot in enumerate(reapply):
                sub[j, :, :nb] = x[slot]
            bham.apply(
                sub[:n, :, :nb], domains=[active[s] for s in reapply],
                out=hsub[:n, :, :nb], scratch=sub[:n, :, nb:2 * nb],
            )
            for j, slot in enumerate(reapply):
                hx[slot] = hsub[j, :, :nb]
    # Final clean Rayleigh–Ritz for the domains that ran out of iterations.
    eps = rayleigh_ritz(len(active))
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
    if band_densities is not None:
        _band_densities(ham.basis, x, band_densities)
    return EigenResult(eps_all.copy(), x, total_iter, resid_norm,
                       resid_norm < tol)


def _project_out(vec: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Remove the components of ``vec`` along the columns of ``block``."""
    if block.shape[1] == 0:
        return vec
    return vec - block @ (block.conj().T @ vec)
