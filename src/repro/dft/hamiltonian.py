"""The Kohn–Sham Hamiltonian: stacked (all-band, all-domain BLAS3)
application and a dense matrix form for the direct reference eigensolver.

    H = -½∇² + V_loc + V_H + V_xc [+ v_bc]  + v_nl

The local parts are collapsed into one real-space effective potential
``v_eff(r)``; the nonlocal part is the packed projector form of Sec. 3.4.
:class:`BatchedHamiltonian` holds a stack of same-shape Hamiltonians and
owns the one row-blocked ``H·ψ`` loop and the one preconditioner formula;
:class:`Hamiltonian` is a single operator whose ``apply``/``precondition``
are the stack-of-one case of those.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.dft.basis import PlaneWaveBasis, _result
from repro.dft.pseudopotential import NonlocalProjectors


def _times_real(fields: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
    """``out = fields · v`` for a complex array and a real one (``out`` may
    be ``fields``), one real part at a time: the mixed-type complex
    multiply would stage ``v`` through a freshly allocated 128 KiB cast
    buffer on every call."""
    np.multiply(fields.real, v, out=out.real)
    np.multiply(fields.imag, v, out=out.imag)


class Hamiltonian:
    """Fixed-potential KS Hamiltonian over a plane-wave basis."""

    def __init__(
        self,
        basis: PlaneWaveBasis,
        v_eff: np.ndarray,
        vnl: NonlocalProjectors | None = None,
    ) -> None:
        if v_eff.shape != basis.grid.shape:
            raise ValueError(
                f"v_eff shape {v_eff.shape} != grid shape {basis.grid.shape}"
            )
        self.basis = basis
        self.v_eff = np.asarray(v_eff, dtype=float)
        self.vnl = vnl
        b: np.ndarray | None = None
        d: np.ndarray | None = None
        if vnl is not None and vnl.nproj > 0:
            b, d = vnl.b[None], vnl.d[None]
        #: this operator as a stack of one (views of ``v_eff`` and the
        #: projectors, no copies) — what ``apply``/``precondition`` and
        #: :func:`~repro.dft.eigensolver.solve_all_band` run on
        self.stack = BatchedHamiltonian(basis, self.v_eff[None], b, d)
        self.kinetic = self.stack.kinetic  # (npw,)

    # -- application ----------------------------------------------------------

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """H Ψ for a block of orbitals ``(npw, nband)`` (or a single vector):
        :meth:`BatchedHamiltonian.apply` on a stack of one."""
        single = psi.ndim == 1
        block = psi[:, None] if single else psi
        out = self.stack.apply(block[None])[0]
        return out[:, 0] if single else out

    def expectation(self, psi: np.ndarray) -> np.ndarray:
        """Per-band Rayleigh quotients ⟨ψ_n|H|ψ_n⟩ / ⟨ψ_n|ψ_n⟩."""
        hpsi = self.apply(psi)
        num = np.real(np.einsum("gn,gn->n", psi.conj(), hpsi))
        den = np.real(np.einsum("gn,gn->n", psi.conj(), psi))
        return num / den

    # -- dense form -----------------------------------------------------------

    def dense(self) -> np.ndarray:
        """The full npw×npw Hermitian matrix (reference solver; small bases)."""
        basis = self.basis
        grid = basis.grid
        npw = basis.npw
        # Local part: V(G_i - G_j) from the FFT of v_eff, indexed by the
        # wrapped Miller-index differences.
        vg = grid.fft(self.v_eff.astype(complex))
        shape = np.array(grid.shape)
        diff = basis.miller[:, None, :] - basis.miller[None, :, :]  # (npw,npw,3)
        diff = np.mod(diff, shape[None, None, :])
        flat = (
            diff[..., 0] * (shape[1] * shape[2])
            + diff[..., 1] * shape[2]
            + diff[..., 2]
        )
        h = vg.ravel()[flat]
        h[np.arange(npw), np.arange(npw)] += self.kinetic
        if self.vnl is not None and self.vnl.nproj:
            h = h + self.vnl.dense()
        return h

    # -- preconditioning -------------------------------------------------------

    def precondition(self, resid: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """Teter–Payne–Allan preconditioner applied band-wise to residuals
        (:meth:`BatchedHamiltonian.precondition` on a stack of one)."""
        single = resid.ndim == 1
        if single:
            resid, psi = resid[:, None], psi[:, None]
        out = self.stack.precondition(resid[None], psi[None])[0]
        return out[:, 0] if single else out


class BatchedHamiltonian:
    """A stack of same-shape KS Hamiltonians applied as stacked kernels.

    Holds ``n_domains`` fixed-potential Hamiltonians that share the *same*
    plane-wave basis (one object per shape class, checked when an LDC
    stack is built) and the same projector count, so their hot operations
    fuse into single ``(n_domains, …)`` array calls: stacked FFT
    transforms, one batched GEMM for the nonlocal projections, one batched
    GEMM per subspace product.  This lifts the paper's Sec. 3.4
    BLAS2→BLAS3 transformation one level up the LDC hierarchy — from
    bands-within-a-domain to domains-within-a-shape-class.

    Every kernel acts on the stack's slices independently — the transforms
    handle one band row at a time and batched GEMMs dispatch per slice —
    so a domain's result does not depend on what else is stacked with it:
    a stack of one and a stack of ``n`` give the same bits per domain.
    """

    def __init__(
        self,
        basis: PlaneWaveBasis,
        v_eff: np.ndarray,
        b: np.ndarray | None,
        d: np.ndarray | None,
    ) -> None:
        nd = int(v_eff.shape[0])
        if v_eff.shape[1:] != basis.grid.shape:
            raise ValueError(
                f"v_eff stack shape {v_eff.shape[1:]} != grid shape "
                f"{basis.grid.shape}"
            )
        if (b is None) != (d is None):
            raise ValueError("projector stacks b and d must be given together")
        if b is not None and d is not None and (
            b.shape[0] != nd
            or b.shape[1] != basis.npw
            or d.shape != b.shape[:1] + b.shape[2:]
        ):
            raise ValueError(
                f"projector stacks b {b.shape} / d {d.shape} do not match "
                f"{nd} domains over {basis.npw} plane waves"
            )
        self.basis = basis
        self.n_domains = nd
        #: (nd, *grid.shape) stacked effective potentials
        self.v_eff = np.asarray(v_eff)
        #: (nd, npw, nproj) stacked projectors / (nd, nproj) couplings
        self.b = None if b is None else np.asarray(b)
        self.d = None if d is None else np.asarray(d)
        self.nproj = 0 if self.b is None else int(self.b.shape[2])
        self.kinetic = 0.5 * basis.g2  # (npw,)
        #: conj(b), formed once per stack instead of once per apply
        self._b_conj = None if b is None else np.conj(b)

    def apply(
        self,
        psi: np.ndarray,
        domains: list[int] | None = None,
        out: np.ndarray | None = None,
        scratch: np.ndarray | None = None,
        widths: Sequence[int] | None = None,
    ) -> np.ndarray:
        """H Ψ for a stack of orbital blocks ``(len(domains), npw, nband)``.

        The local term walks the domain×band rows of the stack in blocks of
        ``basis.block_rows``: to grid, times ``v_eff``, back into ``out``
        — so a block's full-grid field is consumed while it is still
        cache-resident (a block may straddle two domains; each row is
        multiplied by its own domain's potential, and the block's rows go
        through the basis' pooled row blocks).  Every transform writes
        through ``out=``, and the kinetic and nonlocal terms are formed in
        ``scratch`` and added: with ``out`` and ``scratch`` given
        (complex, shaped like ``psi``, any strides — the lockstep
        eigensolver passes column ranges of its workspace, for ``psi``
        too) an apply allocates nothing of coefficient-block or grid size.

        ``domains`` selects a subset of the stack's Hamiltonians (stack
        indices, strictly increasing) — the lockstep eigensolver uses it to
        keep applying only the not-yet-converged domains as the others
        retire from the iteration.

        ``widths[slot]``, when given, says that slot's columns from there
        on are zero (a block narrower than the stack's widest): they come
        out zero, and the nonlocal GEMMs run on the slot's own columns
        only — a GEMM's rounding may depend on its column count, and a
        domain's result must not depend on what it is stacked with.
        """
        basis = self.basis
        nd, npw, nband = psi.shape
        members = range(self.n_domains) if domains is None else domains
        nrows = nd * nband
        out = _result(out, psi.shape)
        if scratch is None:
            scratch = np.empty(psi.shape, dtype=complex)
        # local term, straight into ``out``
        step = basis.block_rows
        for a in range(0, nrows, step):
            stop = min(a + step, nrows)
            product = basis.work_block(stop - a)
            # (stack slot, its columns, their rows in this block)
            pieces = []
            for dom in range(a // nband, (stop - 1) // nband + 1):
                lo = max(a, dom * nband)
                hi = min(stop, (dom + 1) * nband)
                pieces.append((
                    dom,
                    slice(lo - dom * nband, hi - dom * nband),
                    slice(lo - a, hi - a),
                ))
            # The block as the public stacked transforms take it, one stack
            # slot of (stop - a) "bands": the columns of ψ and of ``out``
            # themselves when it lies in one slot, else (it straddles two)
            # its rows gathered into, and scattered from, pooled blocks.
            if len(pieces) == 1:
                dom, cols, _ = pieces[0]
                coeffs = psi[dom:dom + 1, :, cols]
                local = out[dom:dom + 1, :, cols]
            else:
                rows, back = basis.row_blocks(stop - a)
                for dom, cols, block in pieces:
                    rows[block] = psi[dom, :, cols].T
                coeffs, local = rows.T[None], back.T[None]
            basis.to_grid_batch(coeffs, out=product[None])
            for dom, cols, block in pieces:
                _times_real(product[block], self.v_eff[members[dom]],
                            product[block])
            basis.from_grid_batch(product[None], out=local, overwrite_fields=True)
            if len(pieces) > 1:
                for dom, cols, block in pieces:
                    out[dom, :, cols] = local[0, :, block]
        # + kinetic term (the same sum as kinetic + local, commuted)
        _times_real(psi, self.kinetic[None, :, None], scratch)
        out += scratch
        if self.nproj:
            assert self.b is not None and self.d is not None
            assert self._b_conj is not None
            for slot, dom in enumerate(members):
                cols = slice(None if widths is None else widths[slot])
                overlaps = self._b_conj[dom].T @ psi[slot, :, cols]
                overlaps *= self.d[dom][:, None]
                term = np.matmul(
                    self.b[dom], overlaps, out=scratch[slot, :, cols]
                )
                out[slot, :, cols] += term
        return out

    def precondition(
        self,
        resid: np.ndarray,
        psi: np.ndarray,
        out: np.ndarray | None = None,
        scratch: np.ndarray | None = None,
    ) -> np.ndarray:
        """Teter–Payne–Allan preconditioner applied band-wise to a
        ``(n_domains, npw, nband)`` residual stack.

        The TPA kernel damps high-kinetic-energy components relative to each
        band's own kinetic energy — the standard plane-wave CG preconditioner.

        ``out`` (may be ``resid`` itself) receives the result; ``scratch``
        is a complex ``(n_domains, npw, 2·nband)`` work array of any
        strides — conj(ψ) first, then, in its real and imaginary parts,
        the four real terms of the kernel.  Without them both are
        allocated.
        """
        nd, npw, nband = resid.shape
        if scratch is None:
            scratch = np.empty((nd, npw, 2 * nband), dtype=complex)
        psi_conj = np.conjugate(psi, out=scratch[:, :, :nband])
        ekin = np.einsum(
            "dgn,g,dgn->dn", psi_conj, self.kinetic, psi
        ).real / np.maximum(
            np.einsum("dgn,dgn->dn", psi_conj, psi).real, 1e-30
        )
        ekin = np.maximum(ekin, 1e-6)
        low, high = scratch[:, :, :nband], scratch[:, :, nband:]
        x, t, x3, num = low.real, low.imag, high.real, high.imag
        # num = 27 + 18x + 12x² + 8x³, den = num + 16x⁴, term by term in
        # that order
        np.divide(self.kinetic[None, :, None], ekin[:, None, :], out=x)
        np.multiply(x, x, out=t)
        np.multiply(t, x, out=x3)
        np.multiply(x, 18.0, out=num)
        num += 27.0
        t *= 12.0
        num += t
        np.multiply(x3, 8.0, out=t)
        num += t
        x3 *= 16.0
        x3 *= x
        x3 += num
        num /= x3
        out = _result(out, resid.shape)
        _times_real(resid, num, out)
        return out
