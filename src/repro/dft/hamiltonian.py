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

import numpy as np

from repro.dft.basis import PlaneWaveBasis, _result
from repro.dft.pseudopotential import NonlocalProjectors


def _times_real(fields: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
    """``out = fields · v`` for complex fields and a real potential, one
    real part at a time: the mixed-type complex multiply would stage ``v``
    through a freshly allocated 128 KiB cast buffer on every call."""
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
        nonlocal_ = vnl is not None and vnl.nproj > 0
        #: this operator as a stack of one (views of ``v_eff`` and the
        #: projectors, no copies) — what ``apply``/``precondition`` and
        #: :func:`~repro.dft.eigensolver.solve_all_band` run on
        self.stack = BatchedHamiltonian(
            basis,
            self.v_eff[None],
            vnl.b[None] if nonlocal_ else None,
            vnl.d[None] if nonlocal_ else None,
        )
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
        if b is not None and (
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

    def apply(
        self,
        psi: np.ndarray,
        capture: np.ndarray | None = None,
        domains: list[int] | None = None,
    ) -> np.ndarray:
        """H Ψ for a stack of orbital blocks ``(len(domains), npw, nband)``.

        The local term walks the domain×band rows of the stack in blocks of
        ``basis.block_rows``: to grid, times ``v_eff``, back — so a block's
        full-grid field is consumed while it is still cache-resident (a
        block may straddle two domains; each row is multiplied by its own
        domain's potential).  Every transform writes through ``out=`` into
        pooled or caller-owned memory, so a warm apply allocates
        coefficient-side ``(npw, nband)`` arrays only; the local and
        nonlocal terms accumulate onto the kinetic one in place.

        ``capture``, when given, is a C-contiguous complex ``(≥ len(domains),
        nband, *grid.shape)`` array — the caller's, typically pooled — whose
        leading slots receive the real-space orbital fields ``ψ_n(r)`` of
        the stack, in stack order, unscaled by the potential; each block is
        transformed straight into its rows, so capturing allocates nothing.

        ``domains`` selects a subset of the stack's Hamiltonians (stack
        indices, strictly increasing) — the lockstep eigensolver uses it to
        keep applying only the not-yet-converged domains as the others
        retire from the iteration.
        """
        basis = self.basis
        if domains is not None and len(domains) == self.n_domains:
            domains = None  # a strictly-increasing subset of full size is all
        v_eff = self.v_eff if domains is None else self.v_eff[domains]
        nd, npw, nband = psi.shape
        nrows = nd * nband
        out = self.kinetic[None, :, None] * psi
        rows = psi.transpose(0, 2, 1).reshape(nrows, npw)
        local = np.empty((nrows, npw), dtype=complex)
        captured = None
        if capture is not None:
            captured = _result(capture[:nd], (nd, nband) + basis.grid.shape)
            if not captured.flags.c_contiguous:  # reshape would copy
                raise ValueError("capture must be C-contiguous")
            captured = captured.reshape((nrows,) + basis.grid.shape)
        step = basis.block_rows
        for a in range(0, nrows, step):
            stop = min(a + step, nrows)
            product = basis.work_block(stop - a)
            # the block as the public stacked transforms take it: one
            # stack slot of (stop - a) "bands"
            fields = basis.to_grid_batch(
                rows[a:stop].T[None],
                out=(product if captured is None else captured[a:stop])[None],
            )[0]
            for dom in range(a // nband, (stop - 1) // nband + 1):
                lo = max(a, dom * nband) - a
                hi = min(stop, (dom + 1) * nband) - a
                _times_real(fields[lo:hi], v_eff[dom], product[lo:hi])
            basis.from_grid_batch(
                product[None], out=local[a:stop].T[None], overwrite_fields=True
            )
        out += local.reshape(nd, nband, npw).transpose(0, 2, 1)
        if self.b is not None and self.nproj:
            b = self.b if domains is None else self.b[domains]
            d = self.d if domains is None else self.d[domains]
            overlaps = np.matmul(b.conj().transpose(0, 2, 1), psi)
            out += np.matmul(b, d[:, :, None] * overlaps)
        return out

    def precondition(self, resid: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """Teter–Payne–Allan preconditioner applied band-wise to a
        ``(n_domains, npw, nband)`` residual stack.

        The TPA kernel damps high-kinetic-energy components relative to each
        band's own kinetic energy — the standard plane-wave CG preconditioner.
        """
        ekin = np.einsum(
            "dgn,g,dgn->dn", psi.conj(), self.kinetic, psi
        ).real / np.maximum(
            np.einsum("dgn,dgn->dn", psi.conj(), psi).real, 1e-30
        )
        ekin = np.maximum(ekin, 1e-6)
        x = self.kinetic[None, :, None] / ekin[:, None, :]
        x2 = x * x
        x3 = x2 * x
        num = 27.0 + 18.0 * x + 12.0 * x2 + 8.0 * x3
        return (num / (num + 16.0 * x3 * x)) * resid
