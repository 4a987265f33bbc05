"""Density mixing for the self-consistent field iteration.

One scheme, :class:`PulayMixer` (``mix(rho_in, rho_out) -> rho_next``):
Pulay/DIIS extrapolation over a history of residuals, whose first step —
and its fallback when the model is lost — is the linear damping step
ρ_in + α(ρ_out − ρ_in).  Its secant model of the SCF Jacobian can outlive
one solve (:meth:`PulayMixer.begin_step`).

It preserves the total electron number exactly (the residual integrates to
zero up to solver error, and we renormalize defensively).
"""

from __future__ import annotations

from collections import Counter

import numpy as np


class DensityError(ValueError):
    """A density whose integral is not a finite positive number."""


class PulayMixer:
    """Pulay (DIIS) mixing over a sliding history window, in difference form.

    With ``R_i = ρ_out,i − ρ_in,i`` and the secant pairs
    ``Δρ_j = ρ_in,j+1 − ρ_in,j``, ``ΔR_j = R_j+1 − R_j`` of the window, find
    γ minimizing ``|R_k − Σ γ_j ΔR_j|²`` and return

        ρ_next = ρ_in,k + α R_k − Σ γ_j (Δρ_j + α ΔR_j).

    This is the multisecant (Anderson type-II) form of constrained DIIS —
    the same iterate as ``Σ c_i (ρ_in,i + α R_i)`` with ``Σ c_i = 1``
    minimizing ``|Σ c_i R_i|²`` (``c_0 = γ_0``, ``c_i = γ_i − γ_i−1``,
    ``c_k = 1 − γ_k−1``); ``history`` iterates span ``history − 1`` pairs.

    Unlike the iterates, the pairs do not depend on the offset of the
    fixed-point map: for ``g(ρ) = Aρ + b`` they satisfy ``ΔR = (A − 1) Δρ``
    whatever ``b`` is.  :meth:`begin_step` therefore keeps them across a
    change of the map (the next MD step) as *carried* pairs and forgets
    only the iterates, which belong to the old map.  Carried pairs are a
    guess about a neighbouring problem, so ``mix`` drops them — back to
    what a fresh mixer does — as soon as they stop describing the solve at
    hand (:attr:`CARRIED_RANGE`, :attr:`CARRIED_RISE`); every drop is
    counted by reason in :attr:`dropped`.
    """

    #: Carried pairs are secant information about steps of size ``|ΔR_j|``,
    #: taken at the end of a solve and so not far above the eigensolver's
    #: noise.  A first residual more than this many times the largest of
    #: them asks the pairs to extrapolate that noise (measured: H₄ chain,
    #: ratio ~10³, 13 → 19 passes), so they are dropped
    #: (``"out_of_range"``); on the ASPC-predicted LiAl drift the ratio is
    #: 1–2.
    CARRIED_RANGE = 10.0
    #: A pass mixed with carried pairs may raise ``|R|`` by at most this
    #: factor (``"residual_rose"``).  Doubling is what a fresh mixer's own
    #: first, undamped linear step does on metallic LiAl; the milder
    #: non-monotonicity DIIS always shows keeps the pairs.
    CARRIED_RISE = 2.0

    def __init__(self, alpha: float = 0.4, history: int = 6) -> None:
        if history < 2:
            raise ValueError("history must be >= 2")
        self.alpha = alpha
        self.history = history
        #: the window's (Δρ, ΔR) pairs as they were formed, oldest first:
        #: rows ``[:pairs]`` of two ``(history − 1, N)`` matrices (allocated
        #: with the first pair), the first ``carried_pairs`` of them kept
        #: from earlier solves
        self._d_rho: np.ndarray | None = None
        self._d_res: np.ndarray | None = None
        self._npairs = 0
        self._ncarried = 0
        #: ρ_in (copied into a buffer of the mixer's own) and R of this
        #: solve's last pass; ``_resid`` is None until there has been one
        self._input: np.ndarray | None = None
        self._resid: np.ndarray | None = None
        #: reason -> how often secant pairs were thrown away for it
        self.dropped: Counter[str] = Counter()

    @property
    def pairs(self) -> int:
        """Secant pairs in the window, carried and this solve's own."""
        return self._npairs

    @property
    def carried_pairs(self) -> int:
        """Secant pairs from earlier solves still in the window."""
        return self._ncarried

    def reset(self, reason: str = "reset") -> None:
        """Forget everything: the next ``mix`` is a plain linear step.
        Counted under ``reason`` when there were pairs to forget."""
        if self.pairs:
            self.dropped[reason] += 1
        self._d_rho = self._d_res = self._input = self._resid = None
        self._npairs = self._ncarried = 0

    def begin_step(self) -> None:
        """Start the solve of a nearby map: keep the secant pairs, forget
        the iterates."""
        self._ncarried = self._npairs
        self._resid = None

    def _discard(self, count: int) -> None:
        """Drop the ``count`` oldest pairs; the others move up, a row at a
        time (rows do not overlap, so nothing is staged in a copy)."""
        self._npairs -= count
        self._ncarried = max(self._ncarried - count, 0)
        for rows in (self._d_rho, self._d_res):
            assert rows is not None
            for i in range(self._npairs):
                rows[i] = rows[i + count]

    def _carried_misfit(self, resid: np.ndarray) -> str | None:
        """Why the carried pairs do not describe this solve, if they don't."""
        assert self._d_res is not None
        if self._d_res.shape[1] != resid.size:
            return "grid_shape"
        norm = np.linalg.norm(resid)
        if self._resid is None:  # first pass: nothing mixed with them yet
            learned = max(
                np.linalg.norm(d_r) for d_r in self._d_res[: self._ncarried]
            )
            if norm > self.CARRIED_RANGE * learned:
                return "out_of_range"
        elif norm > self.CARRIED_RISE * np.linalg.norm(self._resid):
            return "residual_rose"
        return None

    def mix(self, rho_in: np.ndarray, rho_out: np.ndarray) -> np.ndarray:
        resid = rho_out - rho_in
        if self._ncarried:
            misfit = self._carried_misfit(resid)
            if misfit is not None:
                self.dropped[misfit] += 1
                self._discard(self._ncarried)
        if self._input is None or self._input.size != resid.size:
            self._input = np.empty(resid.size)
        if self._resid is not None:
            # this pass and the one before it make the window's newest
            # pair; a full window loses its oldest (carried ones first)
            if self._d_res is None or self._d_res.shape[1] != resid.size:
                self._d_rho = np.empty((self.history - 1, resid.size))
                self._d_res = np.empty((self.history - 1, resid.size))
            assert self._d_rho is not None
            if self._npairs == self.history - 1:
                self._discard(1)
            np.subtract(rho_in.ravel(), self._input,
                        out=self._d_rho[self._npairs])
            np.subtract(resid.ravel(), self._resid.ravel(),
                        out=self._d_res[self._npairs])
            self._npairs += 1
        np.copyto(self._input, rho_in.ravel())
        self._resid = resid
        rho_next = rho_in + self.alpha * resid
        if not self._npairs:
            return rho_next
        assert self._d_rho is not None and self._d_res is not None

        # Normal equations of min_γ |R_k − Σ γ_j ΔR_j|².
        d_res = self._d_res[: self._npairs]
        gram = d_res @ d_res.T
        if not (
            np.isfinite(gram).all()
            and np.linalg.cond(gram) < 1.0 / np.finfo(float).eps
        ):
            # (near-)dependent or non-finite ΔR: γ would have no correct
            # digit.  Drop the model and take the linear step.
            self.reset("ill_conditioned")
            return rho_next
        gamma = np.linalg.solve(gram, d_res @ resid.ravel())
        # ρ_next −= γ_j (Δρ_j + α ΔR_j), through one scratch row
        term = np.empty(resid.size)
        for g, d_rho, d_r in zip(gamma, self._d_rho, d_res):
            np.multiply(d_r, self.alpha, out=term)
            np.add(d_rho, term, out=term)
            term *= g
            rho_next -= term.reshape(rho_next.shape)
        return rho_next


def renormalize(rho: np.ndarray, n_electrons: float, dv: float) -> np.ndarray:
    """Scale a density so it integrates exactly to ``n_electrons``."""
    total = float(np.sum(rho) * dv)
    if not (np.isfinite(total) and total > 0):
        raise DensityError(
            f"density integrates to {total!r}; need a finite positive number"
        )
    return rho * (n_electrons / total)
