"""Time-reversible ASPC extrapolation of orbitals and densities across
MD steps — the one predictor every carried state goes through.

The plain warm start reuses only the *last* converged state; the MD
literature (Kolafa's always-stable predictor-corrector, ASPC; cf. the
low-cost orbital-based linear-scaling AIMD line of work in PAPERS.md) does
better: predict step ``t+1`` from a bounded history window

    ψ_pred(t+1) = Σ_{j=1..k} B_j ψ(t+1-j),
    B_j = (-1)^{j+1} j C(2k, k-j) / C(2k-2, k-1),

whose coefficients sum to 1 (consistency) and reproduce any history that
is *linear in time* exactly for k ≥ 2 — the property behind ASPC's
time-reversibility: running the window forwards or backwards through a
linear segment predicts the same continuation, so the predictor adds no
secular bias to NVE dynamics (the energy-drift parity test pins this).

Orbitals need two extra ingredients the plain formula lacks:

* **Subspace alignment.**  Each SCF solve returns ψ in an arbitrary band
  gauge (degenerate subspaces rotate freely between steps), so combining
  raw histories mixes gauges and cancels signal.  Every older block is
  first aligned to the newest by the orthogonal Procrustes rotation
  ``W = UV†`` from ``SVD(ψ_old† ψ_new)`` — the closest unitary map of the
  old block onto the new gauge.
* **Re-orthonormalization.**  The linear combination leaves the predicted
  block only approximately orthonormal; a Löwdin (symmetric) step
  ``ψ (ψ†ψ)^{-1/2}`` restores it while moving each band the least.

:class:`DomainHistory` is the window, and the only caller of the two
combinators: an LDC domain's (ψ, v_bc, ρ_α) and an LDC trajectory's
global ρ_in alone (ψ = ``None``).  Its key is
everything the snapshots depend on — ``(npw, nband, atom indices)`` for a
domain, the cell and what shapes the grid for a global window — and any
key change clears it, so the caller falls back to the deterministic cold
start.  A depth-1 window degrades exactly to the last-state warm start
(verbatim copies, no combination).
"""

from __future__ import annotations

from math import comb
from typing import Any

import numpy as np

from repro.util.linalg import lowdin_orthonormalize


def aspc_coefficients(k: int) -> np.ndarray:
    """Predictor coefficients ``B_1..B_k`` of the length-``k`` ASPC window.

    ``k=1`` → ``[1]`` (last-state reuse), ``k=2`` → ``[2, -1]`` (linear
    extrapolation), ``k=3`` → ``[2.5, -2, 0.5]``.  For every ``k`` the
    coefficients sum to 1; for ``k >= 2`` they satisfy
    ``Σ_j B_j (1-j) = 1`` as well, so linear-in-time histories are
    continued exactly.
    """
    if k < 1:
        raise ValueError("history length k must be >= 1")
    denom = comb(2 * k - 2, k - 1)
    return np.array(
        [
            (-1.0) ** (j + 1) * j * comb(2 * k, k - j) / denom
            for j in range(1, k + 1)
        ],
        dtype=float,
    )


def align_to_reference(psi: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Rotate ``psi`` into ``ref``'s band gauge (orthogonal Procrustes).

    Returns ``psi @ (U V†)`` where ``U Σ V† = SVD(psi† ref)`` — the
    unitary band mixing that brings ``psi`` closest to ``ref``, removing
    the arbitrary per-step gauge drift that would otherwise poison the
    ASPC combination.
    """
    u, _, vh = np.linalg.svd(psi.conj().T @ ref)
    return psi @ (u @ vh)


def extrapolate_orbitals(history: list[np.ndarray]) -> np.ndarray:
    """ASPC-predict the next orbital block from ``history`` (newest first).

    Older blocks are gauge-aligned to the newest before the combination
    and the result is Löwdin-orthonormalized.  A length-1 history returns
    a verbatim copy of the newest block (exact last-state warm start).
    """
    k = len(history)
    if k == 0:
        raise ValueError("history must contain at least one orbital block")
    if k == 1:
        return history[0].copy()
    coeffs = aspc_coefficients(k)
    ref = history[0]
    out = coeffs[0] * ref
    for c, psi in zip(coeffs[1:], history[1:]):
        out += c * align_to_reference(psi, ref)
    return lowdin_orthonormalize(out)


def extrapolate_fields(
    history: list[np.ndarray], nonnegative: bool = False
) -> np.ndarray:
    """ASPC-predict the next real-space field (density, v_bc) from
    ``history`` (newest first); ``nonnegative`` clips the prediction at 0
    (densities must stay physical after the signed combination)."""
    k = len(history)
    if k == 0:
        raise ValueError("history must contain at least one field")
    if k == 1:
        return history[0].copy()
    coeffs = aspc_coefficients(k)
    out = coeffs[0] * history[0]
    for c, f in zip(coeffs[1:], history[1:]):
        out += c * f
    if nonnegative:
        np.clip(out, 0.0, None, out=out)
    return out


def subspace_residual(psi_pred: np.ndarray, psi_conv: np.ndarray) -> float:
    """Gauge-invariant distance between a predicted and a converged block.

    ``‖ψ_conv − align(ψ_pred → ψ_conv)‖_F / √nband`` — zero when the
    prediction spans the converged subspace, O(1) for a random guess.
    This is the predictor-quality series the run ledger tracks.
    """
    if psi_pred.shape != psi_conv.shape:
        return float("nan")
    aligned = align_to_reference(psi_pred, psi_conv)
    nband = max(psi_conv.shape[1], 1)
    return float(np.linalg.norm(psi_conv - aligned) / np.sqrt(nband))


def check_depth(depth: Any, name: str = "history depth") -> int:
    """``depth`` as an ``int``, or a ``ValueError`` naming ``name`` unless
    it is an integer >= 1 — the one validation of an ASPC depth."""
    try:
        valid = int(depth) == depth >= 1
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise ValueError(f"{name} must be an integer >= 1, got {depth!r}")
    return int(depth)


class DomainHistory:
    """Bounded ASPC window of converged (ψ, v_bc, ρ) snapshots of one
    carried state: an LDC domain (``vbc=None`` in ``mode="dc"``), or the
    global density alone (``psi=None`` too: fields only).

    ``key`` is everything the snapshots depend on — ``(npw, nband,
    atom-index tuple)`` for an LDC domain; the workspace's density window
    uses one key and is cleared by the workspace's reset.  Pushing under a
    different key clears the window and predicting under one returns
    ``None`` (atom migration, band-count change → deterministic cold
    fallback).  The depth is fixed when the window is built.

    A depth-K window holds K snapshots after :meth:`push` and K − 1
    between :meth:`predict` and the next push: the snapshot only that
    prediction read goes with it, so no carried array exists K + 1 times
    during a solve.
    """

    def __init__(self, depth: int = 3) -> None:
        self.depth = check_depth(depth)
        self._key: tuple | None = None
        #: newest-first snapshots (ψ, v_bc, ρ)
        self._entries: list[
            tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]
        ] = []
        #: the ψ block handed out by the last :meth:`predict`, settled
        #: against the next converged ψ by :meth:`push`
        self.last_prediction: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._key = None
        self._entries = []
        self.last_prediction = None

    def push(
        self,
        key: tuple,
        psi: np.ndarray | None,
        vbc: np.ndarray | None,
        rho: np.ndarray | None,
    ) -> float | None:
        """Prepend a converged snapshot, invalidating on a key change.

        Returns the gauge-invariant residual (:func:`subspace_residual`)
        of the ψ the last :meth:`predict` handed out against this ``psi``
        — the predictor-quality number — or ``None`` when there is no
        finite one to settle.  Snapshots are stored by reference: callers
        hand over ownership (the LDC driver re-binds
        ``state.psi``/``state.rho_local`` to fresh arrays each pass, and
        :meth:`predict` returns combinations or copies, never aliases into
        the window)."""
        residual: float | None = None
        if self.last_prediction is not None and psi is not None:
            res = subspace_residual(self.last_prediction, psi)
            if np.isfinite(res):
                residual = res
        self.last_prediction = None
        if key != self._key:
            self.clear()
            self._key = key
        self._entries.insert(0, (psi, vbc, rho))
        del self._entries[self.depth:]
        return residual

    def predict(
        self, key: tuple
    ) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None] | None:
        """The ASPC prediction over the window for the next step, or
        ``None`` (cold).  Returns fresh arrays: the caller may mutate them
        freely (the LDC driver updates v_bc in place every SCF iteration)
        without corrupting the window.  ρ is clipped nonnegative (the SCF
        loop renormalizes the electron count).

        A full window releases its oldest snapshot here, not at the next
        :meth:`push`, which would trim it: until then the window holds
        ``depth − 1`` snapshots and the caller's live state is the
        ``depth``-th.  A solve that raises in between leaves the window
        one snapshot shorter.
        """
        if key != self._key or not self._entries:
            return None
        newest = self._entries[0]
        psi_hist, vbc_hist, rho_hist = (
            [f for f in column if f is not None]
            for column in zip(*self._entries)
        )
        psi = extrapolate_orbitals(psi_hist) if newest[0] is not None else None
        vbc = extrapolate_fields(vbc_hist) if newest[1] is not None else None
        rho = (
            extrapolate_fields(rho_hist, nonnegative=True)
            if newest[2] is not None else None
        )
        del self._entries[self.depth - 1:]
        self.last_prediction = psi
        return psi, vbc, rho
