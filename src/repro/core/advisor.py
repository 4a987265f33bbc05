"""Automatic optimization of the DC computational parameters (Sec. 3.1).

The "lean" in LDC-DFT begins with choosing the domain geometry from the
cost/error model of Eq. 1.  :class:`BufferController` is that choice made
at run time: every MD step it observes the live boundary-density error the
LDC driver already measures and nudges the buffer toward the Eq.-1 optimum
for a target error band, with hysteresis (hold band, cooldown,
grid-quantization no-op detection) so the structural caches are not
churned by sub-grid-point adjustments.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.core.complexity import fit_decay_constant, optimal_core_length


@dataclass
class BufferControllerOptions:
    """Knobs for the runtime :class:`BufferController`.

    The thresholds of the adaptive-buffer loop live here (one config
    object; a numeric literal at a controller call site fails
    ``tests/test_repo_hygiene.py``).
    """

    #: target per-domain boundary-density error ε (Eq. 1's tolerance)
    target_error: float = 1e-4
    #: hold while the observed error stays within [ε/band, ε·band]
    band: float = 3.0
    #: initial nearsightedness decay length λ in Bohr (refit online from
    #: (b, error) observations once two distinct buffers have been seen)
    decay_length: float = 1.5
    min_buffer: float = 0.5
    max_buffer: float = 6.0
    #: largest |Δb| per adjustment (Bohr) — keeps a mis-fit λ from
    #: slamming the buffer across its whole range in one step
    max_step: float = 1.0
    #: steps to hold after an adjustment: a buffer change resets the
    #: workspace (cold restart), so the next error samples are transient
    cooldown_steps: int = 2

    def __post_init__(self) -> None:
        if self.target_error <= 0 or self.band < 1.0:
            raise ValueError("target_error must be > 0 and band >= 1")
        if self.decay_length <= 0:
            raise ValueError("decay_length must be > 0")
        if not 0 < self.min_buffer <= self.max_buffer:
            raise ValueError("need 0 < min_buffer <= max_buffer")
        if self.max_step <= 0 or self.cooldown_steps < 0:
            raise ValueError("max_step > 0 and cooldown_steps >= 0 required")


@dataclass
class BufferDecision:
    """One :meth:`BufferController.propose` outcome."""

    #: the buffer to run the next step with (== current when held)
    buffer: float
    #: the matching Eq.-1 optimal core size l* = 2b/(ν-1)
    core_length: float
    #: whether the controller asks for a change
    changed: bool
    #: "hold-band" | "hold-cooldown" | "hold-quantized" | "hold-cell"
    #: | "hold-no-data" | "grow" | "shrink"
    reason: str


@dataclass
class BufferController:
    """Runtime adaptive-buffer loop over the live boundary-error telemetry.

    Feed it one ``observe(buffer, error)`` per MD step (the LDC driver's
    mean boundary-density error — the quantity Eq. 1 models) and ask
    ``propose(current_buffer, spacings)`` whether to re-run the next step
    at a different thickness.  The update rule is the incremental form of
    Eq. 1: with error ≈ A·e^{-b/λ},

        b_new − b = λ · ln(e_obs / ε)

    so one step lands on the target error when λ is right; λ itself is
    refit online (:func:`repro.core.complexity.fit_decay_constant`) once
    observations at two distinct thicknesses exist.  Hysteresis keeps the
    loop from churning the structural caches: a hold band around ε, a
    cooldown after every change (the post-reset transient carries no
    steady-state information), and a no-op detector for proposals that
    realize — rounded to whole grid points and clamped at the whole-cell
    buffer, as :class:`~repro.core.domains.DomainDecomposition` does — to
    the buffer the decomposition already has.
    """

    options: BufferControllerOptions = field(
        default_factory=BufferControllerOptions
    )
    #: current λ estimate (starts at ``options.decay_length``, refit online)
    decay_length: float = 0.0
    #: total adjustments requested (the ``ldc.buffer_adjustments`` counter)
    adjustments: int = 0
    #: reason -> how often a proposal was held for it
    holds: Counter = field(default_factory=Counter)
    _observations: list[tuple[float, float]] = field(default_factory=list)
    _cooldown: int = 0

    def __post_init__(self) -> None:
        if self.decay_length <= 0:
            self.decay_length = self.options.decay_length

    def observe(self, buffer_: float, error: float) -> None:
        """Record one (buffer, boundary error) sample and refit λ.

        The refit needs ≥ 2 distinct thicknesses with nonzero, decaying
        errors; until then (or when the fit degenerates, e.g. errors grow
        with b over a transient) the prior λ is kept.
        """
        self._observations.append((float(buffer_), float(error)))
        buffers = np.array([b for b, _ in self._observations])
        errors = np.array([e for _, e in self._observations])
        # (a set, not np.unique: that imports numpy.ma into the process)
        if len(set(buffers[errors > 0].tolist())) >= 2:
            try:
                self.decay_length, _ = fit_decay_constant(buffers, errors)
            except ValueError:
                pass  # non-decaying/degenerate sample set: keep prior λ

    def propose(
        self,
        current_buffer: float,
        spacings: np.ndarray | None = None,
        max_points: np.ndarray | None = None,
    ) -> BufferDecision:
        """The buffer for the next step given the latest observation.

        ``spacings`` (per-axis grid spacings, Bohr) enables the no-op
        check on *realized* buffers: a proposal that rounds to the same
        whole-grid-point buffer on every axis as ``current_buffer`` is
        held (``"hold-quantized"``) — the decomposition would not change,
        so the workspace reset would buy nothing.  ``max_points`` is the
        decomposition's ceiling (``max_buffer_points``, where a domain
        spans the cell): a proposal is cut back to it, and one that differs
        from the current buffer only beyond it is held (``"hold-cell"``).
        """
        opts = self.options

        def hold(reason: str) -> BufferDecision:
            self.holds[reason] += 1
            return BufferDecision(
                buffer=float(current_buffer),
                core_length=float(optimal_core_length(current_buffer)),
                changed=False,
                reason=reason,
            )

        if not self._observations:
            return hold("hold-no-data")
        error = self._observations[-1][1]
        if error <= 0:
            return hold("hold-no-data")
        if self._cooldown > 0:
            self._cooldown -= 1
            return hold("hold-cooldown")
        if opts.target_error / opts.band <= error <= (
            opts.target_error * opts.band
        ):
            return hold("hold-band")
        delta = self.decay_length * float(
            np.log(error / opts.target_error)
        )
        delta = float(np.clip(delta, -opts.max_step, opts.max_step))
        proposed = float(
            np.clip(current_buffer + delta, opts.min_buffer, opts.max_buffer)
        )
        if proposed == float(current_buffer):
            return hold("hold-band")
        if spacings is not None:
            sp = np.asarray(spacings, dtype=float)
            points = np.rint(proposed / sp)
            current = np.rint(current_buffer / sp)
            if np.array_equal(points, current):
                return hold("hold-quantized")
            if max_points is not None:
                proposed = min(proposed, float(np.max(max_points * sp)))
                if np.array_equal(
                    np.minimum(points, max_points),
                    np.minimum(current, max_points),
                ):
                    return hold("hold-cell")
        self._cooldown = opts.cooldown_steps
        self.adjustments += 1
        return BufferDecision(
            buffer=proposed,
            core_length=float(optimal_core_length(proposed)),
            changed=True,
            reason="grow" if proposed > current_buffer else "shrink",
        )

