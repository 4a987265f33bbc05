"""Automatic optimization of the DC computational parameters (Sec. 3.1).

The "lean" in LDC-DFT begins with choosing the domain geometry from the
cost/error model: probe the error decay at a few cheap buffer values, fit
the nearsightedness decay length λ (Eq. 1), and return the buffer that
meets a requested tolerance together with the optimal core size l* and the
predicted cost/speedup — the workflow the paper describes as "optimization
of DC computational parameters".

Two entry points:

* :func:`recommend_parameters` / :func:`probe_and_recommend` — the static,
  ahead-of-time workflow (probe runs → fit → one recommendation);
* :class:`BufferController` — the *runtime* closed loop: every MD step it
  observes the live boundary-density error the LDC driver already measures
  and nudges the buffer toward the Eq.-1 optimum for a target error band,
  with hysteresis (hold band, cooldown, grid-quantization no-op detection)
  so the structural caches are not churned by sub-grid-point adjustments.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.core.complexity import (
    buffer_for_tolerance,
    crossover_natoms,
    fit_decay_constant,
    optimal_core_length,
    total_cost,
)


@dataclass
class ParameterRecommendation:
    """Output of the advisor."""

    decay_length: float
    error_amplitude: float
    recommended_buffer: float
    optimal_core_length: float
    predicted_error: float
    cost_relative_to_largest_probe: float
    crossover_atoms: float | None = None

    def summary(self) -> str:
        return (
            f"λ = {self.decay_length:.2f} Bohr, recommend b = "
            f"{self.recommended_buffer:.2f} Bohr with l* = "
            f"{self.optimal_core_length:.2f} Bohr "
            f"(predicted error {self.predicted_error:.2e}/atom)"
        )


def recommend_parameters(
    probe_buffers: np.ndarray,
    probe_errors: np.ndarray,
    tolerance: float,
    nu: float = 2.0,
    number_density: float | None = None,
) -> ParameterRecommendation:
    """Fit Eq. 1 to probe data and recommend (b, l*) for a tolerance.

    Parameters
    ----------
    probe_buffers, probe_errors:
        Buffer thicknesses (Bohr) and the measured per-atom errors at them
        (from cheap probe runs against a reference or self-referenced to
        the largest probe).
    tolerance:
        Target per-atom error (the paper's Fig.-7 criterion, e.g. 1e-3).
    nu:
        Per-domain solver exponent (2 for the practical regime, 3
        asymptotic).
    number_density:
        Optional atoms/Bohr³ to also report the O(N)↔O(N³) crossover.
    """
    probe_buffers = np.asarray(probe_buffers, dtype=float)
    probe_errors = np.asarray(probe_errors, dtype=float)
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    lam, amp = fit_decay_constant(probe_buffers, probe_errors)
    b = buffer_for_tolerance(lam, amp, tolerance)
    b = max(b, float(probe_buffers.min()))
    l_star = optimal_core_length(b, nu)
    predicted = amp * np.exp(-b / lam)
    # cost relative to running at the largest probed buffer (same L)
    ref_b = float(probe_buffers.max())
    cost_rel = total_cost(optimal_core_length(ref_b, nu), 100.0, ref_b, nu)
    cost_here = total_cost(l_star, 100.0, b, nu)
    return ParameterRecommendation(
        decay_length=lam,
        error_amplitude=amp,
        recommended_buffer=float(b),
        optimal_core_length=float(l_star),
        predicted_error=float(predicted),
        cost_relative_to_largest_probe=float(cost_here / cost_rel),
        crossover_atoms=(
            crossover_natoms(b, number_density, nu) if number_density else None
        ),
    )


@dataclass
class BufferControllerOptions:
    """Knobs for the runtime :class:`BufferController`.

    The thresholds of the adaptive-buffer loop live here (one config
    object, same convention as ``HealthThresholds`` — RP006 flags numeric
    literals at controller call sites).
    """

    #: target per-domain boundary-density error ε (Eq. 1's tolerance)
    target_error: float = 1e-4
    #: hold while the observed error stays within [ε/band, ε·band]
    band: float = 3.0
    #: initial nearsightedness decay length λ in Bohr (refit online from
    #: (b, error) observations once two distinct buffers have been seen)
    decay_length: float = 1.5
    #: per-domain solver exponent ν of the cost model (l* = 2b/(ν-1))
    nu: float = 2.0
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
        if self.decay_length <= 0 or self.nu <= 1.0:
            raise ValueError("decay_length must be > 0 and nu > 1")
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
                core_length=float(
                    optimal_core_length(current_buffer, opts.nu)
                ),
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
            core_length=float(optimal_core_length(proposed, opts.nu)),
            changed=True,
            reason="grow" if proposed > current_buffer else "shrink",
        )


def probe_and_recommend(
    config,
    reference_energy: float,
    tolerance: float,
    probe_buffers=(0.6, 1.2, 1.8),
    ldc_options=None,
    nu: float = 2.0,
):
    """Run cheap LDC probes at the given buffers and recommend parameters.

    Returns ``(recommendation, probe_errors)``.  The probes reuse the given
    base options with only the buffer changed.
    """
    from dataclasses import replace

    from repro.core.ldc import LDCOptions, run_ldc

    base = ldc_options or LDCOptions()
    errors = []
    for b in probe_buffers:
        r = run_ldc(config, replace(base, buffer=float(b)))
        errors.append(abs(r.energy - reference_energy) / len(config))
    rec = recommend_parameters(
        np.asarray(probe_buffers), np.asarray(errors), tolerance, nu,
        number_density=len(config) / config.volume,
    )
    return rec, np.asarray(errors)
