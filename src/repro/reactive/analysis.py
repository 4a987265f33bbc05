"""Kinetic analysis: Arrhenius fits and rates with error bars."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import KB_EV


@dataclass
class ArrheniusFit:
    """k(T) = A exp(-E_a / k_B T)."""

    activation_ev: float
    prefactor: float
    r_squared: float

    def rate(self, temperature: float) -> float:
        return self.prefactor * np.exp(
            -self.activation_ev / (KB_EV * temperature)
        )


def arrhenius_fit(temperatures, rates) -> ArrheniusFit:
    """Fit ln k vs 1/T; the slope is -E_a/k_B (Fig. 9(a)'s blue line)."""
    temperatures = np.asarray(temperatures, dtype=float)
    rates = np.asarray(rates, dtype=float)
    if temperatures.size < 2:
        raise ValueError("need at least two temperatures")
    if np.any(rates <= 0) or np.any(temperatures <= 0):
        raise ValueError("rates and temperatures must be positive")
    x = 1.0 / temperatures
    y = np.log(rates)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return ArrheniusFit(
        activation_ev=float(-slope * KB_EV),
        prefactor=float(np.exp(intercept)),
        r_squared=r2,
    )


def rate_with_error(results) -> tuple[float, float]:
    """Mean ± standard error of production rates over replica KMC runs."""
    rates = np.array([r.production_rate() for r in results], dtype=float)
    if rates.size == 0:
        return 0.0, 0.0
    err = rates.std(ddof=1) / np.sqrt(rates.size) if rates.size > 1 else 0.0
    return float(rates.mean()), float(err)
