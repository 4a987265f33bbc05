"""Domain support functions p_α(r) — the partition of unity of DC-DFT.

Two families:

* **sharp** — ``p_α`` is the indicator of the core Ω₀α.  Since cores tile the
  grid exactly, ``Σ_α p_α = 1`` holds point-wise by construction.  This is
  the assembly the main driver uses.
* **smooth** — separable trapezoidal "tent with plateau" profiles that ramp
  linearly across the buffer overlap and are then normalized point-wise so
  the sum rule holds to machine precision.  Smooth supports reduce assembly
  discontinuities at core boundaries (useful diagnostics / ablations).

Both return weights on a domain's extended grid, compactly supported within
the domain (zero at its outermost buffer shell), as the paper requires.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.core.domains import Domain, DomainDecomposition


def sharp_support(domain: Domain) -> np.ndarray:
    """Indicator of the core on the domain grid."""
    return domain.core_mask.astype(float)


def _axis_profile(npoints: int, core: int, buffer_: int) -> np.ndarray:
    """1-D trapezoid: 0 at the domain edge, ramping to 1 over the buffer,
    flat 1 across the core."""
    w = np.zeros(npoints)
    if buffer_ == 0:
        w[:core] = 1.0
        return w
    ramp = (np.arange(1, buffer_ + 1)) / (buffer_ + 1)
    w[:buffer_] = ramp
    w[buffer_ : buffer_ + core] = 1.0
    w[buffer_ + core : buffer_ + core + buffer_] = ramp[::-1]
    return w


def smooth_support_raw(domain: Domain) -> np.ndarray:
    """Unnormalized separable trapezoid on the domain grid."""
    profiles = [
        _axis_profile(
            int(domain.extent_points[a]),
            int(domain.core_points[a]),
            int(domain.buffer_points[a]),
        )
        for a in range(3)
    ]
    return (
        profiles[0][:, None, None]
        * profiles[1][None, :, None]
        * profiles[2][None, None, :]
    )


def smooth_supports(decomp: DomainDecomposition) -> list[np.ndarray]:
    """Point-wise normalized smooth supports for all domains.

    The raw trapezoids are scattered onto the global grid to obtain the
    normalizer ``W(r) = Σ_α p̃_α(r)``; each domain weight is then divided by
    ``W`` restricted to its region, guaranteeing ``Σ_α p_α(r) = 1`` exactly.
    """
    raw = [smooth_support_raw(d) for d in decomp.domains]
    total = np.zeros(decomp.grid.shape)
    for dom, w in zip(decomp.domains, raw):
        ix, iy, iz = dom.grid_indices
        np.add.at(total, np.ix_(ix, iy, iz), w)
    if np.any(total <= 0):
        raise RuntimeError("smooth supports do not cover the grid")
    out = []
    for dom, w in zip(decomp.domains, raw):
        out.append(w / dom.extract(total))
    return out


def supports(decomp: DomainDecomposition, kind: str = "sharp") -> list[np.ndarray]:
    """Partition-of-unity weights for every domain (``kind``: sharp|smooth).

    Domains whose weights are equal share one read-only array — on a
    uniform decomposition every sharp support is the same core indicator
    — so the weights cost one array per distinct profile, not one per
    domain, and a write through any holder raises.
    """
    weights: Iterable[np.ndarray]
    if kind == "sharp":
        weights = (sharp_support(d) for d in decomp.domains)
    elif kind == "smooth":
        weights = smooth_supports(decomp)
    else:
        raise ValueError(f"unknown support kind {kind!r}")
    distinct: list[np.ndarray] = []
    out: list[np.ndarray] = []
    for w in weights:
        held = next(
            (d for d in distinct
             if d.shape == w.shape and np.array_equal(d, w)),
            None,
        )
        if held is None:
            w.flags.writeable = False
            distinct.append(w)
            held = w
        out.append(held)
    return out
