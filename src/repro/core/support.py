"""Domain support functions p_α(r) — the partition of unity of DC-DFT.

``p_α`` is the indicator of the core Ω₀α on the domain's extended grid:
compactly supported within the domain (zero on its whole buffer), and,
since cores tile the grid exactly, ``Σ_α p_α = 1`` holds point-wise by
construction.  The SCF pass reads it only in the band weights
``w_αn = ∫ p_α |ψ_n|²``; where p_α just selects points — the density
assembly, the v_bc window — it slices the core box instead
(:attr:`~repro.core.domains.Domain.core_slices`).
"""

from __future__ import annotations

import numpy as np

from repro.core.domains import Domain, DomainDecomposition


def sharp_support(domain: Domain) -> np.ndarray:
    """Indicator of the core on the domain grid."""
    weight = np.zeros(domain.grid.shape)
    weight[domain.core_slices] = 1.0
    return weight


def supports(decomp: DomainDecomposition) -> list[np.ndarray]:
    """Partition-of-unity weights for every domain: one read-only core
    indicator that all of them hold — every domain has the same core and
    buffer extents — so the weights cost one array, not one per domain,
    and a write through any holder raises.
    """
    weight = sharp_support(decomp.domains[0])
    weight.flags.writeable = False
    return [weight] * decomp.ndomains
