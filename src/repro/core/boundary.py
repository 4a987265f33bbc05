"""The density-adaptive boundary potential of LDC-DFT (Eq. 2-3).

The exact linear-response boundary correction

    v_bc(r) = ∫ dr' (∂v/∂ρ(r')) (ρ_α(r') - ρ(r'))

is localized via the quantum-nearsightedness principle (Prodan–Kohn) to

    v_bc(r) ≅ (ρ_α(r) - ρ(r)) / ξ,

with ξ an adjustable parameter the paper fits to 0.333 a.u.  ρ_α is the
domain's own density from the *previous* SCF iteration and ρ the global
density restricted to the domain, so the first iteration has v_bc = 0 and
the correction vanishes as the calculation self-consists — exactly the
paper's scheme.  Classic DC-DFT is recovered by ``xi = None`` (no
correction).
"""

from __future__ import annotations

import numpy as np

#: The paper's fitted value of ξ (atomic units).
PAPER_XI = 0.333


def boundary_potential(
    rho_domain_prev: np.ndarray | None,
    rho_global_restricted: np.ndarray,
    xi: float | None = PAPER_XI,
    clip: float = 2.0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The density-adaptive boundary potential on a domain grid.

    Parameters
    ----------
    rho_domain_prev:
        Domain density from the previous SCF iteration (``None`` on the
        first iteration → zero potential).
    rho_global_restricted:
        Global density restricted to the domain's extended region.
    xi:
        Response parameter ξ; ``None`` disables the correction (classic DC).
    clip:
        Safety bound (Hartree) on |v_bc|, guarding the first few unconverged
        iterations against overshooting.
    out:
        Optional destination array, written in place and returned (the LDC
        seam passes a pooled per-domain buffer); a fresh one otherwise.
    """
    if out is None:
        out = np.empty_like(rho_global_restricted)
    if xi is None or rho_domain_prev is None:
        out[...] = 0.0
        return out
    if xi <= 0:
        raise ValueError("xi must be positive")
    np.subtract(rho_domain_prev, rho_global_restricted, out=out)
    out /= xi
    return np.clip(out, -clip, clip, out=out)


def boundary_error_norm(
    rho_domain: np.ndarray, rho_global_restricted: np.ndarray, dv: float
) -> float:
    """∫ |ρ_α - ρ| dr over the domain — the Δρ that Eq. 1's buffer bound
    controls; used by the convergence diagnostics and tests."""
    return float(np.sum(np.abs(rho_domain - rho_global_restricted)) * dv)
