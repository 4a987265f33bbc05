"""Domain-batched shape-class kernels for the LDC SCF pass.

The paper's Sec. 3.4 BLAS2→BLAS3 transformation batches *bands within one
domain* into matrix-matrix kernels.  This module lifts the same idea one
level up the LDC hierarchy: DC domains whose eigenproblems have the same
shape — identical ``(grid shape, plane-wave count, band count, projector
count)`` — are grouped into **shape classes** and solved as one stacked
``(n_domains, …)`` problem (cf. DGDFT's grouped subproblems,
arXiv:2003.00407).  Instead of ``n`` small FFTs/GEMMs per inner iteration
the class runs one batched FFT, one batched nonlocal GEMM, and one
``(n, nband, nband)`` stacked ``eigh`` — few large kernels where the
per-domain path (PR 4's ``ldc_workers``) issues many tiny ones.

The stacked kernels call the same NumPy transforms and BLAS as the
per-domain ones.  The per-domain physics prework/postwork (potential
restriction, v_bc updates, band-density staging) stays in
:mod:`repro.core.ldc` — it is shared verbatim with the per-domain path,
which is what makes the two paths agree to ≤1e-10.

Enable via ``LDCOptions.batch_domains=True`` or ``REPRO_BATCH_DOMAINS=1``
(all-band eigensolver only; env-resolved requests fall back silently for
other solvers).

ASPC warm starts (``LDCOptions.history_depth``) need no special handling
here: the batched pass seeds ``psi0[j]`` from each ``DomainState.psi``,
which :meth:`repro.core.workspace.LDCWorkspace.prepare` has already filled
with the extrapolated orbitals — predictor parity with the per-domain path
holds by construction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.dft.eigensolver import record_solve, solve_all_band_batched
from repro.dft.hamiltonian import BatchedHamiltonian

if TYPE_CHECKING:
    import numpy as np

    from repro.core.ldc import DomainState, LDCOptions
    from repro.core.workspace import DomainScratch
    from repro.dft.eigensolver import EigenResult
    from repro.observability.instrumentation import Instrumentation

#: Environment variable enabling domain batching when
#: ``LDCOptions.batch_domains`` is left unset.
ENV_FLAG = "REPRO_BATCH_DOMAINS"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def batching_enabled(options: LDCOptions) -> bool:
    """Whether this run's domain solves go through the batched path.

    Resolution: an explicit ``options.batch_domains`` wins; ``None`` defers
    to ``$REPRO_BATCH_DOMAINS``.  Batching requires the all-band solver —
    an env-resolved request with another eigensolver falls back silently
    (so a blanket ``REPRO_BATCH_DOMAINS=1`` test run keeps working), while
    ``batch_domains=True`` with another solver already raised in
    ``LDCOptions.__post_init__``.  An explicitly configured thread fan-out
    (``ldc_workers > 1``) likewise beats the ambient env flag — only the
    in-code ``batch_domains=True`` overrides it.
    """
    if options.eigensolver != "all_band":
        return False
    if options.batch_domains is not None:
        return bool(options.batch_domains)
    if options.ldc_workers > 1:
        return False
    return os.environ.get(ENV_FLAG, "").strip().lower() in _TRUTHY


@dataclass(frozen=True)
class ShapeClassKey:
    """What must coincide for two domains to share stacked kernels.

    ``nproj`` is part of the key deliberately: zero-padding projector
    stacks would change the GEMM contraction length and with it the BLAS
    accumulation, breaking parity with the per-domain path.
    """

    grid_shape: tuple[int, int, int]
    npw: int
    nband: int
    nproj: int


@dataclass
class ShapeClass:
    """One group of same-shape domains: the unit of batched solving.

    ``members`` are positions into the active-domain list (ascending, so
    stacking order is deterministic and results fold back in domain-index
    order).
    """

    key: ShapeClassKey
    members: list[int]


def _state_key(state: DomainState) -> ShapeClassKey:
    assert state.basis is not None and state.vnl is not None
    return ShapeClassKey(
        grid_shape=tuple(state.domain.grid.shape),
        npw=state.basis.npw,
        nband=state.nband,
        nproj=state.vnl.nproj,
    )


def group_shape_classes(states: list[DomainState]) -> list[ShapeClass]:
    """Group active domain states into shape classes (first-seen order).

    Raises if two domains with equal keys have structurally different
    plane-wave bases — that would make stacking silently wrong, and cannot
    happen for a grid-aligned decomposition with one cutoff.
    """
    classes: dict[ShapeClassKey, ShapeClass] = {}
    for pos, state in enumerate(states):
        key = _state_key(state)
        cls = classes.get(key)
        if cls is None:
            classes[key] = ShapeClass(key=key, members=[pos])
            continue
        first = states[cls.members[0]]
        assert first.basis is not None and state.basis is not None
        if not first.basis.structurally_equal(state.basis):
            raise ValueError(
                f"domains {cls.members[0]} and {pos} share shape-class key "
                f"{key} but have structurally different plane-wave bases"
            )
        cls.members.append(pos)
    return list(classes.values())


def batched_domain_pass(
    active: list[tuple[int, DomainState]],
    rho: np.ndarray,
    v_hxc_global: np.ndarray,
    v_ks_global: np.ndarray,
    xi: float | None,
    opts: LDCOptions,
    ins: Instrumentation | None,
    pool: DomainScratch | None = None,
) -> list[tuple[EigenResult, float | None, None]]:
    """All active domain solves of one SCF pass, as stacked shape classes.

    Drop-in replacement for mapping ``_domain_pass`` over ``active``:
    returns ``(EigenResult, boundary_error, None)`` per active domain in
    input order (the ``None`` dt tells the caller's fold that telemetry was
    already recorded here).  The per-domain prework (potential restriction
    + v_bc update, writing straight into the stacked potential block) and
    postwork (band densities/weights) are the exact helpers the per-domain
    path runs, and the stacked eigensolver applies the same arithmetic per
    slice, so energies agree with the per-domain path to ≤1e-10.

    ``pool`` holds the stacked class buffers between passes (the workspace
    owns one across MD steps); passing ``None`` builds a throwaway pool.
    """
    from repro.core.ldc import _domain_effective_potential, _stage_band_data
    from repro.core.workspace import DomainScratch

    if pool is None:
        pool = DomainScratch()
    states = [state for _, state in active]
    outcomes: list[tuple[EigenResult, float | None, None] | None]
    outcomes = [None] * len(states)
    for cls in group_shape_classes(states):
        key = cls.key
        nd = len(cls.members)
        first = states[cls.members[0]]
        assert first.basis is not None
        basis = first.basis
        tag = (key.grid_shape, key.npw, key.nband, key.nproj)
        v_eff = pool.get(("v_eff", tag), (nd,) + key.grid_shape, float)
        psi0 = pool.get(("psi0", tag), (nd, key.npw, key.nband), complex)
        rho_restricted: list[np.ndarray] = []
        for j, pos in enumerate(cls.members):
            state = states[pos]
            _, restricted = _domain_effective_potential(
                state, rho, v_hxc_global, v_ks_global, xi, opts,
                out=v_eff[j],
            )
            rho_restricted.append(restricted)
            psi0[j] = state.psi
        if key.nproj:
            b = pool.get(("b", tag), (nd, key.npw, key.nproj), complex)
            d = pool.get(("d", tag), (nd, key.nproj), float)
            for j, pos in enumerate(cls.members):
                vnl = states[pos].vnl
                assert vnl is not None
                b[j] = vnl.b
                d[j] = vnl.d
        else:
            b = d = None
        bham = BatchedHamiltonian(basis, v_eff, b, d)
        if ins is None:
            results = solve_all_band_batched(
                bham, psi0, max_iter=opts.eig_max_iter, tol=opts.eig_tol,
                want_fields=True,
            )
        else:
            with ins.span(
                "ldc.batched_solve", category="ldc", n_domains=nd,
                npw=key.npw, nband=key.nband, nproj=key.nproj,
                grid_points=basis.grid.npoints,
                fft_stages=basis.stage_lines,
            ) as sp:
                results = solve_all_band_batched(
                    bham, psi0, max_iter=opts.eig_max_iter, tol=opts.eig_tol,
                    want_fields=True,
                )
                # total inner iterations across the class feed the
                # per-shape-class FLOP attribution (costattr) at report time
                sp.attrs.update(
                    cg_iterations=sum(res.iterations for res in results)
                )
        for j, pos in enumerate(cls.members):
            state = states[pos]
            res = results[j]
            state.psi = res.orbitals
            state.eigenvalues = res.eigenvalues
            err = _stage_band_data(state, res, rho_restricted[j])
            if ins is not None:
                record_solve(ins, opts.eigensolver, key.npw, res)
            outcomes[pos] = (res, err, None)
    assert all(outcome is not None for outcome in outcomes)
    return outcomes  # type: ignore[return-value]
