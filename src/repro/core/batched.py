"""The LDC domain-solve seam: the "Local" step of Fig. 2.

Every SCF pass solves its domains through one function,
:func:`batched_domain_pass`.  It cuts the active domains into **stacks**,
and per stack restricts the global potentials and updates ``v_bc`` domain
by domain, solves the stack with the one lockstep all-band LOBPCG over one
:class:`~repro.dft.hamiltonian.BatchedHamiltonian`, and stages each
domain's band densities and weights for the global μ search and density
assembly.

The paper's Sec. 3.4 BLAS2→BLAS3 transformation batches *bands within one
domain* into matrix-matrix kernels.  A stack lifts the same idea one level
up the LDC hierarchy: domains whose eigenproblems have the same shape —
identical ``(grid shape, plane-wave count, band count, projector count)``,
a **shape class** — run as one ``(n_domains, …)`` problem (cf. DGDFT's
grouped subproblems, arXiv:2003.00407): one stacked FFT, one batched
nonlocal GEMM and one ``(n, nband, nband)`` stacked ``eigh`` per inner
iteration instead of ``n`` small ones.

``LDCOptions.batch_domains`` only chooses the stack width: ``True`` stacks
whole shape classes, ``False`` makes every domain a stack of one.  The
kernels are the same and act on each stack slice independently, so the two
give bit-identical results (pinned by ``tests/test_batched.py``).  The
reference eigensolvers (``direct``, ``band_by_band``) are per-domain by
construction and always run as stacks of one on a plain
:class:`~repro.dft.hamiltonian.Hamiltonian`.

ASPC warm starts (``LDCOptions.history_depth``) need no special handling
here: the pass seeds ``psi0[j]`` from each ``DomainState.psi``, which
:meth:`repro.core.workspace.LDCWorkspace.prepare` has already filled with
the extrapolated orbitals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.boundary import boundary_error_norm, boundary_potential
from repro.core.workspace import DomainScratch
from repro.dft.eigensolver import (
    EigenResult,
    lobpcg_work_shape,
    record_solve,
    solve_all_band_batched,
    solve_band_by_band,
    solve_direct,
)
from repro.dft.hamiltonian import BatchedHamiltonian, Hamiltonian
from repro.observe import Observer

if TYPE_CHECKING:
    from repro.core.ldc import DomainState, LDCOptions


@dataclass(frozen=True)
class ShapeClassKey:
    """What must coincide for two domains to share stacked kernels.

    ``nproj`` is part of the key deliberately: zero-padding projector
    stacks would change the GEMM contraction length and with it the BLAS
    accumulation, breaking bit-identity between stack widths.
    """

    grid_shape: tuple[int, ...]
    npw: int
    nband: int
    nproj: int


@dataclass
class ShapeClass:
    """One group of same-shape domains: the widest stack they can form.

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

    Raises if two domains with equal keys do not hold the same
    :class:`PlaneWaveBasis` object — a stack transforms through one basis,
    and :meth:`LDCWorkspace.build_states` hands every shape class its one.
    """
    classes: dict[ShapeClassKey, ShapeClass] = {}
    for pos, state in enumerate(states):
        key = _state_key(state)
        cls = classes.setdefault(key, ShapeClass(key=key, members=[]))
        if cls.members and states[cls.members[0]].basis is not state.basis:
            raise ValueError(
                f"domains {cls.members[0]} and {pos} share shape-class key "
                f"{key} but not one plane-wave basis"
            )
        cls.members.append(pos)
    return list(classes.values())


def _domain_effective_potential(
    state: DomainState,
    rho: np.ndarray,
    v_hxc_global: np.ndarray,
    v_ks_global: np.ndarray,
    xi: float | None,
    opts: LDCOptions,
    out: np.ndarray,
    pool: DomainScratch,
) -> np.ndarray:
    """Restrict the global fields to the domain and update its v_bc.

    Writes the effective potential the domain eigenproblem sees (including
    the damped boundary potential) into ``out`` — the domain's slice of the
    stacked potential block — and returns the restricted global density
    (needed again for the boundary-error diagnostic).  ``state.vbc`` is
    updated in place as a side effect.

    Every intermediate lives in a reusable pool, so a steady-state pass
    allocates nothing here: the gathered density, read again after the
    solve, in the domain's own (``state.scratch``); the v_bc target and the
    buffer window, spent when this returns, in the seam's ``pool`` — one
    of each, whatever the number of domains.
    """
    dom = state.domain
    scratch = state.scratch
    shape = dom.grid.shape
    flat = scratch.flat_indices(dom, rho.shape)
    if state.v_ion_local is not None:
        np.take(v_hxc_global.ravel(), flat, out=out)
        out += state.v_ion_local
    else:
        np.take(v_ks_global.ravel(), flat, out=out)
    rho_restricted = scratch.get("rho_restricted", shape)
    np.take(rho.ravel(), flat, out=rho_restricted)
    vbc_target = boundary_potential(
        state.rho_local, rho_restricted, xi,
        out=pool.get("vbc_target", shape),
    )
    if opts.vbc_region == "buffer":
        # act only near the artificial boundary, not inside the core
        window = pool.get("boundary_window", shape)
        np.subtract(1.0, state.support, out=window)
        vbc_target *= window
    if state.vbc is None:
        state.vbc = opts.vbc_damping * vbc_target  # owned, not scratch
    else:
        # same values as (1-d)·vbc + d·target, without the temporaries
        state.vbc *= 1.0 - opts.vbc_damping
        vbc_target *= opts.vbc_damping
        state.vbc += vbc_target
    out += state.vbc
    return rho_restricted


def _solve_stack(
    states: list[DomainState],
    key: ShapeClassKey,
    v_eff: np.ndarray,
    opts: LDCOptions,
    pool: DomainScratch,
) -> list[EigenResult]:
    """Solve one stack's eigenproblems at the potentials ``v_eff``; every
    domain's per-band |ψ|² lands in its own pooled ``band_densities``.

    ``all_band`` stacks the projectors into ``pool``, lends the solver the
    pool's iteration workspace and runs the lockstep LOBPCG on the domains'
    own starting blocks; the reference solvers take their single domain
    through a plain :class:`Hamiltonian`.
    """
    basis = states[0].basis
    assert basis is not None
    densities = [
        state.scratch.get("band_densities", (key.nband,) + key.grid_shape)
        for state in states
    ]
    for state, out in zip(states, densities):
        state.band_densities = out  # staged for the density step
    if opts.eigensolver != "all_band":
        (state,) = states  # reference solvers never stack
        ham = Hamiltonian(basis, v_eff[0], state.vnl)
        if opts.eigensolver == "direct":
            return [solve_direct(ham, state.nband, densities[0])]
        assert state.psi is not None
        return [
            solve_band_by_band(
                ham, state.psi, tol=opts.eig_tol, band_densities=densities[0]
            )
        ]
    nd = len(states)
    psi0: list[np.ndarray] = []
    b = d = None
    if key.nproj:
        b = pool.get("b", (nd, key.npw, key.nproj), complex)
        d = pool.get("d", (nd, key.nproj), float)
    for j, state in enumerate(states):
        assert state.vnl is not None and state.psi is not None
        psi0.append(state.psi)
        if b is not None and d is not None:
            b[j] = state.vnl.b
            d[j] = state.vnl.d
    return solve_all_band_batched(
        BatchedHamiltonian(basis, v_eff, b, d), psi0,
        max_iter=opts.eig_max_iter, tol=opts.eig_tol,
        band_densities=densities,
        work=pool.get(
            "work", lobpcg_work_shape(nd, key.npw, key.nband), complex
        ),
    )


def batched_domain_pass(
    active: list[tuple[int, DomainState]],
    rho: np.ndarray,
    v_hxc_global: np.ndarray,
    v_ks_global: np.ndarray,
    xi: float | None,
    opts: LDCOptions,
    ins: Observer,
    pool: DomainScratch,
) -> list[tuple[int, float | None]]:
    """All active domain solves of one SCF pass, stack by stack.

    ``active`` lists ``(domain index, state)``; returns ``(eigensolver
    iterations, boundary_error)`` per entry, in input order, with ``psi``
    / ``eigenvalues`` / ``vbc`` / band data updated on each state —
    nothing of grid size outlives the pass outside the pools.

    Stacks are whole shape classes when ``opts.batch_domains`` is set and
    the all-band solver runs, single domains otherwise.  On ``ins`` (the
    observability handle), each stack is one ``ldc.domain_solve`` span
    (``domain`` is its first member's index, ``n_domains`` its width,
    ``cg_iterations`` the sum over its members — the sizes
    :mod:`repro.observability.costattr` turns into FLOPs) and each domain
    one :func:`record_solve`.

    ``pool`` holds the stacked buffers between passes (the workspace owns
    one across MD steps, a workspace-less run its own): one arena per role,
    every stack taking its views, so it is as large as the largest stack's
    working set.
    """
    states = [state for _, state in active]
    if opts.batch_domains and opts.eigensolver == "all_band":
        stacks = group_shape_classes(states)
    else:
        stacks = [
            ShapeClass(_state_key(state), [pos])
            for pos, state in enumerate(states)
        ]
    outcomes: list[tuple[int, float | None]] = [(0, None)] * len(states)
    for cls in stacks:
        key, members = cls.key, cls.members
        stack = [states[pos] for pos in members]
        v_eff = pool.get("v_eff", (len(stack),) + key.grid_shape, float)
        rho_restricted = [
            _domain_effective_potential(
                state, rho, v_hxc_global, v_ks_global, xi, opts,
                out=v_eff[j], pool=pool,
            )
            for j, state in enumerate(stack)
        ]
        basis = stack[0].basis
        assert basis is not None
        with ins.span(
            "ldc.domain_solve", category="ldc",
            domain=active[members[0]][0], n_domains=len(stack),
            npw=key.npw, nband=key.nband, nproj=key.nproj,
            grid_points=basis.grid.npoints,
            fft_stages=basis.stage_lines,
        ) as sp:
            results = _solve_stack(stack, key, v_eff, opts, pool)
            sp.attrs.update(
                cg_iterations=sum(res.iterations for res in results)
            )
        for pos, state, res, restricted in zip(
            members, stack, results, rho_restricted
        ):
            assert state.band_densities is not None
            state.psi = res.orbitals
            state.eigenvalues = res.eigenvalues
            # band weights w_αn = ∫ p_α |ψ_n|² dr
            state.band_weights = state.domain.grid.dv * np.einsum(
                "nijk,ijk->n", state.band_densities, state.support
            )
            err = None  # boundary-density error, from the second pass on
            if state.rho_local is not None:
                err = boundary_error_norm(
                    state.rho_local, restricted, state.domain.grid.dv
                )
            record_solve(ins, opts.eigensolver, key.npw, res)
            outcomes[pos] = (int(res.iterations), err)
    return outcomes
