"""Persistent LDC workspace: MD-step-invariant state, cached once per cell.

The paper's headline metric is QMD time-to-solution — atoms × SCF iterations
per second (Sec. 5.2/6).  Between MD steps the *cell* is fixed; only atom
positions move.  Everything derived purely from the cell and the solver
options is therefore invariant across steps:

* the global real-space grid,
* the domain decomposition (cores + buffers),
* the partition-of-unity supports p_α(r), one per distinct profile,
* one plane-wave basis per shape class (cutoff sphere on the domain grid),
* the Ewald image shifts and reciprocal vectors,
* the multigrid Poisson solver's level hierarchy and buffers.

An :class:`LDCWorkspace` builds them once, re-bins the atoms each step,
and rebuilds only the atom-dependent piece — the nonlocal projectors.
Every ``run_ldc`` goes through one: a single point without ``workspace=``
is a one-step trajectory through a throwaway workspace, whose empty
caches make every domain cold.

On top of the structural reuse the workspace **warm-starts each domain's
orbitals** from a bounded history of its converged states: each domain
keeps a :class:`~repro.md.extrapolate.DomainHistory` window of (ψ, v_bc,
ρ_α) snapshots, and ``prepare`` seeds the next solve from the ASPC
prediction over the last ``history_depth`` of them (depth 1 degrades to
verbatim last-state reuse; restarting the damped v_bc iteration from
zero would otherwise dominate the step-2 SCF count).  A domain whose
identity changed — atoms migrated across a boundary, the band count
moved — invalidates its window and falls back to the same deterministic
random start the cold path uses.  Orbital warm
starts are the dominant lever on MD throughput: the eigensolver starts
inside (depth 1) or ahead of (depth ≥ 2, extrapolated) the previous
step's converged subspace and typically needs a small fraction of the
cold iteration count (cf. DGDFT, arXiv:2003.00407; Scheiber et al.,
arXiv:1803.04536; Kolafa's ASPC).

The workspace also owns the trajectory's **SCF quasi-Newton memory**: one
:class:`~repro.dft.mixing.PulayMixer` whose (Δρ, ΔR) secant pairs carry
from one MD step's density mixing into the next (:meth:`LDCWorkspace.scf_mixer`),
so a warm step does not relearn the SCF Jacobian from an undamped linear
step.  The pairs are dropped whenever the orbital warm start is — a reset
(cell, option-signature or grid change) or any domain going cold; a cold
solve's fresh mixer is the one a single point runs with.

Thread it through :func:`repro.core.ldc.run_ldc` via ``workspace=``;
:class:`repro.md.qmd.LDCEngine` creates one automatically so ``QMDDriver``
trajectories get the reuse for free.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.domains import Domain, DomainDecomposition
from repro.core.support import supports
from repro.dft.basis import PlaneWaveBasis
from repro.dft.ewald import EwaldStructure
from repro.dft.grid import RealSpaceGrid
from repro.dft.mixing import PulayMixer
from repro.dft.pseudopotential import NonlocalProjectors
from repro.dft.scf import ORBITAL_SEED
from repro.md.extrapolate import DomainHistory, check_depth
from repro.multigrid.poisson import MultigridPoisson
from repro.systems.configuration import Configuration

if TYPE_CHECKING:
    from repro.core.ldc import DomainState, LDCOptions


class DomainScratch:
    """A named pool of reusable work arrays for one LDC hot-path consumer.

    ``get(name, shape, dtype)`` returns a view of the arena named ``name``
    — one flat buffer per name, grown to the largest request seen — so a
    steady-state SCF pass performs **zero** buffer allocations (the
    invariant the domain-batching benchmark pins with its tracemalloc
    check).  :attr:`allocations` counts every real allocation for exactly
    that assertion.

    One instance serves one consumer.  A *domain's* pool (on its
    :class:`~repro.core.ldc.DomainState`) holds what must exist once per
    domain because it outlives the domain's solve — gather indices and
    the real per-band |ψ|² the seam forms from the solved orbitals for
    the density step.  The seam's *stack pool* holds one stack's working
    set — stacked v_eff/projectors, the solver's iteration workspace, one
    domain's restricted density, v_bc target and buffer window — and because
    stacks are solved one after another every shape class takes its views
    of the same arenas: the pool is the largest stack's working set, not
    the sum over classes.
    Contents are undefined between uses — every consumer overwrites before
    reading (``np.take(..., out=)`` / full-array ufunc ``out=`` writes), so
    ``np.empty`` suffices.
    """

    def __init__(self) -> None:
        self._bufs: dict[str, np.ndarray] = {}
        self._flat: np.ndarray | None = None
        #: number of buffer (re)allocations since construction
        self.allocations: int = 0

    def get(
        self,
        name: str,
        shape: tuple[int, ...],
        dtype: type | np.dtype = float,
    ) -> np.ndarray:
        """A C-contiguous ``shape``/``dtype`` view of the arena ``name``."""
        shape = tuple(int(n) for n in shape)
        size = math.prod(shape)
        buf = self._bufs.get(name)
        if buf is None or buf.size < size or buf.dtype != np.dtype(dtype):
            buf = np.empty(size, dtype=dtype)
            self._bufs[name] = buf
            self.allocations += 1
        return buf[:size].reshape(shape)

    def flat_indices(self, domain: Domain, global_shape: tuple[int, ...]) -> np.ndarray:
        """Flat global-grid indices of the domain's extended region.

        Cached on first use (the decomposition is MD-step-invariant); lets
        field restriction run as ``np.take(field.ravel(), flat, out=buf)``
        — the gather of ``Domain.extract`` without its per-call allocation.
        """
        if self._flat is None:
            ix, iy, iz = domain.grid_indices
            ny, nz = int(global_shape[1]), int(global_shape[2])
            self._flat = (
                ix[:, None, None] * ny + iy[None, :, None]
            ) * nz + iz[None, None, :]
        return self._flat


def _nbytes(obj: Any, seen: set[int]) -> int:
    """Bytes of the arrays reachable from ``obj`` through lists, tuples,
    dicts and instance attributes, but not of those in ``seen``: an array
    counts once however many holders reach it (its id joins ``seen``)."""
    if isinstance(obj, np.ndarray):
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return obj.nbytes
    if not isinstance(obj, (list, tuple, dict)):
        obj = getattr(obj, "__dict__", {})
    items = obj.values() if isinstance(obj, dict) else obj
    return sum(_nbytes(item, seen) for item in items)


def _domain_key(
    atom_indices: np.ndarray, npw: int, nband: int
) -> tuple:
    """The identity of a domain's electronic problem across MD steps.

    History snapshots are only reusable while this is unchanged: the basis
    size, the band count, and *which* atoms the domain owns (a migrated
    atom changes the local problem even at equal band count).
    """
    return (int(npw), int(nband), tuple(int(i) for i in atom_indices))


def _options_signature(options: LDCOptions) -> tuple:
    """The option fields the cached structures depend on.

    A change in any of these invalidates the grid/decomposition/bases (and
    with them the orbital cache); other options (tolerances, ξ, the
    solvers) only steer the SCF loop and leave the cached geometry valid.
    """
    return (
        options.ecut,
        tuple(options.domains),
        options.buffer,
        options.support,
        options.extra_bands,
    )


#: the keys of :meth:`LDCWorkspace.resident_bytes`
RESIDENT_PARTS = (
    "bases", "scratch", "stack_pool", "windows", "mixer", "global",
)


class LDCWorkspace:
    """Reusable LDC solver state for a trajectory in a fixed cell.

    Usage::

        ws = LDCWorkspace(history_depth=3)
        rho = None
        for config in trajectory:
            result = run_ldc(config, opts, workspace=ws, rho0=rho)
            rho = result.input_density  # what the stored ψ were solved at

    ``prepare`` detects cell / option changes and resets itself, so a single
    workspace can safely outlive a cell swap — it just pays one cold rebuild.
    ``history_depth`` is the ASPC depth of the domain windows: 1 keeps the
    plain last-state warm start, K >= 2 seeds each solve from the
    time-reversible K-point extrapolation of the converged ψ/v_bc/ρ_α
    (:mod:`repro.md.extrapolate`).  It is not part of the structural
    signature: changing it mid-trajectory trims or deepens the windows
    without a cold restart.  One workspace per trajectory.
    """

    def __init__(self, history_depth: int = 1) -> None:
        self.history_depth = check_depth(
            history_depth, "LDCWorkspace.history_depth"
        )
        self._cell: np.ndarray | None = None
        self._signature: tuple | None = None
        self.grid: RealSpaceGrid | None = None
        self.decomposition: DomainDecomposition | None = None
        #: partition weights by domain; equal ones are one read-only array
        self.pou: list[np.ndarray] | None = None
        #: one basis per shape class ``(grid shape, lengths, cutoff)``
        self._bases: dict[tuple, PlaneWaveBasis] = {}
        #: bounded per-domain ASPC windows of converged (ψ, v_bc, ρ_α)
        #: snapshots (:class:`~repro.md.extrapolate.DomainHistory`), keyed
        #: by domain index; filled by :meth:`store`, consumed by
        #: :meth:`prepare`
        self._history: dict[int, DomainHistory] = {}
        #: mean gauge-invariant residual of the last step's ψ predictions
        #: against the converged blocks (None until a predicted step has
        #: been stored) — the ``ldc.predictor_residual`` series
        self.predictor_residual: float | None = None
        self._ewald: EwaldStructure | None = None
        #: the global grid's multigrid Poisson solver (:meth:`poisson`)
        self._poisson: MultigridPoisson | None = None
        #: the trajectory's density mixer; its secant pairs are the SCF
        #: memory carried across MD steps (:meth:`scf_mixer`)
        self._mixer: PulayMixer | None = None
        #: per-domain reusable work buffers (gather indices, band
        #: densities), attached to each ``DomainState`` by
        #: :meth:`prepare` so they survive from one MD step to the next
        self._scratch: dict[int, DomainScratch] = {}
        #: the domain-solve seam's stack pool (``repro.core.batched``
        #: stacks v_eff/projectors into it and lends the solver its
        #: iteration workspace from it)
        self.batch_pool: DomainScratch = DomainScratch()
        #: per-``prepare`` stats: domains seeded from cached orbitals vs
        #: random (fresh build, or band count changed after atom migration)
        self.warm_domains: int = 0
        self.cold_domains: int = 0
        #: number of ``prepare`` calls since the last reset
        self.steps: int = 0

    # -- cache lifecycle -----------------------------------------------------

    def reset(self) -> None:
        """Drop everything (structures, orbital cache, scratch pools)."""
        self._cell = None
        self._signature = None
        self.grid = None
        self.decomposition = None
        self.pou = None
        self._bases.clear()
        self._history.clear()
        self.predictor_residual = None
        self._ewald = None
        self._poisson = None
        if self._mixer is not None:
            self._mixer.reset("reset")
        self._scratch.clear()
        self.batch_pool = DomainScratch()
        self.warm_domains = 0
        self.cold_domains = 0
        self.steps = 0

    def scratch_allocations(self) -> int:
        """Total buffer allocations across every scratch pool.

        Flat across warm SCF passes — the domain-batching benchmark asserts
        the delta over a warm trajectory step is zero.
        """
        return self.batch_pool.allocations + sum(
            s.allocations for s in self._scratch.values()
        )

    def resident_bytes(self) -> dict[str, int]:
        """Bytes kept alive between MD steps, by part: ``bases`` (one
        plane-wave basis per domain shape, one partition weight per
        distinct profile) and ``stack_pool`` do not grow with the domain count at a
        fixed stack width, ``scratch`` and ``windows`` are the per-domain
        O(N) state, ``mixer`` the carried SCF memory, ``global`` the
        geometry-only tables of the global half (Ewald structure,
        multigrid levels).  An array counts once, in the first part that
        reaches it."""
        levels = self._poisson.levels if self._poisson is not None else None
        parts = ((self._bases, self.pou), self._scratch, self.batch_pool,
                 self._history, self._mixer, (self._ewald, levels))
        seen: set[int] = set()
        return {
            name: _nbytes(part, seen)
            for name, part in zip(RESIDENT_PARTS, parts)
        }

    def _ensure_structures(
        self,
        config: Configuration,
        options: LDCOptions,
        grid: RealSpaceGrid | None = None,
    ) -> None:
        """Build grid, decomposition and supports unless the cached ones
        belong to this cell and option signature (then ``grid`` is
        ignored); a rebuild starts from :meth:`reset`.  ``grid`` replaces
        :func:`~repro.core.ldc.make_global_grid`'s — ``run_ldc(grid=)``
        on its throwaway workspace."""
        from repro.core.ldc import make_global_grid

        cell = np.asarray(config.cell, dtype=float).reshape(3)
        sig = _options_signature(options)
        if (
            self._cell is not None
            and np.array_equal(self._cell, cell)
            and self._signature == sig
        ):
            return
        self.reset()
        self._cell = cell.copy()
        self._signature = sig
        self.grid = grid if grid is not None else make_global_grid(
            config, options
        )
        self.decomposition = DomainDecomposition(
            self.grid, options.domains, options.buffer
        )
        self.pou = supports(self.decomposition, options.support)

    def ewald_structure(self, config: Configuration) -> EwaldStructure:
        """The cached Ewald geometry for this cell (built on first use)."""
        natoms = len(config.symbols)
        if self._ewald is None or not self._ewald.matches(
            config.cell, natoms
        ):
            self._ewald = EwaldStructure.build(config.cell, natoms)
        return self._ewald

    def poisson(self) -> MultigridPoisson:
        """The cached multigrid solver of the global grid (call after
        :meth:`prepare`): hierarchy now, level buffers on its first solve,
        both for every later pass and step of the trajectory."""
        assert self.grid is not None
        if self._poisson is None:
            self._poisson = MultigridPoisson(self.grid)
        return self._poisson

    # -- SCF quasi-Newton memory ---------------------------------------------

    def scf_mixer(self) -> PulayMixer:
        """The trajectory's Pulay mixer, positioned at the start of a solve.

        Call after :meth:`prepare`.  The secant pairs the previous solves
        learned are kept (:meth:`~repro.dft.mixing.PulayMixer.begin_step`)
        unless a domain went cold this step — then the electronic problem
        is not the one they describe and the mixer starts fresh, exactly
        as a single point's does.
        """
        if self._mixer is None:
            self._mixer = PulayMixer()
        if self.cold_domains:
            self._mixer.reset("cold_domain")
        else:
            self._mixer.begin_step()
        return self._mixer

    # -- per-step state ------------------------------------------------------

    def prepare(
        self, config: Configuration, options: LDCOptions
    ) -> tuple[RealSpaceGrid, DomainDecomposition, list[DomainState]]:
        """Bin atoms into the cached decomposition and build the per-domain
        solver states of one solve.

        The structural pieces — grid, decomposition, supports, one basis
        per shape class, each domain's scratch pool — come from the cache;
        the atom-dependent nonlocal projectors are rebuilt.  ψ, v_bc and
        ρ_α are the ASPC prediction over the domain's history window
        (depth 1 = the previous step's converged state verbatim; without
        v_bc and ρ_α the damped v_bc iteration would re-converge from
        scratch) while its identity ``(npw, nband, atoms)`` is unchanged,
        else ψ is a deterministic random start.
        """
        from repro.core.ldc import DomainState

        self._ensure_structures(config, options)
        decomp = self.decomposition
        assert self.grid is not None
        assert decomp is not None and self.pou is not None
        self.warm_domains = 0
        self.cold_domains = 0
        states: list[DomainState] = []
        for idom, (dom, w) in enumerate(zip(decomp.domains, self.pou)):
            idx, local = decomp.atoms_in_domain(config, dom)
            if len(idx) == 0:
                states.append(
                    DomainState(dom, idx, local, None, None, w, nband=0)
                )
                continue
            # one basis per shape class: nothing in it depends on where
            # the grid sits, and all domains are solved on one thread
            shape_class = (
                dom.grid.shape, tuple(dom.grid.lengths.tolist()), options.ecut
            )
            basis = self._bases.get(shape_class)
            if basis is None:
                basis = PlaneWaveBasis(dom.grid, options.ecut)
                self._bases[shape_class] = basis
            vnl = NonlocalProjectors(basis, local)
            ne_local = local.n_electrons()
            nband = min(
                int(np.ceil(ne_local / 2.0)) + options.extra_bands, basis.npw
            )
            predicted = self._window(idom).predict(
                _domain_key(idx, basis.npw, nband)
            )
            if predicted is None:
                predicted = basis.random_orbitals(
                    nband, seed=ORBITAL_SEED + 131 * idom
                ), None, None
                self.cold_domains += 1
            else:
                self.warm_domains += 1
            psi, vbc, rho_local = predicted
            states.append(
                DomainState(
                    dom, idx, local, basis, vnl, w, nband=nband, psi=psi,
                    vbc=vbc, rho_local=rho_local,
                    scratch=self._scratch.setdefault(idom, DomainScratch()),
                )
            )
        self.steps += 1
        return self.grid, decomp, states

    def _window(self, idom: int) -> DomainHistory:
        """Domain ``idom``'s ASPC window at the current ``history_depth``
        (made on first use; resized, not cleared, when the depth moved)."""
        hist = self._history.get(idom)
        if hist is None:
            hist = self._history[idom] = DomainHistory(self.history_depth)
        elif hist.depth != self.history_depth:
            hist.resize(self.history_depth)
        return hist

    def store(self, states: list[DomainState]) -> None:
        """Push each domain's converged solver state (ψ, v_bc, ρ_α) onto
        its ASPC window for the next step's warm start.

        Also sets :attr:`predictor_residual`: the mean of the residuals
        the windows settle — the gauge-invariant distance between the ψ
        each predicted for *this* step and the block that converged, the
        per-step predictor-quality number the run ledger tracks.
        """
        residuals: list[float] = []
        live = set()
        for idom, state in enumerate(states):
            if not state.nband or state.psi is None or state.basis is None:
                continue
            live.add(idom)
            key = _domain_key(
                state.atom_indices, state.basis.npw, state.nband
            )
            res = self._window(idom).push(
                key, state.psi, state.vbc, state.rho_local
            )
            if res is not None:
                residuals.append(res)
        for idom in list(self._history):
            if idom not in live:
                del self._history[idom]
        self.predictor_residual = (
            float(np.mean(residuals)) if residuals else None
        )
