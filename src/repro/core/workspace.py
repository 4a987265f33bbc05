"""Persistent LDC workspace: MD-step-invariant state, cached once per cell.

The paper's headline metric is QMD time-to-solution — atoms × SCF iterations
per second (Sec. 5.2/6).  Between MD steps the *cell* is fixed; only atom
positions move.  Everything derived purely from the cell and the solver
options is therefore invariant across steps:

* the global real-space grid,
* the domain decomposition (cores + buffers),
* the partition of unity p_α(r): one core indicator every domain holds
  (none on the whole cell),
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
zero would otherwise dominate the step-2 SCF count).  ρ_α is carried only
beside a v_bc — the v_bc target is its one warm-start reader — so a
``mode="dc"`` window holds ψ alone.  A domain whose
identity changed — atoms migrated across a boundary, the band count
moved — invalidates its window and falls back to the same deterministic
random start the cold path uses.  Orbital warm
starts are the dominant lever on MD throughput: the eigensolver starts
inside (depth 1) or ahead of (depth ≥ 2, extrapolated) the previous
step's converged subspace and typically needs a small fraction of the
cold iteration count (cf. DGDFT, arXiv:2003.00407; Scheiber et al.,
arXiv:1803.04536; Kolafa's ASPC).

One more window holds the **global density** each solve's ψ were solved
at (``LDCResult.input_density``): its prediction is the next solve's
starting density ρ₀.  A reset drops it with everything else, so a reset
is a cold start.

The workspace also owns the trajectory's **SCF quasi-Newton memory**: one
:class:`~repro.dft.mixing.PulayMixer` whose (Δρ, ΔR) secant pairs carry
from one MD step's density mixing into the next (:meth:`LDCWorkspace.scf_mixer`),
so a warm step does not relearn the SCF Jacobian from an undamped linear
step.  The pairs are dropped whenever the orbital warm start is — a reset
(cell, option-signature or grid change) or any domain going cold; a cold
solve's fresh mixer is the one a single point runs with.

A workspace is so the whole carried state of a trajectory.  Thread it
through :func:`repro.core.ldc.run_ldc` via ``workspace=``;
:class:`repro.md.qmd.LDCEngine` creates one automatically so ``QMDDriver``
trajectories get the reuse for free.
"""

from __future__ import annotations

import math
from collections.abc import Hashable
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.domains import DomainDecomposition
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


#: byte alignment of every view the stack pool lays into its arena
ALIGN = 64


class DomainScratch:
    """The domain-solve seam's stack pool: one byte arena, laid out anew by
    each phase of an SCF pass.

    :meth:`begin` starts a phase; ``get(name, shape, dtype)`` then returns
    a view named ``name`` — the same span of the arena for every request of
    the name until the next :meth:`begin`, the next free
    :data:`ALIGN`-aligned bytes for a new name.  Each phase lays its views
    from offset 0 over what the previous one held, so the arena is the
    largest phase seen, not the sum of them.  An SCF pass has two
    (:func:`repro.core.batched.batched_domain_pass`):

    * **solve**, once per stack — the stacked v_eff, the
      solver's iteration workspace, and one domain's gather indices,
      restricted density and v_bc target;
    * **densities**, once per pass — every active domain's real per-band
      |ψ_n|², formed after the last stack is solved and held until the
      global μ is known and the density assembled; the whole cell, whose
      band weights are 1, holds one |ψ_n|² buffer instead, for its
      density after μ.

    Stacks are solved one after another, so the solve phase is the largest
    stack's working set whatever the number of shape classes.  The arena
    grows to the largest phase; a steady-state pass performs **zero**
    allocations (the invariant the domain-batching benchmark pins with its
    tracemalloc check), and :attr:`allocations` counts every real one for
    exactly that assertion.  Contents are undefined between requests —
    every consumer overwrites before reading (``np.take(..., out=)`` /
    full-array ufunc ``out=`` writes), so ``np.empty`` suffices.
    """

    def __init__(self) -> None:
        self._arena: np.ndarray | None = None
        #: ``name -> (start, stop)`` byte offsets of the current phase
        self._spans: dict[Hashable, tuple[int, int]] = {}
        self._end = 0
        #: number of arena (re)allocations since construction
        self.allocations: int = 0

    def begin(self) -> None:
        """Start a phase: every view handed out so far is spent."""
        self._spans.clear()
        self._end = 0

    def _lay(self, name: Hashable, nbytes: int) -> int:
        """The start offset of ``name``'s span in the current phase, laid
        after the phase's last span if it has none as large."""
        span = self._spans.get(name)
        if span is None or span[1] - span[0] < nbytes:
            start = -(-self._end // ALIGN) * ALIGN
            span = self._spans[name] = (start, start + nbytes)
            self._end = span[1]
        return span[0]

    def get(
        self,
        name: Hashable,
        shape: tuple[int, ...],
        dtype: type | np.dtype = float,
    ) -> np.ndarray:
        """A C-contiguous ``shape``/``dtype`` view named ``name`` in the
        current phase."""
        shape = tuple(int(n) for n in shape)
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        start = self._lay(name, nbytes)
        if self._arena is None or self._arena.size < self._end:
            # views handed out before keep the old arena alive until they
            # are spent; a warm pass never gets here
            self._arena = np.empty(self._end, dtype=np.uint8)
            self.allocations += 1
        return self._arena[start:start + nbytes].view(dtype).reshape(shape)

    def views(
        self,
        requests: list[tuple[Hashable, tuple[int, ...]]],
        dtype: type | np.dtype = float,
    ) -> list[np.ndarray]:
        """:meth:`get` for every ``(name, shape)`` of ``requests``, laid
        out before the first view is taken: a phase that outgrows the
        arena grows it once, and no view holds a smaller arena alive beside
        the new one (grown block by block, the densities phase cost the
        cold multigrid e2e workload's throwaway workspaces 0.7 MB of
        ``peak_rss_mb``)."""
        itemsize = np.dtype(dtype).itemsize
        for name, shape in requests:
            self._lay(name, math.prod(shape) * itemsize)
        return [self.get(name, shape, dtype) for name, shape in requests]


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
    with them every window); ``poisson`` is among them because the whole
    cell's global grid depends on it (:func:`~repro.core.ldc.make_global_grid`).
    Other options (tolerances, ξ, the eigensolver) only steer the SCF loop
    and leave the cached geometry valid.
    """
    return (
        options.ecut,
        tuple(options.domains),
        options.buffer,
        options.extra_bands,
        options.poisson,
    )


#: the density window's key: its snapshots depend on the cell and the
#: global grid, and :meth:`LDCWorkspace.reset` clears it when either changes
_DENSITY_KEY = ()

#: the keys of :meth:`LDCWorkspace.resident_bytes`
RESIDENT_PARTS = (
    "bases", "stack_pool", "windows", "mixer", "global",
)


class LDCWorkspace:
    """Reusable LDC solver state for a trajectory in a fixed cell.

    Usage::

        ws = LDCWorkspace(history_depth=3)
        for config in trajectory:
            result = run_ldc(config, opts, workspace=ws)

    ``prepare`` detects cell / option changes and resets itself, so a single
    workspace can safely outlive a cell swap — it just pays one cold rebuild.
    ``history_depth`` is the ASPC depth of every window it keeps, fixed
    when it is built: 1 keeps the plain last-state warm start, K >= 2
    seeds each solve from the time-reversible K-point extrapolation of the
    converged ψ/v_bc/ρ_α and of the global density
    (:mod:`repro.md.extrapolate`).  One workspace per trajectory.
    """

    def __init__(self, history_depth: int = 1) -> None:
        self.history_depth = check_depth(
            history_depth, "LDCWorkspace.history_depth"
        )
        self._cell: np.ndarray | None = None
        self._signature: tuple | None = None
        self.grid: RealSpaceGrid | None = None
        self.decomposition: DomainDecomposition | None = None
        #: partition weights by domain, one read-only array; the whole
        #: cell holds none
        self.pou: list[np.ndarray] | None = None
        #: whether the one domain is the whole cell (weight identically 1,
        #: the global grid): flagged with the supports, read by the seam
        self.whole_cell: bool = False
        #: one basis per shape class ``(grid shape, lengths, cutoff)``
        self._bases: dict[tuple, PlaneWaveBasis] = {}
        #: bounded per-domain ASPC windows of converged (ψ, v_bc, ρ_α)
        #: snapshots (:class:`~repro.md.extrapolate.DomainHistory`), keyed
        #: by domain index; filled by :meth:`store`, consumed by
        #: :meth:`prepare`
        self._history: dict[int, DomainHistory] = {}
        #: the ASPC window of the global densities the ψ were solved at;
        #: one key, since the cell and the grid change only at a reset
        self._density = DomainHistory(self.history_depth)
        #: whether the last :meth:`prepare` predicted the starting density
        self.warm_density: bool = False
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
        #: the domain-solve seam's stack pool (``repro.core.batched``):
        #: each stack's solve set, then every domain's band densities
        self.batch_pool: DomainScratch = DomainScratch()
        #: per-``prepare`` stats: domains seeded from cached orbitals vs
        #: random (fresh build, or band count changed after atom migration)
        self.warm_domains: int = 0
        self.cold_domains: int = 0
        #: number of ``prepare`` calls since the last reset
        self.steps: int = 0

    # -- cache lifecycle -----------------------------------------------------

    def reset(self) -> None:
        """Drop everything (structures, every window, stack pool): the
        next solve is a cold start."""
        self._cell = None
        self._signature = None
        self.grid = None
        self.decomposition = None
        self.pou = None
        self.whole_cell = False
        self._bases.clear()
        self._history.clear()
        self._density.clear()
        self.predictor_residual = None
        self._ewald = None
        self._poisson = None
        if self._mixer is not None:
            self._mixer.reset("reset")
        self.batch_pool = DomainScratch()
        self.warm_domains = 0
        self.cold_domains = 0
        self.steps = 0

    def scratch_allocations(self) -> int:
        """Arena allocations of the stack pool.

        Flat across warm SCF passes — the domain-batching benchmark asserts
        the delta over a warm trajectory step is zero.
        """
        return self.batch_pool.allocations

    def resident_bytes(self) -> dict[str, int]:
        """Bytes kept alive between MD steps, by part: ``bases`` (one
        plane-wave basis per domain shape, the one core indicator)
        does not grow with the domain count,
        ``stack_pool`` is the larger of the widest stack's solve set and
        every domain's band densities (the whole cell: its solve set),
        ``windows`` the ASPC
        state (every domain's, the density's), ``mixer`` the carried SCF
        memory, ``global`` the geometry-only tables of the global half (Ewald structure,
        multigrid levels).  An array counts once, in the first part that
        reaches it."""
        levels = self._poisson.levels if self._poisson is not None else None
        parts = ((self._bases, self.pou), self.batch_pool,
                 (self._history, self._density), self._mixer,
                 (self._ewald, levels))
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
        # one domain: Σ_α p_α = 1 makes its weight 1 on the whole grid,
        # which nothing reads, so the whole cell holds none
        self.whole_cell = self.decomposition.ndomains == 1
        self.pou = [] if self.whole_cell else supports(self.decomposition)

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
    ) -> tuple[
        RealSpaceGrid, DomainDecomposition, list[DomainState],
        np.ndarray | None,
    ]:
        """Bin atoms into the cached decomposition and build the per-domain
        solver states of one solve, and predict its starting density.

        The structural pieces — grid, decomposition, supports, one basis
        per shape class — come from the cache;
        the atom-dependent nonlocal projectors are rebuilt.  ψ, v_bc and
        ρ_α are the ASPC prediction over the domain's history window
        (depth 1 = the previous step's converged state verbatim; without
        v_bc and ρ_α the damped v_bc iteration would re-converge from
        scratch) while its identity ``(npw, nband, atoms)`` is unchanged,
        else ψ is a deterministic random start.  ρ₀ is the prediction
        over the density window, or ``None`` (``initial_density``): hand it
        to the loop without keeping a reference.
        """
        from repro.core.ldc import DomainState

        self._ensure_structures(config, options)
        decomp = self.decomposition
        assert self.grid is not None
        assert decomp is not None and self.pou is not None
        self.warm_domains = 0
        self.cold_domains = 0
        states: list[DomainState] = []
        for idom, dom in enumerate(decomp.domains):
            w = None if self.whole_cell else self.pou[idom]
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
            window = self._history.setdefault(
                idom, DomainHistory(self.history_depth)
            )
            predicted = window.predict(_domain_key(idx, basis.npw, nband))
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
                    vbc=vbc, rho_local=rho_local, whole_cell=self.whole_cell,
                )
            )
        predicted = self._density.predict(_DENSITY_KEY)
        self.warm_density = predicted is not None
        self.steps += 1
        rho0 = None if predicted is None else predicted[2]
        return self.grid, decomp, states, rho0

    def store(
        self, states: list[DomainState], input_density: np.ndarray
    ) -> None:
        """Push each domain's converged solver state (ψ, v_bc, ρ_α) onto
        its ASPC window for the next step's warm start; ρ_α only together
        with a v_bc, whose target is the one warm-start reader of it (a
        ``mode="dc"`` window holds ``(ψ, None, None)``) — and
        ``input_density``, the density they were solved at, onto the
        density window: never the raw output, whose error the SCF
        response amplifies (DESIGN.md §17).

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
            rho_local = state.rho_local if state.vbc is not None else None
            res = self._history[idom].push(key, state.psi, state.vbc, rho_local)
            if res is not None:
                residuals.append(res)
        for idom in list(self._history):
            if idom not in live:
                del self._history[idom]
        self.predictor_residual = (
            float(np.mean(residuals)) if residuals else None
        )
        self._density.push(_DENSITY_KEY, None, None, input_density)
