"""The memory budget of an LDC step: one stack's working set plus O(N) state.

The paper's "lean" divide-and-conquer is an O(N) claim about memory as much
as about time.  Pinned here, on one warm Li₄Al₄ 2×2×1 trajectory per stack
width (module-scoped, a few seconds):

* what a warm step allocates *above* its live set (``tracemalloc`` peak of
  the step) stays under a stated budget — no complex field array per
  domain or per stack, anywhere;
* same-shape domains hold one ``PlaneWaveBasis`` object and one
  read-only support, and a workspace reset or a buffer change builds a
  new basis rather than reusing a stale one;
* an ASPC window releases the snapshot its prediction read, so no
  carried array exists ``depth + 1`` times during a solve, and no domain
  holds a pool: the restricted density lives once, in the stack pool;
* the stack pool is one arena in two phases per SCF pass — each stack's
  solve set, then every domain's band densities laid over the same
  bytes — so it is the larger of the largest stack's solve set and the
  densities, whatever the number of shape classes, with no view of
  ``nband × grid`` complex size in it;
* what the workspace keeps alive (``LDCWorkspace.resident_bytes``) grows
  with the domain count only in the per-domain parts (``windows``, the
  pool's densities phase), not in ``bases``; it is below the two-pool
  layout's total at both stack widths, and the global half's
  geometry-only tables (``global``) are a few KB of Ewald structure on
  the FFT path;
* ``ldc.workspace_bytes{part=}`` reports it, evaluated only when observed;
* the global ``run_scf`` map holds no per-band ``(nband, *grid)`` array:
  it finds μ first and accumulates Σ f|ψ|² band by band.
"""

import copy
import dataclasses
import gc
import math
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import repro.core.batched as batched_module
import repro.core.ldc as ldc_module
from repro.core import LDCOptions, LDCWorkspace, run_ldc
from repro.core.batched import group_shape_classes
from repro.core.ldc import DomainState
from repro.core.workspace import ALIGN, RESIDENT_PARTS, DomainScratch
from repro.dft.eigensolver import lobpcg_work_shape
from repro.dft.scf import SCFOptions, run_scf
from repro.observability import Instrumentation
from repro.observe import OFF
from repro.systems.configuration import Configuration
from repro.systems.lialloy import lial_nanoparticle
from repro.systems.water import water_molecule

CELL = np.array([13.0, 13.0, 9.0])
LIAL = dict(
    ecut=3.0, buffer=2.0, tol=1e-5, max_iter=40, kt=0.02, extra_bands=4,
)
#: ASPC depth of the LiAl trajectories' domain windows
DEPTH = 2
MB = 1e6
#: What a warm 2×2×1 step may allocate above its live set: 1.15 × the 1.81
#: and 1.88 MB measured at stack width 1 and 4 (the step's own state and
#: the real global fields of a pass; the lockstep solver iterates in the
#: pool's workspace, the global layers in half-grid spectra and blocks).
#: It was 2.2 MB while the local potential, its forces and XC went through
#: full complex grids, 2.6 while `hartree_potential` did too, 3.5 and 4.8
#: while every iteration allocated its coefficient-side blocks, 6.2 and
#: 7.4 while every domain's solve also returned a complex field array.
STEP_BUDGET_MB = {False: 2.08, True: 2.16}


def frame(k: int, tiles: int = 1) -> Configuration:
    """Li₄Al₄ drifting along x; ``tiles`` copies side by side along x in a
    cell ``tiles`` times as long (the same atoms in every pair of domain
    columns)."""
    base = lial_nanoparticle(4, cell=CELL)
    base.positions[:, 0] += 0.02 * k * np.arange(len(base.symbols))
    positions = np.concatenate(
        [base.positions + [t * CELL[0], 0.0, 0.0] for t in range(tiles)]
    )
    return Configuration(
        list(base.symbols) * tiles, positions, CELL * [tiles, 1, 1]
    )


def trajectory(options: LDCOptions, tiles: int = 1, steps: int = 3, ins=None):
    """``steps`` workspace steps; the last one's traced allocation peak."""
    ws = LDCWorkspace(history_depth=DEPTH)
    rho = None
    peak = 0
    for k in range(steps):
        if k == steps - 1:
            gc.collect()
            tracemalloc.start()
        try:
            result = run_ldc(frame(k, tiles), options, workspace=ws,
                             rho0=rho, instrumentation=ins)
            if k == steps - 1:
                peak = tracemalloc.get_traced_memory()[1]
        finally:
            if k == steps - 1:
                tracemalloc.stop()
        rho = result.input_density
    return ws, result, peak


#: names of one stack's solve-phase views: the stacked potential and
#: projectors, the solver's workspace, one domain's restriction buffers
SOLVE_SET = {
    "v_eff", "b", "d", "work", "flat_indices", "rho_restricted",
    "vbc_target", "boundary_window",
}
#: ``resident_bytes()`` summed over the parts after the warm fixture's
#: three steps while band densities sat in a ``DomainScratch`` per domain
#: beside the stack pool (width 1: scratch 1.59 MB + stack pool 0.47 MB;
#: width 4: 1.59 + 1.12)
TWO_POOL_RESIDENT_BYTES = {False: 5_891_976, True: 6_614_584}


def stacks(result, options: LDCOptions) -> list[list[DomainState]]:
    """The stacks ``batched_domain_pass`` solves the result's domains in."""
    active = [s for s in result.states if s.nband]
    if not options.batch_domains:
        return [[s] for s in active]
    return [[active[p] for p in cls.members]
            for cls in group_shape_classes(active)]


def solve_set_bytes(stack: list[DomainState]) -> int:
    """What one stack's solve phase requests: the ``(n, *grid)`` v_eff,
    one domain's gather indices, restricted density, v_bc target and
    buffer window, the projector stacks and the LOBPCG workspace."""
    first, n = stack[0], len(stack)
    npoints, npw, nproj = (
        first.domain.grid.npoints, first.basis.npw, first.vnl.nproj
    )
    work = 16 * math.prod(lobpcg_work_shape(n, npw, first.nband))
    projectors = n * nproj * (16 * npw + 8)
    return 8 * n * npoints + 4 * 8 * npoints + projectors + work


def densities_bytes(result) -> int:
    """Σ_α nband_α · npoints_α · 8: every domain's real per-band |ψ|²."""
    return sum(8 * s.nband * s.domain.grid.npoints for s in result.states)


def assert_arena(pool_bytes: int, result, options: LDCOptions) -> None:
    """The arena is, up to one alignment pad per view, the larger of the
    largest stack's solve set and the band densities."""
    solve = max(solve_set_bytes(stack) for stack in stacks(result, options))
    dens = densities_bytes(result)
    nactive = sum(1 for s in result.states if s.nband)
    low = max(solve, dens)
    high = max(solve + ALIGN * len(SOLVE_SET), dens + ALIGN * nactive)
    assert low <= pool_bytes < high


@pytest.fixture()
def phases(monkeypatch):
    """Every stack-pool phase ended during the test, in order, as
    ``(name -> bytes, high-water byte offset)``; :func:`ended` adds the
    phase still open."""
    seen: list[tuple[dict, int]] = []
    begin = DomainScratch.begin

    def spy(self):
        if self._spans:
            seen.append(ended(self))
        begin(self)

    monkeypatch.setattr(DomainScratch, "begin", spy)
    return seen


def ended(pool: DomainScratch) -> tuple[dict, int]:
    return (
        {name: stop - start for name, (start, stop) in pool._spans.items()},
        pool._end,
    )


@pytest.fixture(scope="module", params=[False, True], ids=["width1", "width4"])
def warm(request):
    options = LDCOptions(**LIAL, domains=(2, 2, 1),
                         batch_domains=request.param)
    ws, result, peak = trajectory(options)
    assert ws.cold_domains == 0 and ws.warm_domains == len(result.states)
    return options, ws, result, peak


def test_warm_step_allocates_one_stacks_working_set(warm):
    options, ws, result, peak = warm
    assert peak / MB <= STEP_BUDGET_MB[options.batch_domains]


def test_same_shape_domains_share_one_basis(warm):
    options, ws, result, _ = warm
    bases = {id(state.basis) for state in result.states}
    assert len(bases) == 1 == len(ws._bases)
    basis = result.states[0].basis
    for state in result.states:
        # the shared object describes every member's own grid
        assert state.domain.grid.shape == basis.grid.shape
        assert np.array_equal(state.domain.grid.lengths, basis.grid.lengths)
    # the cold, workspace-less path shares it the same way
    cold = run_ldc(frame(0), replace(options, max_iter=2))
    assert len({id(state.basis) for state in cold.states}) == 1
    assert cold.states[0].basis is not basis


def test_reset_and_buffer_change_drop_the_shared_basis():
    """A stale basis must never outlive the decomposition it was built
    for: ``reset()`` empties the cache, and a buffer change (what the
    adaptive controller does mid-run) rebuilds it on the new domain grid."""
    options = LDCOptions(**dict(LIAL, max_iter=2), domains=(2, 2, 1))
    ws = LDCWorkspace(history_depth=DEPTH)
    first = run_ldc(frame(0), options, workspace=ws).states[0].basis
    assert first.grid.shape == (20, 20, 16)
    wider = run_ldc(
        frame(1), replace(options, buffer=3.0), workspace=ws
    ).states[0].basis
    assert wider is not first and list(ws._bases.values()) == [wider]
    assert wider.grid.shape == (24, 24, 16) and wider.npw > first.npw
    assert ws.cold_domains == 4  # the rebuild restarted every domain
    ws.reset()
    assert not ws._bases and sum(ws.resident_bytes().values()) == 0
    again = run_ldc(frame(1), options, workspace=ws).states[0].basis
    assert again is not first
    assert np.array_equal(again.indices, first.indices)


def test_resident_bytes_grow_with_domains_only_in_the_per_domain_parts(warm):
    """Twice the domains at the same domain shape — the 4×2×1 cell that
    tiles the 2×2×1 one, the same atoms in every domain column — doubles
    the per-domain state (``windows``: the ASPC snapshots; the stack
    pool's densities phase, which outgrows the widest stack's solve set
    at both sizes) and leaves ``bases`` alone: one basis and one
    support."""
    options, ws, result, _ = warm
    small = ws.resident_bytes()
    assert tuple(small) == RESIDENT_PARTS and all(small.values())
    assert sum(small.values()) < TWO_POOL_RESIDENT_BYTES[
        options.batch_domains
    ]
    big_ws, big, _ = trajectory(replace(options, domains=(4, 2, 1)), tiles=2)
    assert [s.domain.grid.shape for s in big.states] == (
        2 * [s.domain.grid.shape for s in result.states]
    )
    large = big_ws.resident_bytes()
    assert large["bases"] == small["bases"]
    assert large["windows"] == 2 * small["windows"]
    assert large["mixer"] <= 2.5 * small["mixer"]  # global-grid vectors
    for held, res in ((small, result), (large, big)):
        assert_arena(held["stack_pool"], res, options)
        widest = max(solve_set_bytes(st) for st in stacks(res, options))
        assert densities_bytes(res) > widest
    assert large["stack_pool"] == 2 * small["stack_pool"]
    assert small["bases"] < 3 * MB
    # Ewald image shifts and G vectors; no multigrid levels on the FFT path
    assert small["global"] < 0.05 * MB


def test_windows_hold_depth_minus_one_snapshots_during_a_solve(
    warm, monkeypatch
):
    """The prediction releases the snapshot only it read: while a warm
    step's domains are solved each window holds ``DEPTH − 1`` snapshots
    (the live state is the ``DEPTH``-th), and ``DEPTH`` again once
    ``store`` has pushed the converged state."""
    options, ws, result, _ = warm
    ws = copy.deepcopy(ws)
    during = []
    seam = ldc_module.batched_domain_pass

    def spy(*args, **kwargs):
        during.append([len(h) for h in ws._history.values()])
        return seam(*args, **kwargs)

    monkeypatch.setattr(ldc_module, "batched_domain_pass", spy)
    run_ldc(frame(3), options, workspace=ws, rho0=result.input_density)
    ndomains = len(result.states)
    assert ws.warm_domains == ndomains
    assert len(during) >= 2
    assert all(lengths == [DEPTH - 1] * ndomains for lengths in during)
    assert [len(h) for h in ws._history.values()] == [DEPTH] * ndomains


def test_same_shape_domains_share_one_read_only_support(warm):
    """Equal partition weights are one array, counted once in ``bases``;
    writing through any domain's handle raises."""
    options, ws, result, _ = warm
    support = result.states[0].support
    assert all(state.support is support for state in result.states)
    assert all(w is support for w in ws.pou)
    with pytest.raises(ValueError, match="read-only"):
        result.states[-1].support *= 2.0
    bare = copy.copy(ws)
    bare.pou = None
    counted = ws.resident_bytes()["bases"] - bare.resident_bytes()["bases"]
    assert counted == support.nbytes


def test_no_domain_scratch_holds_a_restricted_density(warm):
    """No domain holds a pool: the restricted density, like every other
    intermediate of a domain's restriction, is a solve-phase view of the
    stack pool, and the band densities are gone once consumed.  The pool
    is the workspace's only one."""
    options, ws, result, _ = warm
    assert "scratch" not in {f.name for f in dataclasses.fields(DomainState)}
    for state in result.states:
        assert not any(
            isinstance(value, DomainScratch) for value in vars(state).values()
        )
        assert state.band_densities is None
    pools = [v for v in vars(ws).values() if isinstance(v, DomainScratch)]
    assert pools == [ws.batch_pool]
    assert ws.scratch_allocations() == ws.batch_pool.allocations > 0


def test_band_densities_are_laid_over_the_solve_phase(warm, monkeypatch):
    """Between the seam and the density assembly every domain's band
    densities are views of the pool's one arena, disjoint from each other
    and over the bytes the solves used: every stack's ``work`` shares
    memory with a live block."""
    options, ws, result, _ = warm
    ws = copy.deepcopy(ws)
    works: list[np.ndarray] = []
    live: list[tuple[list[np.ndarray], list[np.ndarray]]] = []
    solve, seam = batched_module.solve_all_band_batched, (
        ldc_module.batched_domain_pass
    )

    def solve_spy(*args, work, **kwargs):
        works.append(work)
        return solve(*args, work=work, **kwargs)

    def seam_spy(active, *args, **kwargs):
        works.clear()
        outcomes = seam(active, *args, **kwargs)
        live.append(([s.band_densities for _, s in active], list(works)))
        return outcomes

    monkeypatch.setattr(batched_module, "solve_all_band_batched", solve_spy)
    monkeypatch.setattr(ldc_module, "batched_domain_pass", seam_spy)
    allocations = ws.scratch_allocations()
    run_ldc(frame(3), options, workspace=ws, rho0=result.input_density)
    assert ws.scratch_allocations() == allocations
    arena = ws.batch_pool._arena
    assert len(live) >= 2
    for blocks, solved in live:
        assert len(blocks) == len(result.states) and solved
        assert all(np.shares_memory(block, arena) for block in blocks)
        for i, block in enumerate(blocks):
            assert not any(np.shares_memory(block, other)
                           for other in blocks[i + 1:])
        for work in solved:
            assert np.shares_memory(work, arena)
            assert any(np.shares_memory(block, work) for block in blocks)


@pytest.mark.parametrize("wide", [False, True], ids=["width1", "widthn"])
def test_stack_pool_is_the_largest_stack_not_the_sum_over_shape_classes(
    wide, phases
):
    """Every stack's solve phase is laid from offset 0 over the same
    arena: the 4×2×1 cell with one Al less — three shape classes, the
    same six-domain widest one — has exactly the two-class cell's largest
    solve phase, at both stack widths.  Each phase holds its own views
    only (one per role in a solve phase, one block per domain in the
    densities phase), and the arena is its largest phase, byte for
    byte."""
    options = LDCOptions(**dict(LIAL, max_iter=2), domains=(4, 2, 1),
                         batch_domains=wide)
    two = frame(0, tiles=2)
    three = Configuration(
        list(two.symbols[:-1]), two.positions[:-1], two.cell
    )
    largest_solve = {}
    for name, config in (("two", two), ("three", three)):
        phases.clear()
        ws = LDCWorkspace(history_depth=DEPTH)
        result = run_ldc(config, options, workspace=ws)
        seen = phases + [ended(ws.batch_pool)]
        classes = Counter(
            (s.basis.npw, s.nband, s.vnl.nproj) for s in result.states
        )
        expected = [solve_set_bytes(st) for st in stacks(result, options)]
        expected.append(densities_bytes(result))
        # the loop's passes and the final consistent one
        assert len(seen) == (result.iterations + 1) * len(expected)
        for k, (views, end) in enumerate(seen):
            if k % len(expected) < len(expected) - 1:
                assert set(views) == SOLVE_SET
            else:
                assert set(views) == {
                    ("band_densities", i) for i in range(len(result.states))
                }
            assert 0 <= end - expected[k % len(expected)] < ALIGN * len(views)
        assert ws.batch_pool._arena.nbytes == max(end for _, end in seen)
        assert_arena(ws.resident_bytes()["stack_pool"], result, options)
        largest_solve[name] = (
            classes, max(end for views, end in seen if "work" in views)
        )
    (two_classes, two_bytes), (three_classes, three_bytes) = (
        largest_solve["two"], largest_solve["three"]
    )
    assert len(two_classes) == 2 and len(three_classes) == 3
    widest = max(two_classes, key=two_classes.get)
    assert two_classes[widest] == three_classes[widest] == 6
    assert three_bytes == two_bytes


#: ``stack_pool`` bytes after six steps of the e2e drift (16³ Bohr cell,
#: ASPC depth 3), by stack width: 2.93 MB measured at both, the densities
#: phase — 0.98 and 2.50 while the band densities sat in a per-domain
#: pool beside it (3.36 more), 2.5 and 7.05 while the pool also held a
#: complex ``(width, nband, *grid)`` field block.
DRIFT_POOL_MB = {False: 3.2, True: 3.2}


@pytest.mark.parametrize("wide", [False, True], ids=["width1", "width3"])
def test_stack_pool_holds_no_field_block(wide, phases):
    """|ψ|² is formed in the basis' row-block work buffer, so the seam
    pools nothing of ``nband × grid`` complex size: the largest view of
    every solve phase is the solver's coefficient-side workspace, and
    every other view of either phase — a band-density block included —
    is smaller than one domain's field block."""
    options = LDCOptions(**LIAL, domains=(2, 2, 1),
                         batch_domains=wide)
    base = lial_nanoparticle(4, cell=[16.0, 16.0, 16.0])
    direction = np.random.default_rng(7).standard_normal(base.positions.shape)
    direction /= np.linalg.norm(direction)
    ws = LDCWorkspace(history_depth=3)
    rho = None
    for k in range(6):
        config = base.copy()
        config.positions = base.positions + 0.04 * k * direction
        result = run_ldc(config, options, workspace=ws, rho0=rho)
        rho = result.input_density
    classes = Counter(
        (s.basis.npw, s.nband, s.vnl.nproj) for s in result.states
    )
    assert max(classes.values()) == 3
    field_block = min(
        16 * s.nband * s.domain.grid.npoints for s in result.states
    )
    seen = phases + [ended(ws.batch_pool)]
    assert any("work" not in views for views, _ in seen)
    for views, _ in seen:
        views = dict(views)
        if "work" in views:
            assert max(views, key=views.get) == "work"
            del views["work"]
        assert max(views.values()) < field_block
    assert_arena(ws.resident_bytes()["stack_pool"], result, options)
    assert ws.resident_bytes()["stack_pool"] / MB <= DRIFT_POOL_MB[wide]


def test_workspace_bytes_gauge_is_evaluated_only_when_observed(monkeypatch):
    options = LDCOptions(**dict(LIAL, max_iter=2), domains=(2, 2, 1))
    ins = Instrumentation()
    ws, _, _ = trajectory(options, steps=2, ins=ins)
    for part, held in ws.resident_bytes().items():
        gauge = ins.metrics.get("ldc.workspace_bytes", part=part)
        # set at ``ldc.workspace_prepare`` of the last step: the pools are
        # warm by then, the windows one snapshot short of the end state
        assert gauge is not None and 0 < gauge.value <= held
    monkeypatch.setattr(
        LDCWorkspace, "resident_bytes",
        lambda self: pytest.fail("telemetry-only value computed unobserved"),
    )
    trajectory(options, steps=1, ins=OFF)


# -- the global map ------------------------------------------------------------

#: One cold ``run_scf`` on H₂O in a 12 Bohr cell at the e2e water options
#: (27³ grid, 8 bands, 11 passes): its allocation peak above entry, 1.1 ×
#: the 6.77 MB measured — 9.03 while the map kept a ``(nband, *grid)``
#: per-band density buffer (1.26 MB), the basis a spare y-stage buffer
#: (0.46) and the grid its full G-vector and |G|² tables (0.47 + 0.16).
SCF_CALL_BUDGET_MB = 7.45


def test_global_map_holds_no_per_band_block():
    """Between any two profiled events of the call (so: no NumPy call, no
    stretch of Python between calls) nothing as large as one real
    ``(nband, *grid)`` block is allocated — the largest allocation is the
    LOBPCG workspace, 1.07 MB — and the call's peak stays in budget."""
    config = water_molecule(cell=(12.0, 12.0, 12.0))
    options = SCFOptions(ecut=5.0, tol=1e-6, kt=0.01)
    largest, top, entry = [0], [0], [0]

    def profile(frame, event, arg):
        peak = tracemalloc.get_traced_memory()[1]
        largest[0] = max(largest[0], peak - entry[0])
        top[0] = max(top[0], peak)
        tracemalloc.reset_peak()
        entry[0] = tracemalloc.get_traced_memory()[0]

    gc.collect()
    tracemalloc.start()
    base = entry[0] = tracemalloc.get_traced_memory()[0]
    sys.setprofile(profile)
    try:
        result = run_scf(config, options)
    finally:
        sys.setprofile(None)
        tracemalloc.stop()
    assert result.converged
    nband = result.orbitals.shape[1]
    assert result.grid.shape == (27, 27, 27) and nband == 8
    assert largest[0] < nband * result.grid.npoints * 8
    assert (top[0] - base) / MB <= SCF_CALL_BUDGET_MB
