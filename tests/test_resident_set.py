"""The memory budget of an LDC step: one stack's working set plus O(N) state.

The paper's "lean" divide-and-conquer is an O(N) claim about memory as much
as about time.  Pinned here, on one warm Li₄Al₄ 2×2×1 trajectory per stack
width (module-scoped, a few seconds):

* what a warm step allocates *above* its live set (``tracemalloc`` peak of
  the step) stays under a stated budget — no complex field array per
  domain or per stack, anywhere;
* same-shape domains hold one ``PlaneWaveBasis`` object, and a workspace
  reset or a buffer change builds a new one rather than reusing a stale one;
* what the workspace keeps alive (``LDCWorkspace.resident_bytes``) grows
  with the domain count only in the per-domain parts (``scratch``,
  ``windows``), not in the pools (``bases``, ``stack_pool``), and the
  stack pool is the largest stack's working set whatever the number of
  shape classes, with no arena of ``nband × grid`` complex size in it,
  and the global half's geometry-only tables (``global``) are a few KB of
  Ewald structure on the FFT path;
* ``ldc.workspace_bytes{part=}`` reports it, evaluated only when observed.
"""

import gc
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.core import LDCOptions, LDCWorkspace, run_ldc
from repro.core.workspace import RESIDENT_PARTS
from repro.observability import Instrumentation
from repro.observe import OFF
from repro.systems.configuration import Configuration
from repro.systems.lialloy import lial_nanoparticle

CELL = np.array([13.0, 13.0, 9.0])
LIAL = dict(
    ecut=3.0, buffer=2.0, tol=1e-5, max_iter=40, kt=0.02, extra_bands=4,
    history_depth=2,
)
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
    ws = LDCWorkspace()
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
    ws = LDCWorkspace()
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
    the per-domain state (``scratch``: band densities, restricted fields,
    gather indices; ``windows``: the ASPC snapshots) and leaves the pools
    alone: one basis, and at stack width 1 one stack's working set."""
    options, ws, result, _ = warm
    small = ws.resident_bytes()
    assert tuple(small) == RESIDENT_PARTS and all(small.values())
    big_ws, big, _ = trajectory(replace(options, domains=(4, 2, 1)), tiles=2)
    assert [s.domain.grid.shape for s in big.states] == (
        2 * [s.domain.grid.shape for s in result.states]
    )
    large = big_ws.resident_bytes()
    assert large["bases"] == small["bases"]
    assert large["scratch"] == 2 * small["scratch"]
    assert large["windows"] == 2 * small["windows"]
    assert large["mixer"] <= 2.5 * small["mixer"]  # global-grid vectors
    # what the pool holds once whatever the stack: a v_bc target and a
    # buffer window of one domain
    once = 2 * 8 * result.states[0].domain.grid.npoints
    if options.batch_domains:  # the stack is the shape class: 8 wide
        assert large["stack_pool"] - once == 2 * (small["stack_pool"] - once)
    else:
        assert large["stack_pool"] == small["stack_pool"]
    # the parts: one transform pool + maps; band densities dominate scratch
    state = result.states[0]
    densities = state.nband * state.domain.grid.npoints * 8
    assert small["scratch"] >= len(result.states) * densities
    assert small["bases"] < 3 * MB
    # Ewald image shifts and G vectors; no multigrid levels on the FFT path
    assert small["global"] < 0.05 * MB


@pytest.mark.parametrize("wide", [False, True], ids=["width1", "widthn"])
def test_stack_pool_is_the_largest_stack_not_the_sum_over_shape_classes(wide):
    """The pool's arenas are sized by the largest stack and every shape
    class takes views of them: the 4×2×1 cell with one Al less — three
    shape classes, the same six-domain widest one — holds exactly the
    bytes of the two-class cell, at both stack widths."""
    options = LDCOptions(**dict(LIAL, max_iter=2), domains=(4, 2, 1),
                         batch_domains=wide)
    two = frame(0, tiles=2)
    three = Configuration(
        list(two.symbols[:-1]), two.positions[:-1], two.cell
    )
    pools = {}
    for name, config in (("two", two), ("three", three)):
        ws = LDCWorkspace()
        result = run_ldc(config, options, workspace=ws)
        classes = Counter(
            (s.basis.npw, s.nband, s.vnl.nproj) for s in result.states
        )
        pools[name] = (classes, ws.resident_bytes()["stack_pool"], ws)
    (two_classes, two_bytes, _), (three_classes, three_bytes, ws) = (
        pools["two"], pools["three"]
    )
    assert len(two_classes) == 2 and len(three_classes) == 3
    widest = max(two_classes, key=two_classes.get)
    assert two_classes[widest] == three_classes[widest] == 6
    assert three_bytes == two_bytes
    # one arena per role, none per class
    assert set(ws.batch_pool._bufs) == {
        "v_eff", "b", "d", "work", "vbc_target", "boundary_window"
    }


#: ``stack_pool`` bytes after six steps of the e2e drift (16³ Bohr cell,
#: ASPC depth 3), by stack width: 0.98 and 2.50 MB measured — 2.5 and 7.05
#: while the pool also held a complex ``(width, nband, *grid)`` field block.
DRIFT_POOL_MB = {False: 1.1, True: 2.7}


@pytest.mark.parametrize("wide", [False, True], ids=["width1", "width3"])
def test_stack_pool_holds_no_field_block(wide):
    """|ψ|² is formed in the basis' row-block work buffer, so the seam
    pools nothing of ``nband × grid`` complex size: its largest arena is
    the solver's coefficient-side workspace, and every other one is
    smaller than one domain's field block."""
    options = LDCOptions(**dict(LIAL, history_depth=3), domains=(2, 2, 1),
                         batch_domains=wide)
    base = lial_nanoparticle(4, cell=[16.0, 16.0, 16.0])
    direction = np.random.default_rng(7).standard_normal(base.positions.shape)
    direction /= np.linalg.norm(direction)
    ws = LDCWorkspace()
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
    arenas = {name: buf.nbytes for name, buf in ws.batch_pool._bufs.items()}
    assert max(arenas, key=arenas.get) == "work"
    del arenas["work"]
    assert max(arenas.values()) < field_block
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
