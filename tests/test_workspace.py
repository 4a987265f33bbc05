"""Tests for the QMD hot path: LDCWorkspace reuse, orbital warm starts,
and the stale-shape warm-start guards on both MD engines."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import LDCOptions, LDCWorkspace, run_ldc
from repro.core.workspace import ALIGN, DomainScratch
from repro.dft.scf import SCFOptions
from repro.md.qmd import LDCEngine, QMDOptions, SCFEngine
from repro.observability import Instrumentation
from repro.systems.configuration import Configuration
from tests.builders import span_count

OPTS = dict(ecut=4.0, domains=(2, 1, 1), buffer=2.0, tol=1e-6, max_iter=30)
#: the MD acceleration on: an ASPC window of three
DEPTH3 = QMDOptions(history_depth=3)


def h4_chain(shift: float = 0.0) -> Configuration:
    """Four H atoms, two per (2,1,1) domain; ``shift`` moves the third atom
    along x (large shifts migrate it across the domain boundary)."""
    return Configuration(
        symbols=["H", "H", "H", "H"],
        positions=np.array(
            [
                [2.0, 2.5, 2.5],
                [3.5, 2.5, 2.5],
                [6.0 + shift, 2.5, 2.5],
                [7.5, 2.5, 2.5],
            ]
        ),
        cell=np.array([10.0, 5.0, 5.0]),
    )


def test_batched_workspace_migration_band_count_change():
    """Mid-trajectory atom migration changes both domains' band counts —
    the batched path must regroup its shape classes, fall back to cold
    seeds deterministically, and land on the fresh-run answer."""
    opts = LDCOptions(**OPTS, batch_domains=True)
    ws = LDCWorkspace()
    run_ldc(h4_chain(), opts, workspace=ws)
    assert any(len(h) for h in ws._history.values())
    moved = h4_chain(shift=1.2)
    migrated = run_ldc(moved, opts, workspace=ws)
    assert ws.cold_domains >= 1, "band-count change must trigger cold seed"
    # deterministic cold fallback: the same migration from a fresh
    # workspace reproduces the exact same energy (seeded per-domain RNG)
    ws2 = LDCWorkspace()
    run_ldc(h4_chain(), opts, workspace=ws2)
    migrated2 = run_ldc(moved, opts, workspace=ws2)
    assert migrated.energy == migrated2.energy
    fresh = run_ldc(moved, LDCOptions(**OPTS))
    assert migrated.converged and fresh.converged
    assert migrated.energy == pytest.approx(fresh.energy, abs=1e-5)
    assert sorted(s.nband for s in migrated.states) == sorted(
        s.nband for s in fresh.states
    )


def test_batched_warm_pass_reuses_scratch_buffers():
    """After the first SCF pass the batched path runs out of pooled
    scratch — the allocation counter must not grow across a warm re-run
    on unchanged shapes."""
    opts = LDCOptions(**OPTS, batch_domains=True)
    ws = LDCWorkspace()
    run_ldc(h4_chain(), opts, workspace=ws)
    after_cold = ws.scratch_allocations()
    assert after_cold > 0
    run_ldc(h4_chain(), opts, workspace=ws)
    assert ws.scratch_allocations() == after_cold


def test_stack_pool_phases_share_one_arena():
    """Within a phase a name keeps its span and a new name takes the next
    aligned bytes; ``begin`` lays the next phase from offset 0 over the
    same arena; ``views`` lays a whole phase out before the first view,
    so outgrowing the arena costs one allocation, not one per view."""
    pool = DomainScratch()
    a = pool.get("a", (3,))
    assert pool.get("a", (3,)).ctypes.data == a.ctypes.data
    b = pool.get("b", (2, 2), complex)  # outgrows the arena: a new one
    assert b.ctypes.data - pool._arena.ctypes.data == ALIGN
    assert not np.shares_memory(a, pool._arena)
    assert pool.allocations == 2
    pool.begin()
    blocks = pool.views([(k, (k + 1, 40)) for k in range(3)])
    assert pool.allocations == 3
    assert [blk.shape for blk in blocks] == [(1, 40), (2, 40), (3, 40)]
    assert blocks[0].ctypes.data == pool._arena.ctypes.data
    for first, second in zip(blocks, blocks[1:]):
        assert second.ctypes.data == first.ctypes.data + first.nbytes
        assert first.nbytes % ALIGN == 0
        assert not np.shares_memory(first, second)
    assert pool._arena.nbytes == sum(blk.nbytes for blk in blocks)
    pool.begin()
    again = pool.views([(k, (k + 1, 40)) for k in range(3)])
    assert pool.allocations == 3
    assert all(np.shares_memory(x, y) for x, y in zip(again, blocks))


def test_workspace_first_call_matches_fresh_run():
    """A single point is a one-step trajectory through a throwaway
    workspace: ``==`` the first call of a fresh ``LDCWorkspace`` — energy,
    forces, both densities, pass and iteration counts — for either Poisson
    solver at either stack width, its set-up recorded as
    ``ldc.workspace_prepare``."""
    cfg = h4_chain(0.1)
    for poisson in ("fft", "multigrid"):
        for batch in (False, True):
            opts = LDCOptions(**OPTS, poisson=poisson, batch_domains=batch)
            ins = Instrumentation()
            fresh = run_ldc(cfg, opts, compute_forces=True,
                            instrumentation=ins)
            ws = LDCWorkspace()
            cold = run_ldc(cfg, opts, compute_forces=True, workspace=ws)
            assert cold.energy == fresh.energy
            assert cold.iterations == fresh.iterations
            assert cold.eig_iterations == fresh.eig_iterations
            np.testing.assert_array_equal(cold.forces, fresh.forces)
            np.testing.assert_array_equal(cold.density, fresh.density)
            np.testing.assert_array_equal(
                cold.input_density, fresh.input_density
            )
            assert ws.cold_domains == 2 and ws.warm_domains == 0
            assert any(len(h) for h in ws._history.values())
            (prepare,) = [s for s in ins.tracer.spans()
                          if s.name == "ldc.workspace_prepare"]
            assert prepare.attrs["cold_domains"] == 2


def test_workspace_orbital_warm_start_cuts_eigensolver_iterations():
    """The tentpole claim: step 2 of a static-geometry trajectory solves in
    far fewer eigensolver iterations when seeded with step 1's converged
    orbitals."""
    cfg = h4_chain()
    ws = LDCWorkspace()
    ins_cold = Instrumentation()
    r1 = run_ldc(
        cfg, LDCOptions(**OPTS), workspace=ws, instrumentation=ins_cold
    )
    ins_warm = Instrumentation()
    r2 = run_ldc(
        cfg, LDCOptions(**OPTS), workspace=ws, instrumentation=ins_warm,
    )
    assert r1.converged and r2.converged
    assert ws.warm_domains == 2 and ws.cold_domains == 0
    cold_iters = ins_cold.metrics.get(
        "eigensolver.iterations", solver="all_band"
    ).value
    warm_iters = ins_warm.metrics.get(
        "eigensolver.iterations", solver="all_band"
    ).value
    assert warm_iters < 0.7 * cold_iters, (
        f"orbital warm start should cut eigensolver iterations by >30%: "
        f"cold={cold_iters}, warm={warm_iters}"
    )


def test_workspace_atom_migration_band_count_change():
    """Moving an atom across the domain boundary changes both domains' band
    counts; the workspace must fall back to random starts for them (not
    feed stale-shaped ψ into the solver) and still converge to the same
    answer as a fresh run."""
    ws = LDCWorkspace()
    run_ldc(h4_chain(), LDCOptions(**OPTS), workspace=ws)
    assert any(len(h) for h in ws._history.values())
    # Domain 0 spans x∈[-2,7) with its 2-Bohr buffer and initially holds
    # atoms {2.0, 3.5, 6.0}.  shift=1.2 moves atom 2 to x=7.2 — out of
    # domain 0 (now 2 atoms, smaller nband) while domain 1 keeps 3.
    moved = h4_chain(shift=1.2)
    migrated = run_ldc(moved, LDCOptions(**OPTS), workspace=ws)
    assert ws.cold_domains >= 1, "band-count change must trigger cold seed"
    fresh = run_ldc(moved, LDCOptions(**OPTS))
    assert migrated.converged and fresh.converged
    assert migrated.energy == pytest.approx(fresh.energy, abs=1e-5)
    nbands_ws = sorted(s.nband for s in migrated.states)
    nbands_fresh = sorted(s.nband for s in fresh.states)
    assert nbands_ws == nbands_fresh


def test_workspace_resets_on_cell_change():
    ws = LDCWorkspace()
    run_ldc(h4_chain(), LDCOptions(**OPTS), workspace=ws)
    grid_before = ws.grid
    bigger = h4_chain()
    bigger.cell = np.array([12.0, 6.0, 6.0])
    result = run_ldc(bigger, LDCOptions(**OPTS), workspace=ws)
    assert result.converged
    assert ws.grid is not grid_before
    assert ws.warm_domains == 0  # orbital cache was dropped with the cell


def test_workspace_owns_the_multigrid_solver():
    """One ``MultigridPoisson`` per cell — hierarchy and level buffers built
    once, counted as ``global`` beside the Ewald structure, dropped by
    ``reset()`` — and the same ``poisson.*`` telemetry as the per-call
    solver of a workspace-less run, reported to each call's own handle."""
    opts = LDCOptions(**dict(OPTS, max_iter=3), poisson="multigrid")
    ws = LDCWorkspace()
    first, second, fresh = Instrumentation(), Instrumentation(), Instrumentation()
    run_ldc(h4_chain(), opts, workspace=ws, instrumentation=first)
    solver = ws.poisson()
    levels = [id(level) for level in solver.levels]
    assert levels and solver.grid is ws.grid
    with_solver = ws.resident_bytes()["global"]
    run_ldc(h4_chain(0.05), opts, workspace=ws, instrumentation=second)
    assert ws.poisson() is solver
    assert [id(level) for level in solver.levels] == levels
    assert ws.resident_bytes()["global"] == with_solver > 8 * ws.grid.npoints

    run_ldc(h4_chain(0.05), opts, instrumentation=fresh)
    names = sorted(k for k in fresh.metrics.snapshot() if k.startswith("poisson"))
    assert names == sorted(
        k for k in second.metrics.snapshot() if k.startswith("poisson")
    ) == ["poisson.residual", "poisson.solves", "poisson.vcycles",
          "poisson.warm_start"]
    for ins in (first, second, fresh):
        assert ins.metrics.get("poisson.solves").value == 4  # 3 passes + final
        assert span_count(ins.tracer, "poisson.solve") == 4

    ws.reset()
    assert ws._poisson is None and ws.resident_bytes()["global"] == 0
    # the FFT path never builds one
    fft = LDCWorkspace()
    run_ldc(h4_chain(), LDCOptions(**dict(OPTS, max_iter=3)), workspace=fft)
    assert fft._poisson is None
    assert 0 < fft.resident_bytes()["global"] < 8 * fft.grid.npoints


def test_run_ldc_rejects_grid_plus_workspace():
    cfg = h4_chain()
    ws = LDCWorkspace()
    from repro.core.ldc import make_global_grid

    opts = LDCOptions(**OPTS)
    with pytest.raises(ValueError, match="either grid"):
        run_ldc(cfg, opts, grid=make_global_grid(cfg, opts), workspace=ws)


def test_stale_shaped_rho0_falls_back_to_cold_start():
    """A density window filled on another global grid — the same cell at
    another cutoff — is dropped by the reset the cutoff change causes: the
    solve starts at ``initial_density``, ``==`` a fresh workspace's, on an
    LDC layout and on the whole cell."""
    cfg = h4_chain()
    for opts in (LDCOptions(**OPTS), SCFOptions(ecut=4.0, tol=1e-6)):
        ws = LDCWorkspace()
        first = run_ldc(cfg, replace(opts, ecut=3.0), workspace=ws)
        again = run_ldc(cfg, opts, workspace=ws)
        assert first.grid.shape != again.grid.shape
        assert not ws.warm_density and again.converged
        assert len(ws._density) == 1  # the other grid's snapshot is gone
        fresh = run_ldc(cfg, opts, workspace=LDCWorkspace())
        assert again.energy == fresh.energy
        assert again.iterations == fresh.iterations


def test_poisson_switch_rebuilds_the_whole_cell_grid():
    """The whole cell's global grid depends on the Poisson solver: FFT
    keeps ``for_cutoff``'s odd axes, multigrid rounds them even for its
    hierarchy.  A workspace reused across the switch rebuilds, so its
    multigrid solve is ``==`` a fresh workspace's."""
    cfg = h4_chain()
    fft = SCFOptions(ecut=3.0, tol=1e-6)
    multigrid = replace(fft, poisson="multigrid")
    ws = LDCWorkspace()
    assert run_ldc(cfg, fft, workspace=ws).grid.shape == (18, 9, 9)
    reused = run_ldc(cfg, multigrid, workspace=ws)
    fresh = run_ldc(cfg, multigrid, workspace=LDCWorkspace())
    assert reused.grid.shape == fresh.grid.shape == (18, 10, 10)
    assert reused.energy == fresh.energy
    assert reused.iterations == fresh.iterations


def test_buffer_change_is_a_cold_start():
    """A buffer change keeps the global grid but resets the workspace, and
    a reset is a cold start: every domain and the density window are
    dropped, so the next solve is ``==`` a fresh workspace's."""
    cfg = h4_chain()
    wider_opts = LDCOptions(**dict(OPTS, buffer=2.5))
    ws = LDCWorkspace()
    first = run_ldc(cfg, LDCOptions(**OPTS), workspace=ws)
    wider = run_ldc(cfg, wider_opts, workspace=ws)
    assert wider.grid.shape == first.grid.shape
    assert ws.cold_domains == 2 and not ws.warm_density
    fresh = run_ldc(cfg, wider_opts, workspace=LDCWorkspace())
    assert wider.energy == fresh.energy
    assert wider.iterations == fresh.iterations
    np.testing.assert_array_equal(wider.density, fresh.density)
    ws.reset()
    assert len(ws._density) == 0


def swapped_cell() -> Configuration:
    config = h4_chain()
    config.cell = np.array([12.0, 6.0, 6.0])
    config.positions += 0.5
    return config


def build_engine(kind, options, ins, qmd_options):
    engine = LDCEngine if kind == "ldc" else SCFEngine
    return engine(options, instrumentation=ins, qmd_options=qmd_options)


@pytest.mark.parametrize("qmd_options", [None, DEPTH3],
                         ids=["depth1", "depth3"])
@pytest.mark.parametrize("kind", ["ldc", "scf"])
def test_engine_after_cell_swap_solves_like_a_fresh_engine(kind, qmd_options):
    """Swapping cells between forces() calls is a cold start — never a
    stale-shaped density, orbital block or workspace fed to the solver:
    the next solve is ``==`` a fresh engine's, and the tier counter,
    read from what the solve used, says ``cold``."""
    options = (
        LDCOptions(**OPTS) if kind == "ldc" else SCFOptions(ecut=4.0, tol=1e-6)
    )
    ins = Instrumentation()
    engine = build_engine(kind, options, ins, qmd_options)
    engine.forces(h4_chain())
    forces, energy, passes = engine.forces(swapped_cell())
    fresh = build_engine(kind, options, None, qmd_options)
    forces0, energy0, passes0 = fresh.forces(swapped_cell())
    assert energy == energy0 and passes == passes0
    np.testing.assert_array_equal(forces, forces0)
    assert ins.counter("qmd.solves", engine="ldc", start="cold").value == 2
    assert ins.metrics.get("qmd.solves", engine="ldc", start="orbital") is None
    assert len(engine.workspace._density) == 1  # the old cell's are gone


def test_scf_engine_warm_starts_from_its_window():
    engine = SCFEngine(SCFOptions(ecut=4.0, tol=1e-6), qmd_options=DEPTH3)
    ins = engine.instrumentation = Instrumentation()
    for shift in (0.0, 0.05):
        engine.forces(h4_chain(shift))
    assert len(engine.workspace._density) == 2  # the density window filling
    assert engine.workspace.warm_density
    assert ins.counter("qmd.solves", engine="ldc", start="orbital").value == 1


@pytest.mark.parametrize("batch", [False, True], ids=["width1", "widthn"])
def test_domain_density_is_carried_only_beside_a_boundary_potential(batch):
    """The v_bc target is the one warm-start reader of ρ_α, so a window
    snapshot holds ρ_α only beside a v_bc: none in ``mode="dc"``, every
    one in ``mode="ldc"``, at either stack width.  A warm dc solve so
    reports its first per-domain boundary error from pass 2, as a cold one
    does; a warm ldc solve reports one from its first pass."""
    for mode in ("dc", "ldc"):
        ws = LDCWorkspace(history_depth=2)
        opts = LDCOptions(**OPTS, mode=mode, batch_domains=batch)
        reported = []
        for shift in (0.0, 0.05):
            ins = Instrumentation()
            result = run_ldc(h4_chain(shift), opts, workspace=ws,
                             instrumentation=ins)
            passes = result.iterations + 1  # the final consistent pass too
            reported.append([
                passes - len(ins.series("ldc.boundary_error", domain=d).values)
                for d in (0, 1)
            ])
        assert result.converged and ws.warm_domains == 2
        snapshots = [rho for hist in ws._history.values()
                     for _, _, rho in hist._entries]
        assert len(snapshots) == 4
        cold_gap, warm_gap = reported
        assert cold_gap == [1, 1]
        if mode == "dc":
            assert all(rho is None for rho in snapshots)
            assert warm_gap == [1, 1]
        else:
            assert all(rho is not None for rho in snapshots)
            assert warm_gap == [0, 0]


@pytest.mark.parametrize("batch", [False, True], ids=["width1", "widthn"])
def test_dc_mode_holds_no_boundary_potential(batch):
    """v_bc is identically zero in ``mode="dc"``, so no domain holds one
    and no window snapshot carries one, at either stack width; in
    ``mode="ldc"`` every active domain and snapshot does."""
    for mode in ("dc", "ldc"):
        ws = LDCWorkspace(history_depth=2)
        opts = LDCOptions(**OPTS, mode=mode, batch_domains=batch)
        for shift in (0.0, 0.05):
            result = run_ldc(h4_chain(shift), opts, workspace=ws)
        assert result.converged and ws.warm_domains == 2
        held = [state.vbc for state in result.states if state.nband]
        snapshots = [vbc for hist in ws._history.values()
                     for _, vbc, _ in hist._entries]
        assert len(held) == 2 and len(snapshots) == 4
        if mode == "dc":
            assert all(v is None for v in held + snapshots)
        else:
            assert all(v is not None for v in held + snapshots)
