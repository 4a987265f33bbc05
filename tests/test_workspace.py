"""Tests for the QMD hot path: LDCWorkspace reuse, orbital warm starts,
and the stale-shape warm-start guards on both MD engines."""

import numpy as np
import pytest

from repro.core import LDCOptions, LDCWorkspace, run_ldc
from repro.dft.scf import SCFOptions, run_scf
from repro.md.qmd import LDCEngine, QMDOptions, SCFEngine
from repro.observability import Instrumentation
from repro.systems.configuration import Configuration
from tests.builders import span_count

OPTS = dict(ecut=4.0, domains=(2, 1, 1), buffer=2.0, tol=1e-6, max_iter=30)
#: the MD accelerations on: an ASPC window of three and the buffer controller
ADAPTIVE = QMDOptions(history_depth=3, adaptive_buffer=True)


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
    r1 = run_ldc(h4_chain(), opts, workspace=ws)
    after_cold = ws.scratch_allocations()
    assert after_cold > 0
    run_ldc(h4_chain(), opts, workspace=ws, rho0=r1.density)
    assert ws.scratch_allocations() == after_cold


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
        cfg, LDCOptions(**OPTS), workspace=ws, rho0=r1.density,
        instrumentation=ins_warm,
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
    """A rho0 from a different grid must be ignored, not crash the solve."""
    cfg = h4_chain()
    stale = np.ones((4, 4, 4))
    r = run_ldc(cfg, LDCOptions(**OPTS), rho0=stale)
    assert r.converged
    s = run_scf(cfg, SCFOptions(ecut=4.0, tol=1e-6), rho0=stale)
    assert s.converged


def swapped_cell() -> Configuration:
    config = h4_chain()
    config.cell = np.array([12.0, 6.0, 6.0])
    config.positions += 0.5
    return config


def build_engine(kind, options, ins, qmd_options):
    engine = LDCEngine if kind == "ldc" else SCFEngine
    return engine(options, instrumentation=ins, qmd_options=qmd_options)


@pytest.mark.parametrize("qmd_options", [None, ADAPTIVE],
                         ids=["depth1", "adaptive"])
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
    # the buffer controller may have re-tuned the options after step one
    fresh = build_engine(kind, engine.options, None, qmd_options)
    forces0, energy0, passes0 = fresh.forces(swapped_cell())
    assert energy == energy0 and passes == passes0
    np.testing.assert_array_equal(forces, forces0)
    label = engine.label
    assert ins.counter("qmd.solves", engine=label, start="cold").value == 2
    assert ins.metrics.get("qmd.solves", engine=label, start="orbital") is None
    assert len(engine.window) == 1  # the old cell's snapshots are gone


def test_scf_engine_warm_starts_from_its_window():
    engine = SCFEngine(SCFOptions(ecut=4.0, tol=1e-6), qmd_options=ADAPTIVE)
    ins = engine.instrumentation = Instrumentation()
    for shift in (0.0, 0.05):
        engine.forces(h4_chain(shift))
    assert len(engine.window) == 2  # orbital and density window filling
    assert ins.counter("qmd.solves", engine="pw", start="orbital").value == 1


def test_depth_one_scf_engine_step_is_the_hand_warm_started_run_scf():
    """The engine keeps ψ one way, in its ASPC window; at depth 1 the
    window hands back a copy of the last block, so a second step is
    ``run_scf`` warm-started from the first result by hand."""
    from repro.dft.forces import forces_from_scf

    opts = SCFOptions(ecut=4.0, tol=1e-6)
    cfg1, cfg2 = h4_chain(), h4_chain(shift=0.1)
    ins = Instrumentation()
    engine = SCFEngine(opts, instrumentation=ins)
    engine.forces(cfg1)
    f2, e2, passes2 = engine.forces(cfg2)
    r1 = run_scf(cfg1, opts)
    r2 = run_scf(cfg2, opts, rho0=r1.input_density, psi0=r1.orbitals)
    assert e2 == r2.energy and passes2 == r2.iterations
    np.testing.assert_array_equal(f2, forces_from_scf(cfg2, r2))
    # the copied block is a prediction like any other: its residual is kept
    assert len(ins.metrics.get("scf.predictor_residual").values) == 1


def test_run_scf_psi0_warm_start_cuts_iterations():
    cfg = h4_chain()
    opts = SCFOptions(ecut=4.0, tol=1e-6)
    ins_cold = Instrumentation()
    r1 = run_scf(cfg, opts, instrumentation=ins_cold)
    ins_warm = Instrumentation()
    r2 = run_scf(
        cfg, opts, rho0=r1.density, psi0=r1.orbitals,
        instrumentation=ins_warm,
    )
    assert r1.converged and r2.converged
    assert r2.energy == pytest.approx(r1.energy, abs=1e-7)
    cold = ins_cold.metrics.get(
        "eigensolver.iterations", solver="all_band"
    ).value
    warm = ins_warm.metrics.get(
        "eigensolver.iterations", solver="all_band"
    ).value
    assert warm < cold


def test_run_scf_ignores_mismatched_psi0():
    cfg = h4_chain()
    bad_psi = np.ones((7, 3), dtype=complex)
    r = run_scf(cfg, SCFOptions(ecut=4.0, tol=1e-6), psi0=bad_psi)
    assert r.converged
