"""Tests for the QMD hot path: LDCWorkspace reuse, orbital warm starts,
and the stale-shape warm-start guards on both MD engines."""

import numpy as np
import pytest

from repro.core import LDCOptions, LDCWorkspace, run_ldc
from repro.dft.scf import SCFOptions, run_scf
from repro.md.qmd import LDCEngine, SCFEngine
from repro.observability import Instrumentation
from repro.systems.configuration import Configuration

OPTS = dict(ecut=4.0, domains=(2, 1, 1), buffer=2.0, tol=1e-6, max_iter=30)


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
    assert ws.has_orbitals
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
    """A cold workspace run is the same calculation as a fresh run (same
    grids, same seeds, same Ewald)."""
    cfg = h4_chain()
    fresh = run_ldc(cfg, LDCOptions(**OPTS))
    ws = LDCWorkspace()
    cold = run_ldc(cfg, LDCOptions(**OPTS), workspace=ws)
    assert abs(cold.energy - fresh.energy) <= 1e-12
    assert np.abs(cold.density - fresh.density).max() <= 1e-12
    assert ws.cold_domains == 2 and ws.warm_domains == 0
    assert ws.has_orbitals


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
    assert ws.has_orbitals
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
    names = sorted(k for k in fresh.metrics.keys() if k.startswith("poisson"))
    assert names == sorted(
        k for k in second.metrics.keys() if k.startswith("poisson")
    ) == ["poisson.residual", "poisson.solves", "poisson.vcycles",
          "poisson.warm_start"]
    for ins in (first, second, fresh):
        assert ins.metrics.get("poisson.solves").value == 4  # 3 passes + final
        assert ins.tracer.count("poisson.solve") == 4

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


def test_ldc_engine_survives_cell_swap():
    """The engine guard: swapping cells between forces() calls cold-starts
    instead of feeding a stale-shaped density/workspace into run_ldc."""
    engine = LDCEngine(LDCOptions(**OPTS))
    f1, e1, _ = engine.forces(h4_chain())
    swapped = h4_chain()
    swapped.cell = np.array([12.0, 6.0, 6.0])
    swapped.positions += 0.5
    f2, e2, _ = engine.forces(swapped)
    assert np.isfinite(e1) and np.isfinite(e2)
    assert np.all(np.isfinite(f2))


def test_scf_engine_survives_cell_swap_and_warm_starts():
    engine = SCFEngine(SCFOptions(ecut=4.0, tol=1e-6))
    cfg = h4_chain()
    _, e1, _ = engine.forces(cfg)
    assert engine._psi is not None  # orbital cache primed
    swapped = h4_chain()
    swapped.cell = np.array([12.0, 6.0, 6.0])
    swapped.positions += 0.5
    _, e2, _ = engine.forces(swapped)
    assert np.isfinite(e1) and np.isfinite(e2)


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
