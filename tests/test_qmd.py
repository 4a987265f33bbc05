"""Tests for the QMD driver (MD + pluggable quantum/surrogate engines)."""

import numpy as np
import pytest

from repro.md.integrator import initialize_velocities
from repro.md.qmd import QMDDriver, QMDOptions, SCFEngine, LDCEngine
from repro.systems import dimer, water_molecule
from tests.builders import PairSpringEngine

#: the MD acceleration on: an ASPC window of three
DEPTH3 = QMDOptions(history_depth=3)


def test_qmd_runs_and_records():
    cfg = water_molecule(center=(10.0, 10.0, 10.0))
    initialize_velocities(cfg, 300.0, seed=0)
    driver = QMDDriver(PairSpringEngine(), timestep=4.0)
    frames = driver.run(cfg, 20)
    assert len(frames) == 20
    assert all(np.isfinite(f.potential_energy) for f in frames)
    # nsteps + 1 engine calls: the integrator evaluates initial forces once
    assert sum(f.scf_iterations for f in driver.frames) == 21


def test_qmd_energy_conservation_surrogate():
    cfg = water_molecule(center=(10.0, 10.0, 10.0))
    initialize_velocities(cfg, 200.0, seed=1)
    driver = QMDDriver(PairSpringEngine(), timestep=2.0)
    frames = driver.run(cfg, 200)
    e = np.array([f.total_energy for f in frames])
    assert np.abs(e - e[0]).max() < 1e-3 * abs(e[0])


def test_qmd_with_scf_engine():
    """A couple of real ab initio MD steps on the toy H₂ dimer."""
    from repro.dft.scf import SCFOptions

    for qmd_options in (None, DEPTH3):
        cfg = dimer("H", "H", 2.3, 12.0)
        initialize_velocities(cfg, 50.0, seed=5)
        engine = SCFEngine(
            SCFOptions(ecut=6.0, extra_bands=2, tol=1e-6),
            qmd_options=qmd_options,
        )
        driver = QMDDriver(engine, timestep=10.0)
        frames = driver.run(cfg, 3)
        assert len(frames) == 3
        assert all(f.scf_iterations > 0 for f in frames)
        # warm start: later steps converge in fewer SCF iterations
        assert frames[-1].scf_iterations <= frames[0].scf_iterations


def test_qmd_with_ldc_engine():
    """LDC-DFT-powered MD — the paper's production configuration."""
    from repro.core.ldc import LDCOptions

    for qmd_options in (None, DEPTH3):
        cfg = dimer("H", "H", 2.3, 12.0)
        initialize_velocities(cfg, 50.0, seed=6)
        engine = LDCEngine(
            LDCOptions(ecut=5.0, domains=(2, 1, 1), buffer=2.0, tol=1e-5),
            qmd_options=qmd_options,
        )
        driver = QMDDriver(engine, timestep=10.0)
        frames = driver.run(cfg, 2)
        assert len(frames) == 2
        assert np.isfinite(frames[-1].total_energy)


@pytest.mark.parametrize("bad", [0, -2, 2.5, 1.5, "three"])
@pytest.mark.parametrize("engine", ["LDCEngine", "SCFEngine"])
def test_history_depth_is_validated_once_for_both_engines(engine, bad):
    """A depth below 1 used to become depth 1 silently in ``SCFEngine`` and
    an ``LDCOptions`` error naming neither source in ``LDCEngine``; now
    ``QMDOptions`` itself refuses it, for both."""
    import repro.md.qmd as qmd

    build = getattr(qmd, engine)
    with pytest.raises(
        ValueError, match=rf"QMDOptions\.history_depth.*>= 1.*{bad!r}"
    ):
        build(qmd_options=qmd.QMDOptions(history_depth=bad))
    built = build(qmd_options=qmd.QMDOptions(history_depth=2))
    assert built.workspace.history_depth == built.workspace._density.depth == 2


def test_unconverged_solve_is_visible_from_engine_to_frame():
    """A solve that runs out of passes still returns forces (no policy
    here), but no longer silently: the engine keeps ``last_converged``,
    the frame records it, a counter counts it and the solve's span says
    ``converged=False`` — on the whole cell as on a 2×1×1 layout."""
    from repro.core.ldc import LDCOptions
    from repro.dft.scf import SCFOptions
    from repro.observability import Instrumentation

    for engine_of in (
        lambda max_iter, ins: SCFEngine(
            SCFOptions(ecut=4.0, extra_bands=2, tol=1e-6, max_iter=max_iter),
            instrumentation=ins),
        lambda max_iter, ins: LDCEngine(
            LDCOptions(ecut=4.0, domains=(2, 1, 1), buffer=2.0, tol=1e-6,
                       max_iter=max_iter), instrumentation=ins),
    ):
        ins = Instrumentation()
        starved = engine_of(2, ins)
        assert starved.last_converged is None
        cfg = dimer("H", "H", 2.3, 12.0)
        initialize_velocities(cfg, 50.0, seed=5)
        forces, _, passes = starved.forces(cfg)  # the tuple is unchanged
        assert passes == 2 and np.isfinite(forces).all()
        assert starved.last_converged is False
        counter = ins.metrics.get("qmd.unconverged_solves", engine="ldc")
        assert counter.value == 1
        (span,) = [s for s in ins.tracer.spans() if s.name == "ldc.run"]
        assert span.attrs["converged"] is False
        assert span.attrs["iterations"] == 2
        frame = QMDDriver(starved, timestep=10.0).run(cfg, 1)[-1]
        assert frame.converged is False
        assert counter.value == 3  # the step's two solves, counted each

        fed = engine_of(40, ins)
        frame = QMDDriver(fed, timestep=10.0).run(cfg, 1)[-1]
        assert fed.last_converged is True and frame.converged is True
        assert counter.value == 3
    # an engine that does not say leaves the frame's field unset
    frame = QMDDriver(PairSpringEngine(), timestep=2.0).run(
        water_molecule(center=(10.0, 10.0, 10.0)), 1)[-1]
    assert frame.converged is None
