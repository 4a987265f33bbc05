"""Tests for the QMD driver (MD + pluggable quantum/surrogate engines)."""

import numpy as np

from repro.md.integrator import initialize_velocities
from repro.md.qmd import QMDDriver, SCFEngine, LDCEngine
from repro.md.thermostat import BerendsenThermostat
from repro.reactive.potential import ReactiveForceField
from repro.systems import dimer, water_molecule


class ReactiveEngine:
    """Surrogate engine with the QMD engine interface."""

    def __init__(self):
        self.ff = ReactiveForceField()

    def forces(self, config):
        e, f = self.ff.energy_forces(config)
        return f, e, 1


def test_qmd_runs_and_records():
    cfg = water_molecule(center=(10.0, 10.0, 10.0))
    initialize_velocities(cfg, 300.0, seed=0)
    driver = QMDDriver(ReactiveEngine(), timestep=4.0)
    frames = driver.run(cfg, 20)
    assert len(frames) == 20
    assert all(np.isfinite(f.potential_energy) for f in frames)
    # nsteps + 1 engine calls: the integrator evaluates initial forces once
    assert driver.total_scf_iterations() == 21


def test_qmd_energy_conservation_surrogate():
    cfg = water_molecule(center=(10.0, 10.0, 10.0))
    initialize_velocities(cfg, 200.0, seed=1)
    driver = QMDDriver(ReactiveEngine(), timestep=2.0)
    frames = driver.run(cfg, 200)
    e = np.array([f.total_energy for f in frames])
    assert np.abs(e - e[0]).max() < 1e-3 * abs(e[0])


def test_qmd_thermostat_controls_temperature():
    from repro.systems import random_gas

    cfg = random_gas(["O", "H", "H"] * 6, 20.0, seed=2)
    initialize_velocities(cfg, 900.0, seed=3)
    thermo = BerendsenThermostat(300.0, tau=20.0, timestep=4.0)
    driver = QMDDriver(ReactiveEngine(), timestep=4.0, thermostat=thermo)
    frames = driver.run(cfg, 150)
    late = np.mean([f.temperature for f in frames[-30:]])
    # reactions release heat between thermostat kicks, so the gas floats
    # somewhat above the 300 K target; it must still cool far below 900 K
    assert late < 650.0
    assert late < frames[0].temperature


def test_qmd_records_positions_optionally():
    cfg = water_molecule(center=(10.0, 10.0, 10.0))
    initialize_velocities(cfg, 100.0, seed=4)
    driver = QMDDriver(ReactiveEngine(), timestep=2.0, record_positions=True)
    frames = driver.run(cfg, 3)
    assert frames[0].positions is not None
    assert frames[0].positions.shape == (3, 3)


def test_qmd_with_scf_engine():
    """A couple of real ab initio MD steps on the toy H₂ dimer."""
    from repro.dft.scf import SCFOptions

    cfg = dimer("H", "H", 2.3, 12.0)
    initialize_velocities(cfg, 50.0, seed=5)
    engine = SCFEngine(SCFOptions(ecut=6.0, extra_bands=2, tol=1e-6))
    driver = QMDDriver(engine, timestep=10.0)
    frames = driver.run(cfg, 3)
    assert len(frames) == 3
    assert all(f.scf_iterations > 0 for f in frames)
    # warm start: later steps converge in fewer SCF iterations
    assert frames[-1].scf_iterations <= frames[0].scf_iterations


def test_qmd_with_ldc_engine():
    """LDC-DFT-powered MD — the paper's production configuration."""
    from repro.core.ldc import LDCOptions

    cfg = dimer("H", "H", 2.3, 12.0)
    initialize_velocities(cfg, 50.0, seed=6)
    engine = LDCEngine(
        LDCOptions(ecut=5.0, domains=(2, 1, 1), buffer=2.0, tol=1e-5)
    )
    driver = QMDDriver(engine, timestep=10.0)
    frames = driver.run(cfg, 2)
    assert len(frames) == 2
    assert np.isfinite(frames[-1].total_energy)


def test_unconverged_solve_is_visible_from_engine_to_frame(caplog):
    """A solve that runs out of passes still returns forces (no policy
    here), but no longer silently: the engine keeps ``last_converged``,
    the frame records it, a counter and one log record name the engine."""
    import logging

    from repro.core.ldc import LDCOptions
    from repro.dft.scf import SCFOptions
    from repro.observability import Instrumentation

    for label, engine_of in (
        ("pw", lambda max_iter, ins: SCFEngine(
            SCFOptions(ecut=4.0, extra_bands=2, tol=1e-6, max_iter=max_iter),
            instrumentation=ins)),
        ("ldc", lambda max_iter, ins: LDCEngine(
            LDCOptions(ecut=4.0, domains=(2, 1, 1), buffer=2.0, tol=1e-6,
                       max_iter=max_iter), instrumentation=ins)),
    ):
        ins = Instrumentation()
        starved = engine_of(2, ins)
        assert starved.last_converged is None
        cfg = dimer("H", "H", 2.3, 12.0)
        initialize_velocities(cfg, 50.0, seed=5)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="repro"):
            forces, _, passes = starved.forces(cfg)  # the tuple is unchanged
        assert passes == 2 and np.isfinite(forces).all()
        assert starved.last_converged is False
        counter = ins.metrics.get("qmd.unconverged_solves", engine=label)
        assert counter.value == 1
        records = [r for r in caplog.records if r.msg == "unconverged solve"]
        assert len(records) == 1 and records[0].engine == label
        frame = QMDDriver(starved, timestep=10.0).run(cfg, 1)[-1]
        assert frame.converged is False
        assert counter.value == 3  # the step's two solves, counted each

        fed = engine_of(40, ins)
        frame = QMDDriver(fed, timestep=10.0).run(cfg, 1)[-1]
        assert fed.last_converged is True and frame.converged is True
        assert counter.value == 3
    # an engine that does not say leaves the frame's field unset
    frame = QMDDriver(ReactiveEngine(), timestep=2.0).run(
        water_molecule(center=(10.0, 10.0, 10.0)), 1)[-1]
    assert frame.converged is None


def test_energy_drift_diagnostic():
    cfg = water_molecule(center=(10.0, 10.0, 10.0))
    initialize_velocities(cfg, 100.0, seed=7)
    driver = QMDDriver(ReactiveEngine(), timestep=2.0)
    driver.run(cfg, 50)
    assert driver.energy_drift() >= 0.0
