"""Reference-free force invariants (ROADMAP item 1): ΣF = 0, dt-halving,
time reversal, continuity.

A periodic cell has no preferred origin, so the forces of a
self-consistent state sum to zero: the Ewald term does term by term, and
``∫ρ∇(V_H + v_xc)[ρ] = 0`` leaves the local and nonlocal pseudopotential
terms to cancel each other (each alone does not vanish).  |ΣF| therefore
measures two things and needs no finite differences to do it: how far the
returned state is from self-consistency (it scales with
``final_residual``), and — on the divide-and-conquer path — what the
owner-domain nonlocal term and the per-domain orbitals leave unbalanced.

Three more need no reference either, only the dynamics the forces drive.
**dt-halving**: over the same physical time velocity Verlet's energy error
falls fourfold when the step halves, a force that is not the gradient of
the energy drifts alike at any step.  **Time reversal**: n steps, flip the
velocities, n steps — a force that is a function of the positions brings
every atom home, through the ASPC windows and the carried mixer too.
**Continuity**: the reversal fails for an atom that crosses a core
boundary, because the force on it jumps there.

This module is a measurement, no engine change: today's values are
asserted as upper bands so a regression shows, and strict ``xfail``s
state the targets the force work of ROADMAP item 1 must reach
(EXPERIMENTS.md EXP-SUM-F has the per-term table, EXP-GLOBAL-HALF the
dynamics).
"""

import numpy as np
import pytest

from repro.core.forces import ldc_forces, nonlocal_forces_dc
from repro.core.ldc import LDCOptions, run_ldc
from repro.dft.ewald import ewald
from repro.dft.forces import forces_from_scf, local_forces
from repro.dft.scf import SCFOptions, run_scf
from repro.md.integrator import initialize_velocities
from repro.md.qmd import LDCEngine, QMDDriver, QMDOptions, SCFEngine
from repro.systems.lialloy import lial_nanoparticle
from repro.systems.water import water_molecule

#: the e2e workloads' options (benchmarks/e2e/workloads.py)
WATER_SCF = dict(ecut=5.0, tol=1e-6, kt=0.01)
LDC_SHARED = dict(ecut=3.0, tol=1e-5, max_iter=40, kt=0.02, extra_bands=4)


def net(forces: np.ndarray) -> float:
    return float(np.linalg.norm(forces.sum(axis=0)))


def ldc_terms(config, result) -> dict[str, np.ndarray]:
    _, f_ewald = ewald(config.wrapped_positions(), config.zvals, config.cell)
    return {
        "total": ldc_forces(config, result, f_ewald),
        "local": local_forces(result.grid, config, result.density),
        "ewald": f_ewald,
        "nonlocal": nonlocal_forces_dc(config, result),
    }


@pytest.fixture(scope="module")
def measured():
    """Every solve of the module, once (≈ 15 s)."""
    water = water_molecule(center=(6.0, 6.0, 6.0), cell=(12.0, 12.0, 12.0))
    scf = run_scf(water, SCFOptions(**WATER_SCF))
    lial = lial_nanoparticle(4, cell=[16.0, 16.0, 16.0])
    runs = {
        # the e2e decomposition
        "ldc": dict(LDC_SHARED, domains=(2, 2, 1), buffer=2.0),
        # the global solve as its one-domain zero-buffer case, same options:
        # 12 bands cut a partly filled shell (top occupation 0.35) and the
        # SCF stalls at a residual of 1.5e-2 — not a converged number
        "one_domain": dict(LDC_SHARED, domains=(1, 1, 1), buffer=0.0),
        # … and with the shell inside the band window: converges in 12
        "one_domain_converged": dict(
            LDC_SHARED, domains=(1, 1, 1), buffer=0.0, extra_bands=8
        ),
    }
    out = {"water": (scf, {"total": forces_from_scf(water, scf)})}
    for name, options in runs.items():
        result = run_ldc(lial, LDCOptions(**options))
        out[name] = (result, ldc_terms(lial, result))
    return out


def test_global_path_forces_sum_to_zero_at_self_consistency(measured):
    """|ΣF| 1.1e-6 against max|F| 1.02 on the e2e water molecule."""
    scf, terms = measured["water"]
    assert scf.converged
    assert net(terms["total"]) <= 5e-6
    assert np.abs(terms["total"]).max() > 0.5


def test_one_domain_ldc_net_force_is_its_non_self_consistency(measured):
    """The one-domain zero-buffer solve is the global one: converged to
    5e-6 it leaves |ΣF| 5.0e-6 (9e-8 at ``tol=1e-7``), the local and
    nonlocal sums — 2.5e-3 each — cancelling; stalled at 1.5e-2 (the e2e
    band count) it leaves 3.6e-3, a third of the largest force."""
    result, terms = measured["one_domain_converged"]
    assert result.converged
    assert net(terms["total"]) <= 2e-5
    assert net(terms["local"]) > 1e-3 and net(terms["nonlocal"]) > 1e-3
    assert np.abs(terms["total"]).max() == pytest.approx(8.8e-3, rel=0.1)
    _, terms = measured["one_domain"]
    assert net(terms["total"]) <= 6e-3


def test_ldc_net_force_per_term(measured):
    """2×2×1, buffer 2.0, converged: |ΣF| 3.0e-2 against max|F| 1.5e-2 —
    the net force is twice the largest force, whatever ``tol``.  Ewald
    sums to zero by construction; the local term alone does not (1.9e-2),
    nor does the owner-domain nonlocal term (4.7e-2)."""
    result, terms = measured["ldc"]
    assert result.converged
    assert net(terms["total"]) <= 3.5e-2
    assert np.abs(terms["total"]).max() <= 1.8e-2
    assert net(terms["ewald"]) <= 1e-13
    assert net(terms["local"]) <= 2.2e-2
    assert net(terms["nonlocal"]) <= 5.2e-2
    parts = terms["local"] + terms["ewald"] + terms["nonlocal"]
    assert np.abs(parts - terms["total"]).max() <= 1e-15


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the LDC net force is 3.0e-2, the one-domain "
    "solve's 3.6e-3 — remove this marker with the fix",
)
def test_ldc_net_force_is_no_larger_than_the_one_domain_value(measured):
    assert net(measured["ldc"][1]["total"]) <= net(
        measured["one_domain"][1]["total"]
    )


# ---- the dynamics the forces drive --------------------------------------------

@pytest.fixture(scope="module")
def halved():
    """The e2e water molecule under NVE through ``QMDDriver(SCFEngine)``
    for 80 atomic time units at dt = 10 (the e2e step) and dt = 5: the
    largest |E(t) − E(first frame)| of each run (≈ 16 s)."""
    worst = {}
    for dt in (10.0, 5.0):
        water = water_molecule(center=(6.0, 6.0, 6.0), cell=(12.0, 12.0, 12.0))
        initialize_velocities(water, 300.0, seed=7)
        engine = SCFEngine(
            SCFOptions(**WATER_SCF), qmd_options=QMDOptions(history_depth=3)
        )
        frames = QMDDriver(engine, timestep=dt).run(water, int(80.0 / dt))
        assert all(frame.converged for frame in frames)
        energy = np.array([frame.total_energy for frame in frames])
        worst[dt] = float(np.abs(energy - energy[0]).max())
    return worst


def test_water_nve_energy_error_is_the_integrators(halved):
    """5.05e-3 Ha at dt = 10, 1.45e-3 at dt = 5 (3.8e-4 at 2.5; the same
    at ``tol=1e-8``, the same maxima over 160 time units): the ratio 3.5,
    tending to 4, is velocity Verlet's dt² — what ``water_scf_nve`` shows
    is its step length, not a force inconsistency, which would leave the
    error where it was."""
    assert halved[10.0] == pytest.approx(5.05e-3, rel=0.1)
    assert 3.0 <= halved[10.0] / halved[5.0] <= 4.5


def reversal(offset):
    """Li₄Al₄ (2×2×1, the e2e options, ASPC depth 3) three NVE steps
    forward, velocities flipped, three steps back: (distance travelled,
    return error per atom in position, in velocity, largest speed)."""
    lial = lial_nanoparticle(4, cell=[16.0, 16.0, 16.0])
    lial.positions += offset
    initialize_velocities(lial, 300.0, seed=7)
    start, velocity = lial.positions.copy(), lial.velocities.copy()
    engine = LDCEngine(
        LDCOptions(**LDC_SHARED, domains=(2, 2, 1), buffer=2.0),
        qmd_options=QMDOptions(history_depth=3),
    )
    driver = QMDDriver(engine, timestep=20.0)
    driver.run(lial, 3)
    travelled = float(np.abs(lial.positions - start).max())
    lial.velocities *= -1.0
    frames = driver.run(lial, 3)
    assert all(frame.converged for frame in frames)
    return (
        travelled,
        np.abs(lial.positions - start).max(axis=1),
        np.abs(lial.velocities + velocity).max(axis=1),
        float(np.abs(velocity).max()),
    )


def test_ldc_dynamics_reverse_within_the_scf_tolerance():
    """With every atom inside one core throughout: 4.0e-2 Bohr out, back to
    4.3e-8 Bohr and 2.5e-9 of a largest speed of 6.4e-4 — the ASPC
    predictor (whose windows run the wrong way after the flip: 10, 9, 4
    passes against 5, 2 forward) and the carried mixer do not break the
    reversibility ``tol=1e-5`` allows; depth 1 returns no closer (1.4e-7)."""
    travelled, position, velocity, speed = reversal(np.array([0.3, 0.2, 0.1]))
    assert travelled > 3e-2
    assert position.max() <= 2e-7
    assert velocity.max() <= 2e-8 and speed > 5e-4


@pytest.fixture(scope="module")
def across_the_boundary():
    """Forces and energy with the central Li 1e-6 Bohr either side of the
    x = 8 plane between two cores (two cold solves at ``tol=1e-6``)."""
    out = []
    for side in (-1.0, 1.0):
        lial = lial_nanoparticle(4, cell=[16.0, 16.0, 16.0])
        assert lial.positions[0, 0] == 8.0
        lial.positions[0, 0] += side * 1e-6
        result = run_ldc(
            lial,
            LDCOptions(**dict(LDC_SHARED, tol=1e-6), domains=(2, 2, 1),
                       buffer=2.0),
            compute_forces=True,
        )
        assert result.converged
        out.append((result.energy, result.forces))
    return out


def test_energy_and_bystander_forces_are_continuous_across_a_core_boundary(
    across_the_boundary,
):
    """2e-6 Bohr apart: the energy moves 9e-9 Ha, the other atoms' forces
    at most 4.3e-8."""
    (e_left, f_left), (e_right, f_right) = across_the_boundary
    assert abs(e_right - e_left) <= 1e-7
    assert np.abs(f_right - f_left)[1:].max() <= 5e-7


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the force on an atom jumps by 2.2e-2 Ha/Bohr "
    "(more than the largest force) where it crosses a core boundary — all "
    "of it the owner-domain nonlocal term — so a trajectory through the "
    "boundary is not time-reversible (the velocity of that atom returns "
    "1.75e-5 off, 2.7 % of the largest speed). Remove this marker with the "
    "fix",
)
def test_force_on_the_crossing_atom_is_continuous(across_the_boundary):
    (_, f_left), (_, f_right) = across_the_boundary
    assert np.abs(f_right - f_left)[0].max() <= 5e-7
