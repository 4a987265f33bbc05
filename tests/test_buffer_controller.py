"""Tests for the runtime adaptive-buffer loop (repro.core.advisor's
BufferController) and its wiring into the LDC MD engine."""

import numpy as np
import pytest

from repro.core.advisor import (
    BufferController,
    BufferControllerOptions,
    BufferDecision,
)

OPTS = BufferControllerOptions(
    target_error=1e-4, band=2.0, decay_length=1.5, cooldown_steps=1,
)


def test_options_validation():
    with pytest.raises(ValueError):
        BufferControllerOptions(target_error=0.0)
    with pytest.raises(ValueError):
        BufferControllerOptions(band=0.5)
    with pytest.raises(ValueError):
        BufferControllerOptions(decay_length=-1.0)
    with pytest.raises(ValueError):
        BufferControllerOptions(min_buffer=3.0, max_buffer=2.0)
    with pytest.raises(ValueError):
        BufferControllerOptions(cooldown_steps=-1)


def test_no_data_holds():
    ctl = BufferController(OPTS)
    d = ctl.propose(2.0)
    assert isinstance(d, BufferDecision)
    assert not d.changed and d.reason == "hold-no-data"
    assert d.buffer == 2.0
    # l* = 2b/(ν-1) with ν=2
    assert d.core_length == pytest.approx(4.0)


def test_in_band_holds():
    ctl = BufferController(OPTS)
    ctl.observe(2.0, 1.5e-4)  # inside [ε/2, 2ε]
    d = ctl.propose(2.0)
    assert not d.changed and d.reason == "hold-band"


def test_grow_and_shrink_follow_eq1_increment():
    """b_new − b = λ ln(e/ε), clipped to ±max_step."""
    ctl = BufferController(OPTS)
    ctl.observe(2.0, 1e-3)  # 10× over target → grow
    d = ctl.propose(2.0)
    assert d.changed and d.reason == "grow"
    expect = 2.0 + min(1.5 * np.log(10.0), OPTS.max_step)
    assert d.buffer == pytest.approx(expect)
    assert d.core_length == pytest.approx(2.0 * d.buffer)

    ctl = BufferController(OPTS)
    ctl.observe(3.0, 1e-6)  # 100× under target → shrink
    d = ctl.propose(3.0)
    assert d.changed and d.reason == "shrink"
    assert d.buffer == pytest.approx(3.0 - OPTS.max_step)  # clipped


def test_cooldown_after_adjustment():
    """The post-change transient carries no steady-state signal — the
    controller holds for cooldown_steps before moving again."""
    ctl = BufferController(OPTS)
    ctl.observe(2.0, 1e-2)
    d1 = ctl.propose(2.0)
    assert d1.changed
    ctl.observe(d1.buffer, 1e-2)
    d2 = ctl.propose(d1.buffer)
    assert not d2.changed and d2.reason == "hold-cooldown"
    ctl.observe(d1.buffer, 1e-2)
    d3 = ctl.propose(d1.buffer)
    assert d3.changed  # cooldown expired
    assert ctl.adjustments == 2


def test_quantization_noop_holds():
    """A proposal that realizes to the same whole-grid-point buffer is a
    pure workspace churn — held."""
    opts = BufferControllerOptions(
        target_error=1e-4, band=1.5, decay_length=0.2, cooldown_steps=0,
    )
    ctl = BufferController(opts)
    ctl.observe(2.0, 3e-4)  # small overshoot → ~0.22 Bohr proposal
    d = ctl.propose(2.0, spacings=np.array([1.0, 1.0, 1.0]))
    assert not d.changed and d.reason == "hold-quantized"
    # finer grid: the same proposal moves at least one axis's point count
    d2 = ctl.propose(2.0, spacings=np.array([0.1, 0.1, 0.1]))
    assert d2.changed


def test_proposal_past_the_whole_cell_buffer_holds():
    """The no-op check compares *realized* buffers — rounded to grid points
    and clamped at the decomposition's ceiling.  On a 16 Bohr axis cut in
    two (l = 8, ceiling (L − l)/2 = 4 Bohr) growth stops at the ceiling
    and a proposal beyond it is held as ``hold-cell``; the uncut axis
    (ceiling 0) never takes part."""
    opts = BufferControllerOptions(
        target_error=1e-9, decay_length=1.0, max_step=1.5, cooldown_steps=0,
    )
    spacings = np.array([0.5, 0.5, 0.5])
    ceiling = np.array([8, 8, 0])
    ctl = BufferController(opts)
    ctl.observe(3.0, 1e-3)
    d = ctl.propose(3.0, spacings=spacings, max_points=ceiling)
    assert d.changed and d.reason == "grow" and d.buffer == 4.0  # not 4.5
    ctl.observe(4.0, 1e-3)
    d = ctl.propose(4.0, spacings=spacings, max_points=ceiling)
    assert not d.changed and d.reason == "hold-cell" and d.buffer == 4.0
    assert ctl.holds == {"hold-cell": 1} and ctl.adjustments == 1
    # without the ceiling the same proposal walks on (the old behaviour)
    assert ctl.propose(4.0, spacings=spacings).buffer == 5.5
    # shrinking from the ceiling is a real change and is let through
    ctl.observe(4.0, 1e-13)
    d = ctl.propose(4.0, spacings=spacings, max_points=ceiling)
    assert d.changed and d.reason == "shrink" and d.buffer < 4.0


def test_buffer_clamped_to_range():
    ctl = BufferController(
        BufferControllerOptions(
            target_error=1e-4, decay_length=5.0, max_step=10.0,
            min_buffer=1.0, max_buffer=4.0, cooldown_steps=0,
        )
    )
    ctl.observe(3.5, 1.0)  # enormous error
    assert ctl.propose(3.5).buffer == 4.0
    ctl.observe(1.5, 1e-12)  # vanishing error
    assert ctl.propose(1.5).buffer == 1.0


def test_lambda_refit_from_two_thicknesses():
    """Observations at two buffers with decaying error refit λ online."""
    ctl = BufferController(OPTS)
    lam_true = 0.8
    ctl.observe(1.0, 1e-2 * np.exp(-1.0 / lam_true))
    assert ctl.decay_length == OPTS.decay_length  # one thickness: prior λ
    ctl.observe(2.0, 1e-2 * np.exp(-2.0 / lam_true))
    assert ctl.decay_length == pytest.approx(lam_true, rel=1e-6)


def test_nondecaying_samples_keep_prior_lambda():
    ctl = BufferController(OPTS)
    ctl.observe(1.0, 1e-5)
    ctl.observe(2.0, 1e-3)  # error grew with b: degenerate fit
    assert ctl.decay_length == OPTS.decay_length


def test_ldc_engine_adaptive_loop_end_to_end():
    """REPRO_ADAPTIVE_BUFFER wiring: the engine observes each step's
    boundary error, re-tunes options.buffer, and survives the workspace
    rebuild the option change triggers."""
    from repro.core import LDCOptions
    from repro.md.qmd import LDCEngine, QMDOptions
    from repro.observability import Instrumentation
    from repro.systems.configuration import Configuration

    cfg = Configuration(
        symbols=["H", "H", "H", "H"],
        positions=np.array(
            [
                [2.0, 2.5, 2.5],
                [3.5, 2.5, 2.5],
                [6.0, 2.5, 2.5],
                [7.5, 2.5, 2.5],
            ]
        ),
        cell=np.array([10.0, 5.0, 5.0]),
    )
    ins = Instrumentation()
    # loose target: the toy system's boundary error is far above it, so
    # the controller must ask for growth within a couple of steps
    ctl_opts = BufferControllerOptions(
        target_error=1e-9, band=1.5, decay_length=1.0,
        max_step=1.0, cooldown_steps=0, max_buffer=3.0,
    )
    engine = LDCEngine(
        LDCOptions(
            ecut=4.0, domains=(2, 1, 1), buffer=2.0, tol=1e-6, max_iter=30
        ),
        instrumentation=ins,
        qmd_options=QMDOptions(adaptive_buffer=True, controller=ctl_opts),
    )
    b0 = engine.options.buffer
    energies = []
    for shift in (0.0, 0.05, 0.10):
        _, e, _ = engine.forces(
            Configuration(
                cfg.symbols, cfg.positions + [[shift, 0, 0]] * 4, cfg.cell
            )
        )
        energies.append(e)
    assert all(np.isfinite(e) for e in energies)
    assert engine.controller is not None
    assert engine.controller.adjustments >= 1
    assert engine.options.buffer != b0
    assert ins.counter("ldc.buffer_adjustments").value >= 1
    # chosen-(b, l*) series recorded every step for the ledger
    assert len(ins.metrics.get("ldc.buffer_b").values) == 3


def test_adaptive_walk_stops_at_the_whole_cell_buffer():
    """The controller walk of EXP-INPUT-WINDOW (2 → 3 → 4 → 5 → 5.5 Bohr on
    a cell whose domains span it at 4), replayed on an H₄ chain where the
    ceiling is (L − l)/2 = 2.5 Bohr: with an unreachable target the engine
    grows to the ceiling, then holds there — ``hold-cell``, no workspace
    reset into identical whole-cell "domains" — however often it is asked."""
    from repro.core import LDCOptions
    from repro.md.qmd import LDCEngine, QMDOptions
    from repro.observability import Instrumentation
    from repro.systems.configuration import Configuration

    positions = np.array(
        [[2.0, 2.5, 2.5], [3.5, 2.5, 2.5], [6.0, 2.5, 2.5], [7.5, 2.5, 2.5]]
    )
    cell = np.array([10.0, 5.0, 5.0])
    ins = Instrumentation()
    engine = LDCEngine(
        LDCOptions(
            ecut=4.0, domains=(2, 1, 1), buffer=1.0, tol=1e-5, max_iter=30
        ),
        instrumentation=ins,
        qmd_options=QMDOptions(
            adaptive_buffer=True,
            controller=BufferControllerOptions(
                target_error=1e-12, decay_length=1.0, max_step=1.0,
                cooldown_steps=0,
            ),
        ),
    )
    walk = []
    for k in range(5):
        engine.forces(
            Configuration(["H"] * 4, positions + [[0.02 * k, 0, 0]] * 4, cell)
        )
        walk.append(engine.options.buffer)
    assert walk == [2.0, 2.5, 2.5, 2.5, 2.5]
    assert max(walk) <= (cell[0] - cell[0] / 2) / 2
    assert engine.controller.adjustments == 2
    assert engine.controller.holds["hold-cell"] == 3
    assert ins.counter("ldc.buffer_holds", reason="hold-cell").value == 3
    # the decomposition was rebuilt for the two changes, not for the holds,
    # and the one shared basis with it: none of an earlier buffer survives
    assert engine.workspace.steps == 3
    (basis,) = engine.workspace._bases.values()
    domain = engine.workspace.decomposition.domains[0]
    assert basis.grid.shape == domain.grid.shape == engine.workspace.grid.shape


def test_env_flag_enables_controller(monkeypatch):
    from repro.md.qmd import LDCEngine, QMDOptions, _resolve_adaptive_buffer

    monkeypatch.setenv("REPRO_ADAPTIVE_BUFFER", "1")
    assert _resolve_adaptive_buffer(None)
    engine = LDCEngine()
    assert engine.controller is not None
    # explicit options beat the env flag
    assert not _resolve_adaptive_buffer(QMDOptions(adaptive_buffer=False))
    monkeypatch.setenv("REPRO_ADAPTIVE_BUFFER", "0")
    assert not _resolve_adaptive_buffer(None)


def test_env_depth_resolution(monkeypatch):
    from repro.md.qmd import LDCEngine, QMDOptions, _resolve_history_depth

    monkeypatch.setenv("REPRO_ASPC_DEPTH", "3")
    assert _resolve_history_depth(None) == 3
    assert _resolve_history_depth(QMDOptions(history_depth=2)) == 2
    engine = LDCEngine()
    assert engine.options.history_depth == 3
    monkeypatch.delenv("REPRO_ASPC_DEPTH")
    assert _resolve_history_depth(None) is None
    # a malformed value names the variable and what it held
    monkeypatch.setenv("REPRO_ASPC_DEPTH", "three")
    with pytest.raises(ValueError, match="REPRO_ASPC_DEPTH.*'three'"):
        LDCEngine()


@pytest.mark.parametrize("bad", [0, -2, 2.5])
@pytest.mark.parametrize("engine", ["LDCEngine", "SCFEngine"])
def test_history_depth_is_validated_once_for_both_engines(
    monkeypatch, engine, bad
):
    """A depth below 1 used to become depth 1 silently in ``SCFEngine`` and
    an ``LDCOptions`` error naming neither source in ``LDCEngine``."""
    import repro.md.qmd as qmd

    build = getattr(qmd, engine)
    monkeypatch.delenv("REPRO_ASPC_DEPTH", raising=False)
    with pytest.raises(
        ValueError, match=rf"QMDOptions\.history_depth.*>= 1.*{bad!r}"
    ):
        build(qmd_options=qmd.QMDOptions(history_depth=bad))
    monkeypatch.setenv("REPRO_ASPC_DEPTH", str(bad))
    with pytest.raises(
        ValueError, match=rf"REPRO_ASPC_DEPTH.*>= 1.*'{bad}'"
    ):
        build()
    # the explicit option still beats the variable, whatever that holds
    built = build(qmd_options=qmd.QMDOptions(history_depth=2))
    assert 2 == (
        built.history_depth if engine == "SCFEngine"
        else built.options.history_depth
    )
