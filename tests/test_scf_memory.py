"""The SCF quasi-Newton memory: the difference-form Pulay mixer, the secant
pairs an :class:`LDCWorkspace` carries across MD steps, and every fallback
that must end in the fresh-mixer behaviour."""

import copy
from dataclasses import replace

import numpy as np
import pytest

import repro.core.workspace as workspace_module
from repro.core import LDCOptions, LDCWorkspace, run_ldc
from repro.dft.mixing import DensityError, PulayMixer, renormalize
from repro.md.qmd import LDCEngine, QMDOptions
from repro.observability import Instrumentation
from repro.systems.lialloy import lial_nanoparticle

from tests.test_workspace import OPTS as H4_OPTS
from tests.test_workspace import h4_chain


class ReferenceDIIS:
    """The constrained ``(x_i, R_i)`` DIIS this repo used before the
    difference form — kept as the reference the new mixer must reproduce."""

    def __init__(self, alpha: float = 0.3, history: int = 6) -> None:
        self.alpha = alpha
        self.history = history
        self._inputs: list[np.ndarray] = []
        self._residuals: list[np.ndarray] = []

    def mix(self, rho_in: np.ndarray, rho_out: np.ndarray) -> np.ndarray:
        resid = rho_out - rho_in
        self._inputs.append(rho_in.copy())
        self._residuals.append(resid.copy())
        if len(self._inputs) > self.history:
            self._inputs.pop(0)
            self._residuals.pop(0)
        m = len(self._residuals)
        if m == 1:
            return rho_in + self.alpha * resid
        b = np.empty((m + 1, m + 1))
        for i in range(m):
            for j in range(i, m):
                b[i, j] = b[j, i] = float(np.vdot(
                    self._residuals[i].ravel(), self._residuals[j].ravel()
                ).real)
        b[m, :m] = 1.0
        b[:m, m] = 1.0
        b[m, m] = 0.0
        rhs = np.zeros(m + 1)
        rhs[m] = 1.0
        coeffs = np.linalg.solve(b, rhs)[:m]
        rho_next = np.zeros_like(rho_in)
        for c, rin, r in zip(coeffs, self._inputs, self._residuals):
            rho_next += c * (rin + self.alpha * r)
        return rho_next


class PairListPulay:
    """The difference form as it was written before the pairs were kept in
    two matrices: every pair re-formed from the stored iterates and ``ΔR``
    ``np.stack``-ed on each call.  Same arithmetic in the same order, so
    the mixer must reproduce it ``==`` (no drop rules: the pins using it
    stay inside the carried pairs' range)."""

    def __init__(self, alpha: float = 0.3, history: int = 6) -> None:
        self.alpha = alpha
        self.history = history
        self._inputs: list[np.ndarray] = []
        self._residuals: list[np.ndarray] = []
        self._carried: list[tuple[np.ndarray, np.ndarray]] = []

    def _pairs(self):
        return self._carried + [
            (self._inputs[i + 1] - self._inputs[i],
             self._residuals[i + 1] - self._residuals[i])
            for i in range(len(self._inputs) - 1)
        ]

    def begin_step(self) -> None:
        self._carried = self._pairs()
        self._inputs.clear()
        self._residuals.clear()

    def mix(self, rho_in: np.ndarray, rho_out: np.ndarray) -> np.ndarray:
        resid = rho_out - rho_in
        self._inputs.append(rho_in.copy())
        self._residuals.append(resid.copy())
        if len(self._inputs) > self.history:
            self._inputs.pop(0)
            self._residuals.pop(0)
        del self._carried[: max(
            0, len(self._carried) + len(self._inputs) - self.history
        )]
        rho_next = rho_in + self.alpha * resid
        pairs = self._pairs()
        if not pairs:
            return rho_next
        d_res = np.stack([d_r.ravel() for _, d_r in pairs])
        gamma = np.linalg.solve(d_res @ d_res.T, d_res @ resid.ravel())
        for g, (d_rho, d_r) in zip(gamma, pairs):
            rho_next -= g * (d_rho + self.alpha * d_r)
        return rho_next


def linear_map(seed: int = 3, n: int = 24, radius: float = 0.45):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    a *= radius / np.abs(np.linalg.eigvals(a)).max()
    return a, rng.normal(size=n)


def solve_fixed_point(mixer, a, b, x, tol, max_iter=80):
    """Iterate ``x <- mix(x, a x + b)`` until ``|R| < tol``; returns the
    last iterate and the number of map evaluations."""
    for it in range(1, max_iter + 1):
        out = a @ x + b
        if np.linalg.norm(out - x) < tol:
            return x, it
        x = mixer.mix(x, out)
    return x, max_iter


# -- the difference form -----------------------------------------------------


@pytest.mark.parametrize("history", [3, 6, 8])
def test_difference_form_reproduces_reference_diis(history):
    a, b = linear_map()
    new, ref = PulayMixer(0.5, history), ReferenceDIIS(0.5, history)
    x_new = x_ref = np.zeros(len(b))
    for _ in range(10):
        x_new = new.mix(x_new, a @ x_new + b)
        x_ref = ref.mix(x_ref, a @ x_ref + b)
        assert np.abs(x_new - x_ref).max() <= 1e-12


@pytest.mark.parametrize("history", [3, 6])
def test_stored_pairs_reproduce_the_pair_list_formula_bit_for_bit(history):
    """Ten passes of a grid-shaped map with a ``begin_step`` (and a moved
    offset) in the middle: the window fills, carried pairs leave it one by
    one, and every iterate is ``==`` the list-based formula's."""
    a, b = linear_map(n=27)
    new, ref = PulayMixer(0.5, history), PairListPulay(0.5, history)
    x_new = x_ref = np.zeros((3, 3, 3))
    for k in range(10):
        if k == 5:
            new.begin_step()
            ref.begin_step()
            b = b + 1e-3 * np.arange(27.0)
        x_new = new.mix(x_new, (a @ x_new.ravel() + b).reshape(3, 3, 3))
        x_ref = ref.mix(x_ref, (a @ x_ref.ravel() + b).reshape(3, 3, 3))
        assert np.array_equal(x_new, x_ref)
        assert new.pairs == len(ref._pairs())
        assert new.carried_pairs == len(ref._carried)
    assert new.dropped == {}


def test_begin_step_keeps_pairs_and_forgets_iterates(rng):
    m = PulayMixer(alpha=0.3, history=4)
    for _ in range(6):
        m.mix(rng.random((2, 2, 2)), rng.random((2, 2, 2)))
    assert (m.pairs, m.carried_pairs) == (3, 0)
    m.begin_step()
    assert (m.pairs, m.carried_pairs, m._resid) == (3, 3, None)
    m.begin_step()  # nothing happened in between: idempotent
    assert m.carried_pairs == 3
    # this solve's own pairs push the carried ones out of the window
    for expected in (3, 2, 1, 0):
        m.mix(rng.random((2, 2, 2)), rng.random((2, 2, 2)))
        assert m.pairs == 3 and m.carried_pairs <= expected


def test_pairs_survive_an_offset_change_exactly():
    """For g(x) = A x + b the pairs satisfy ΔR = (A − 1) Δx whatever b is,
    so with a full set of them the first step on a new b is a Newton step."""
    a, b = linear_map(n=4)
    m = PulayMixer(alpha=0.5, history=6)
    x = np.zeros(4)
    for _ in range(5):
        x = m.mix(x, a @ x + b)
    m.begin_step()
    b_new = b + 0.01 * np.arange(4.0)
    x = m.mix(x, a @ x + b_new)
    assert m.dropped == {}
    assert np.linalg.norm(a @ x + b_new - x) < 1e-10


def test_memory_cuts_iterations_on_a_drifting_fixed_point():
    """Fixed A, moving b_k: solve k+1 needs fewer iterations with the
    pairs of solve k than with a fresh mixer."""
    a, b0 = linear_map(radius=0.9)
    db = np.random.default_rng(4).normal(size=len(b0))
    db *= 2e-3 / np.linalg.norm(db)

    def trajectory(memory: bool) -> list[int]:
        mixer, x, counts = PulayMixer(0.4), np.zeros(len(b0)), []
        for k in range(6):
            if memory:
                mixer.begin_step()
            else:
                mixer = PulayMixer(0.4)
            x, n = solve_fixed_point(mixer, a, b0 + k * db, x, tol=1e-4)
            counts.append(n)
        return counts

    carried, fresh = trajectory(True), trajectory(False)
    assert carried[0] == fresh[0]
    assert all(c < f for c, f in zip(carried[3:], fresh[3:]))
    assert sum(carried) < sum(fresh)


# -- fallbacks inside the mixer ----------------------------------------------


def carried_mixer(a, b, alpha=0.4, passes=6):
    """A mixer that learned ``passes − 1`` pairs on ``a x + b`` and began
    the next solve, plus the point it stopped at."""
    m = PulayMixer(alpha)
    x = np.zeros(len(b))
    for _ in range(passes):
        x = m.mix(x, a @ x + b)
    m.begin_step()
    return m, x


def fresh_replay(alpha, fed):
    """What a fresh mixer returns for the same (x, g(x)) sequence."""
    m = PulayMixer(alpha)
    return [m.mix(x, out) for x, out in fed][-1]


def test_first_residual_out_of_the_learned_range_drops_the_pairs():
    a, b = linear_map()
    m, x = carried_mixer(a, b, passes=12)  # pairs from a converged tail
    b_far = b + 1.0
    x_next = m.mix(x, a @ x + b_far)
    assert m.dropped == {"out_of_range": 1} and m.carried_pairs == 0
    np.testing.assert_array_equal(
        x_next, fresh_replay(0.4, [(x, a @ x + b_far)])
    )


def test_a_carried_step_that_raises_the_residual_drops_the_pairs():
    """Pairs learned on A mislead on −2A: the first carried step more than
    doubles |R|, the pairs go, and the rest of the solve is what a fresh
    mixer makes of the same iterates."""
    a, b = linear_map(radius=0.9)
    m, x = carried_mixer(a, b)
    fed = []
    for _ in range(3):
        out = -2.0 * a @ x + b
        fed.append((x, out))
        x = m.mix(x, out)
    assert m.dropped == {"residual_rose": 1} and m.carried_pairs == 0
    np.testing.assert_array_equal(x, fresh_replay(0.4, fed))


def test_grid_shape_change_drops_the_pairs(rng):
    m = PulayMixer(0.3)
    for _ in range(3):
        m.mix(rng.random((4, 4, 4)), rng.random((4, 4, 4)))
    m.begin_step()
    rho_in, rho_out = rng.random((6, 6, 6)), rng.random((6, 6, 6))
    np.testing.assert_array_equal(
        m.mix(rho_in, rho_out), rho_in + 0.3 * (rho_out - rho_in)
    )
    assert m.dropped == {"grid_shape": 1}


def test_dependent_pairs_fall_back_to_the_linear_step(rng):
    """Two identical ΔR (exact in floating point: small dyadic numbers)
    make the normal equations singular."""
    rho, resid, step = (
        rng.integers(0, 8, (3, 3, 3)) / 8.0 for _ in range(3)
    )
    m = PulayMixer(0.5)
    for k in range(3):
        out = m.mix(rho + k, rho + k + resid + k * step)
    np.testing.assert_array_equal(
        out, rho + 2 + 0.5 * (resid + 2 * step)
    )
    assert m.dropped == {"ill_conditioned": 1} and m.pairs == 0


def test_non_finite_residual_falls_back_to_the_linear_step(rng):
    m = PulayMixer(0.5)
    m.mix(rng.random(4), rng.random(4))
    m.mix(rng.random(4), np.full(4, np.inf))
    assert m.dropped == {"ill_conditioned": 1} and m.pairs == 0


def test_reset_counts_only_when_there_was_a_model(rng):
    m = PulayMixer(0.3)
    m.reset()
    assert m.dropped == {}
    for _ in range(2):
        m.mix(rng.random(5), rng.random(5))
    m.reset("cold_domain")
    assert m.dropped == {"cold_domain": 1} and m.pairs == 0


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_renormalize_names_the_error(value):
    """A NaN total used to pass (``nan <= 0`` is False) and scale every
    point to NaN; a zero one was a bare ValueError."""
    rho = np.ones((2, 2, 2))
    rho[0, 0, 0] = value if not np.isfinite(value) else 1.0
    if np.isfinite(value):
        rho *= value
    with pytest.raises(DensityError, match="finite positive"):
        renormalize(rho, 4.0, 1.0)
    assert issubclass(DensityError, ValueError)


# -- who owns the memory, and when it goes -----------------------------------


@pytest.fixture(scope="module")
def h4_workspace():
    """A workspace after one converged H₄ solve (its mixer holds pairs)."""
    ws = LDCWorkspace()
    result = run_ldc(h4_chain(), LDCOptions(**H4_OPTS), workspace=ws)
    assert result.converged and ws._mixer.pairs == 5
    return ws, result


def next_mixer(ws, config, options):
    ws.prepare(config, options)
    return ws.scf_mixer()


def test_next_step_carries_the_pairs(h4_workspace):
    ws = copy.deepcopy(h4_workspace[0])
    mixer = next_mixer(ws, h4_chain(0.01), LDCOptions(**H4_OPTS))
    assert mixer.carried_pairs == 5 and mixer.dropped == {}
    assert mixer.alpha == 0.4


def test_cold_domain_after_migration_drops_the_memory(h4_workspace):
    ws = copy.deepcopy(h4_workspace[0])
    mixer = next_mixer(ws, h4_chain(shift=1.2), LDCOptions(**H4_OPTS))
    assert ws.cold_domains >= 1
    assert mixer.pairs == 0 and mixer.dropped == {"cold_domain": 1}


@pytest.mark.parametrize(
    "change", [dict(buffer=2.5), dict(ecut=5.0)], ids=["buffer", "grid"]
)
def test_option_signature_change_drops_the_memory(h4_workspace, change):
    """A buffer change (the grid stays) and a cutoff change (the grid
    shape moves too) both reset the workspace, a cold start: the carried
    pairs go with it."""
    ws = copy.deepcopy(h4_workspace[0])
    shape = ws.grid.shape
    mixer = next_mixer(ws, h4_chain(), LDCOptions(**{**H4_OPTS, **change}))
    assert mixer.pairs == 0 and mixer.dropped == {"reset": 1}
    assert (ws.grid.shape == shape) == ("buffer" in change)


def test_workspace_reset_drops_the_memory(h4_workspace):
    ws = copy.deepcopy(h4_workspace[0])
    ws.reset()
    assert ws._mixer.pairs == 0 and ws._mixer.dropped == {"reset": 1}


def test_engine_cell_swap_drops_the_memory(h4_workspace):
    """The workspace's own cell check resets it: the five pairs are
    dropped once, as a reset, and the solve starts with none carried."""
    ins = Instrumentation()
    engine = LDCEngine(LDCOptions(**H4_OPTS), instrumentation=ins)
    engine.workspace = copy.deepcopy(h4_workspace[0])
    swapped = h4_chain()
    swapped.cell = np.array([12.0, 6.0, 6.0])
    engine.forces(swapped)
    dropped = ins.counter("ldc.mixer_memory_dropped", reason="reset")
    assert dropped.value == 1
    assert ins.metrics.get("ldc.mixer_carried_pairs").values == [0]


def test_cold_workspace_and_no_workspace_runs_use_a_fresh_mixer(
    h4_workspace, monkeypatch
):
    """The first solve of a workspace — a single point's throwaway one
    too — mixes like a fresh mixer: same residuals as the old DIIS."""

    class FreshDIIS(ReferenceDIIS):
        """The old DIIS behind the workspace mixer's interface; a cold
        solve only ever resets it."""

        carried_pairs = 0

        def __init__(self) -> None:
            super().__init__(alpha=0.4)  # the drivers' α
            self.dropped: dict[str, int] = {}

        def reset(self, reason: str = "reset") -> None:
            assert not self._inputs

    cold = h4_workspace[1]
    ins = Instrumentation()
    opts = LDCOptions(**H4_OPTS)
    # every pulay solve takes its mixer from a workspace
    monkeypatch.setattr(workspace_module, "PulayMixer", FreshDIIS)
    old = run_ldc(h4_chain(), opts, instrumentation=ins)
    assert ins.metrics.get("ldc.mixer_carried_pairs").values == [0]
    assert len(old.density_residuals) == len(cold.density_residuals)
    np.testing.assert_allclose(
        cold.density_residuals, old.density_residuals, rtol=1e-4
    )
    assert abs(cold.energy - old.energy) <= 1e-9


# -- the LiAl drift ----------------------------------------------------------

LIAL_OPTS = dict(
    ecut=3.0, domains=(2, 1, 1), buffer=2.0, tol=1e-5, max_iter=40,
    kt=0.02, extra_bands=4,
)


def lial_frames(n: int = 6):
    """The Li₂Al₂ constant-velocity drift of ``bench_scf_extrapolation``,
    in a 12 Bohr cell to keep tier-1 fast."""
    base = lial_nanoparticle(2, cell=[12.0, 12.0, 12.0])
    direction = np.random.default_rng(7).standard_normal(base.positions.shape)
    direction /= np.linalg.norm(direction)
    frames = []
    for k in range(n):
        cfg = base.copy()
        cfg.positions = base.positions + k * 0.04 * direction
        frames.append(cfg)
    return frames


@pytest.fixture(scope="module")
def lial_drift():
    """An engine two frames into the drift (cold step and history fill
    done once for every arm below) and the frames that follow."""
    frames = lial_frames()
    engine = LDCEngine(
        LDCOptions(**LIAL_OPTS, batch_domains=False),
        qmd_options=QMDOptions(history_depth=3),
    )
    for cfg in frames[:2]:
        engine.forces(cfg)
    return engine, frames[2:]


def replay_forces(engine, frames, no_memory=False, **option_changes):
    """Continue a copy of ``engine`` over ``frames``; returns per-frame
    (forces, energy, SCF passes)."""
    engine = copy.deepcopy(engine)
    engine.options = replace(engine.options, **option_changes)
    rows = []
    for cfg in frames:
        if no_memory:
            engine.workspace._mixer.reset()
        rows.append(engine.forces(cfg))
    return rows


def replay(engine, frames, no_memory=False, **option_changes):
    """:func:`replay_forces` without the forces: per-frame (energy, SCF
    passes)."""
    return [
        row[1:]
        for row in replay_forces(engine, frames, no_memory, **option_changes)
    ]


@pytest.fixture(scope="module")
def lial_serial(lial_drift):
    engine, frames = lial_drift
    engine = copy.deepcopy(engine)
    engine.instrumentation = ins = Instrumentation()
    rows = [engine.forces(cfg)[1:] for cfg in frames]
    return rows, ins


def test_memory_reaches_the_tight_energies_in_fewer_passes(
    lial_drift, lial_serial
):
    rows, _ = lial_serial
    tight = replay(*lial_drift, tol=1e-7)
    fresh = replay(*lial_drift, no_memory=True)
    for (energy, _), (e_tight, _), (e_fresh, _) in zip(rows, tight, fresh):
        assert abs(energy - e_tight) < 1e-6
        assert abs(e_fresh - e_tight) < 1e-6
    assert sum(p for _, p in rows) < sum(p for _, p in fresh)


#: Where the oracle's numbers come from: this host, BLAS pinned to one
#: thread, frames 2–9 of the drift on a copy of the ``lial_drift`` engine.
#: SCF passes: the parent commit (window fed the final pass's *output*)
#: [5, 3, 3, 2, 2, 3, 2, 2] = 22, this code (fed its *input*)
#: [5, 3, 3, 3, 2, 2, 2, 2] = 22 — the system is at the two-pass floor
#: either way; over the fixture's own four frames alone the counts are 13
#: and 14, one 2-vs-3 flip that the longer replay shows moving, not going.
#: max|ΔF| against the tol=1e-7 arm: 3.9e-7 Ha/Bohr (parent 3.9e-7).
ORACLE_FRAMES = 10
ORACLE_PASSES = 22
ORACLE_FORCE_BOUND = 8e-7


def test_warm_trajectory_against_the_tight_reference(lial_drift):
    """The warm default-``tol`` trajectory, frame by frame against the same
    trajectory at ``tol=1e-7``: the energy (as above) *and* the forces are
    the tight ones to well inside what ``tol`` allows — non-self-consistency
    is first order in Hellmann–Feynman forces, so they are the sharper
    probe — and the passes that took are no more than at the parent."""
    engine, _ = lial_drift
    frames = lial_frames(ORACLE_FRAMES)[2:]
    warm = replay_forces(engine, frames)
    tight = replay_forces(engine, frames, tol=1e-7)
    for (f, energy, _), (f_tight, e_tight, _) in zip(warm, tight):
        assert abs(energy - e_tight) < 1e-6
        assert np.abs(f - f_tight).max() < ORACLE_FORCE_BOUND
    assert sum(passes for _, _, passes in warm) <= ORACLE_PASSES


def test_the_returned_state_is_converged_too(lial_serial):
    """``converged`` is decided one pass before the state that goes out;
    the final pass's own residual is below ``tol`` on every warm step
    (1.7e-6, 2.3e-6, 7.5e-7, 6.2e-7 measured)."""
    rows, ins = lial_serial
    final = ins.metrics.get("scf.final_residual", engine="ldc").values
    assert len(final) == len(rows)
    assert all(0.0 < r < LIAL_OPTS["tol"] for r in final)


@pytest.mark.parametrize("path", [dict(batch_domains=True)], ids=["batched"])
def test_memory_parity_across_execution_paths(lial_drift, lial_serial, path):
    engine, frames = lial_drift
    rows, _ = lial_serial
    for (energy, passes), (e_ref, p_ref) in zip(
        replay(engine, frames[:2], **path), rows
    ):
        assert abs(energy - e_ref) <= 1e-10
        assert passes == p_ref


def test_memory_telemetry_answers_why_a_step_took_its_passes(lial_serial):
    rows, ins = lial_serial
    carried = ins.metrics.get("ldc.mixer_carried_pairs").values
    assert len(carried) == len(rows) and all(n > 0 for n in carried)
    # nothing was dropped on the steady drift, so no counter exists
    assert ins.metrics.get(
        "ldc.mixer_memory_dropped", reason="out_of_range"
    ) is None


def test_memory_drops_are_counted_by_reason(h4_workspace):
    """H₄ with a 0.02 Bohr jump per step starts three orders of magnitude
    outside the range its pairs were learned over."""
    ws = copy.deepcopy(h4_workspace[0])
    ins = Instrumentation()
    opts = LDCOptions(**{**H4_OPTS, "tol": 1e-3})
    run_ldc(h4_chain(0.02), opts, workspace=ws, instrumentation=ins)
    assert ins.metrics.get("ldc.mixer_carried_pairs").values == [0]
    assert ins.metrics.get(
        "ldc.mixer_memory_dropped", reason="out_of_range"
    ).value == 1
    assert ws._mixer.dropped == {}  # reported once, then cleared
