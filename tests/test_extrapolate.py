"""Tests for ASPC orbital/density extrapolation (repro.md.extrapolate) and
its integration: workspace history windows, NVE energy-drift parity, and
the run-ledger series."""

import numpy as np
import pytest

from repro.core import LDCOptions, LDCWorkspace, run_ldc
from repro.md.extrapolate import (
    DomainHistory,
    align_to_reference,
    aspc_coefficients,
    extrapolate_fields,
    extrapolate_orbitals,
    subspace_residual,
)
from repro.md.qmd import LDCEngine, QMDOptions
from repro.observability import Instrumentation
from repro.systems.configuration import Configuration
from repro.util.linalg import lowdin_orthonormalize

OPTS = dict(ecut=4.0, domains=(2, 1, 1), buffer=2.0, tol=1e-6, max_iter=30)


def h4_chain(shift: float = 0.0) -> Configuration:
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


def random_orthonormal(npw: int, nband: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((npw, nband)) + 1j * rng.standard_normal(
        (npw, nband)
    )
    q, _ = np.linalg.qr(m)
    return q[:, :nband]


# -- the predictor math -------------------------------------------------------


def test_aspc_coefficient_values():
    assert np.allclose(aspc_coefficients(1), [1.0])
    assert np.allclose(aspc_coefficients(2), [2.0, -1.0])
    assert np.allclose(aspc_coefficients(3), [2.5, -2.0, 0.5])
    with pytest.raises(ValueError):
        aspc_coefficients(0)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_aspc_coefficients_are_consistent(k):
    """Σ B_j = 1 (constant histories are continued exactly) and, for
    k >= 2, Σ B_j (1-j) = 1 (linear histories too — time-reversibility)."""
    coeffs = aspc_coefficients(k)
    assert np.isclose(coeffs.sum(), 1.0)
    if k >= 2:
        j = np.arange(1, k + 1)
        assert np.isclose((coeffs * (1.0 - j)).sum(), 1.0)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_field_extrapolation_exact_on_linear_history(k):
    """A field moving at constant velocity is predicted exactly: the window
    holds f(t-i) = a - i*d newest-first, the prediction is f(t+1) = a + d."""
    rng = np.random.default_rng(3)
    a = rng.random((4, 4, 4))
    d = 0.01 * rng.standard_normal((4, 4, 4))
    history = [a - i * d for i in range(k)]
    pred = extrapolate_fields(history)
    assert np.allclose(pred, a + d, atol=1e-12)


def test_field_extrapolation_nonnegative_clip():
    history = [np.full((2, 2, 2), 0.1), np.full((2, 2, 2), 0.5)]
    pred = extrapolate_fields(history, nonnegative=True)  # 2*0.1 - 0.5 < 0
    assert np.all(pred >= 0.0)


def test_depth_one_returns_verbatim_copy():
    """Depth 1 degrades exactly to the last-state warm start — same values,
    fresh array (the caller mutates its seed in place)."""
    psi = random_orthonormal(12, 3, seed=1)
    out = extrapolate_orbitals([psi])
    assert out is not psi
    assert np.array_equal(out, psi)
    rho = np.random.default_rng(2).random((3, 3, 3))
    out_f = extrapolate_fields([rho])
    assert out_f is not rho and np.array_equal(out_f, rho)


def test_lowdin_restores_orthonormality():
    psi = random_orthonormal(16, 4, seed=5) + 0.05 * random_orthonormal(
        16, 4, seed=6
    )
    fixed = lowdin_orthonormalize(psi)
    overlap = fixed.conj().T @ fixed
    assert np.allclose(overlap, np.eye(4), atol=1e-10)


def test_orbital_extrapolation_is_gauge_invariant():
    """Scrambling the band gauge of the older history entries must not
    change the predicted subspace (the Procrustes alignment's job)."""
    rng = np.random.default_rng(11)
    base = random_orthonormal(20, 3, seed=7)
    drift = 0.02 * (
        rng.standard_normal((20, 3)) + 1j * rng.standard_normal((20, 3))
    )
    history = [
        lowdin_orthonormalize(base - i * drift) for i in range(3)
    ]
    pred_plain = extrapolate_orbitals([h.copy() for h in history])
    # rotate the two older entries by random unitaries
    scrambled = [history[0].copy()]
    for h in history[1:]:
        q, _ = np.linalg.qr(
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        )
        scrambled.append(h @ q)
    pred_scrambled = extrapolate_orbitals(scrambled)
    proj_plain = pred_plain @ pred_plain.conj().T
    proj_scrambled = pred_scrambled @ pred_scrambled.conj().T
    assert np.allclose(proj_plain, proj_scrambled, atol=1e-8)


def test_subspace_residual_gauge_invariant_and_shape_safe():
    psi = random_orthonormal(18, 4, seed=9)
    q, _ = np.linalg.qr(
        np.random.default_rng(10).standard_normal((4, 4))
    )
    assert subspace_residual(psi, psi @ q) < 1e-10
    other = random_orthonormal(18, 4, seed=12)
    assert subspace_residual(psi, other) > 0.1
    assert np.isnan(subspace_residual(psi, psi[:, :2]))


def test_alignment_reduces_distance():
    ref = random_orthonormal(14, 3, seed=20)
    q, _ = np.linalg.qr(np.random.default_rng(21).standard_normal((3, 3)))
    rotated = ref @ q
    aligned = align_to_reference(rotated, ref)
    assert np.linalg.norm(aligned - ref) < 1e-10


# -- the history window -------------------------------------------------------


def test_domain_history_push_predict_and_trim():
    hist = DomainHistory(depth=2)
    key = (12, 3, (0, 1))
    blocks = [random_orthonormal(12, 3, seed=s) for s in range(4)]
    for b in blocks:
        hist.push(key, b, None, None)
    assert len(hist) == 2  # bounded window
    pred = hist.predict(key)
    assert pred is not None
    psi, vbc, rho = pred
    assert vbc is None and rho is None
    assert psi.shape == (12, 3)
    assert hist.last_prediction is psi


def test_domain_history_key_change_invalidates():
    """Atom migration / band-count change → new key → cleared window."""
    hist = DomainHistory(depth=3)
    psi = random_orthonormal(12, 3, seed=1)
    hist.push((12, 3, (0, 1)), psi, None, None)
    assert hist.predict((12, 3, (0, 2))) is None  # different atoms
    hist.push((12, 3, (0, 1)), psi, None, None)
    assert hist.predict((12, 4, (0, 1))) is None  # different band count
    hist.push((12, 4, (0, 1)), random_orthonormal(12, 4, seed=2), None, None)
    assert len(hist) == 1  # the push under the new key restarted the window


def test_domain_history_predict_returns_fresh_arrays():
    """The LDC driver mutates its seeds in place — predictions must never
    alias into the stored window."""
    hist = DomainHistory(depth=2)
    key = (12, 3, (0,))
    vbc = np.random.default_rng(3).random((4, 4, 4))
    rho = np.random.default_rng(4).random((4, 4, 4))
    hist.push(key, random_orthonormal(12, 3, seed=5), vbc, rho)
    psi_p, vbc_p, rho_p = hist.predict(key)
    psi_p += 1.0
    vbc_p += 1.0
    rho_p += 1.0
    psi_2, vbc_2, rho_2 = hist.predict(key)
    assert np.abs(vbc_2 - (vbc_p - 1.0)).max() < 1e-12
    assert np.abs(rho_2 - (rho_p - 1.0)).max() < 1e-12
    assert np.abs(psi_2 - (psi_p - 1.0)).max() < 1e-12


def test_fields_only_window_predicts_fields_and_settles_nothing():
    """ψ = None is a fields-only window (an LDC trajectory's global
    density): the prediction is the ASPC field extrapolation, clipped
    nonnegative, and there is no ψ prediction for ``push`` to settle."""
    hist = DomainHistory(depth=3)
    key = ((10.0, 5.0, 5.0), (20, 10, 10))
    rng = np.random.default_rng(6)
    rhos = [rng.random((4, 4, 4)) for _ in range(3)]
    for rho in rhos:
        assert hist.push(key, None, None, rho) is None
    psi, vbc, rho = hist.predict(key)
    assert psi is None and vbc is None and hist.last_prediction is None
    expected = np.clip(2.5 * rhos[2] - 2.0 * rhos[1] + 0.5 * rhos[0], 0, None)
    np.testing.assert_allclose(rho, expected, rtol=0, atol=1e-14)
    assert hist.push(key, None, None, rhos[0]) is None
    assert hist.predict(((11.0, 5.0, 5.0), (20, 10, 10))) is None


def test_push_returns_the_residual_of_the_prediction_it_settles():
    hist = DomainHistory(depth=2)
    key = (12, 3, (0,))
    first = random_orthonormal(12, 3, seed=30)
    assert hist.push(key, first, None, None) is None  # nothing predicted
    guess = hist.predict(key)[0]
    converged = random_orthonormal(12, 3, seed=31)
    res = hist.push(key, converged, None, None)
    assert res == subspace_residual(guess, converged) > 0.1
    assert hist.last_prediction is None
    # settled once: the next push has nothing to settle
    assert hist.push(key, converged, None, None) is None
    # a block of another shape (a new key) is no comparison
    hist.predict(key)
    assert hist.push((12, 2, (0,)), converged[:, :2], None, None) is None


def test_predict_releases_the_snapshot_no_later_prediction_reads():
    """A full window drops its oldest snapshot when it predicts, so it
    holds depth − 1 until the push; a miss drops nothing, and the push
    leaves exactly what the trim at push time used to."""
    hist = DomainHistory(depth=3)
    key = (12, 3, (0,))
    blocks = [random_orthonormal(12, 3, seed=s) for s in range(3)]
    for b in blocks:
        hist.push(key, b, None, None)
    assert hist.predict((12, 3, (1,))) is None and len(hist) == 3
    hist.predict(key)
    assert [id(e[0]) for e in hist._entries] == [id(blocks[2]), id(blocks[1])]
    hist.push(key, blocks[0], None, None)
    assert [id(e[0]) for e in hist._entries] == [
        id(blocks[0]), id(blocks[2]), id(blocks[1])
    ]
    short = DomainHistory(depth=1)
    short.push(key, blocks[0], None, None)
    assert short.predict(key) is not None and len(short) == 0


# -- workspace integration ----------------------------------------------------


def test_workspace_depth3_matches_depth1_physics():
    """A depth-3 trajectory converges to the same energies as depth-1 (the
    predictor changes the seed, never the fixed point)."""
    shifts = [0.0, 0.05, 0.10, 0.15]
    energies = {}
    opts = LDCOptions(**OPTS)
    for depth in (1, 3):
        ws = LDCWorkspace(history_depth=depth)
        es = []
        for s in shifts:
            r = run_ldc(h4_chain(shift=s), opts, workspace=ws)
            assert r.converged
            es.append(r.energy)
        energies[depth] = es
    for e1, e3 in zip(energies[1], energies[3]):
        assert e3 == pytest.approx(e1, abs=1e-6)


def test_workspace_migration_invalidates_history_at_depth3():
    """Atom migration under a deep window must cold-start the affected
    domains (stale extrapolation across a band-count change would feed the
    solver a wrong-shaped or wrong-problem seed)."""
    ws = LDCWorkspace(history_depth=3)
    opts = LDCOptions(**OPTS)
    for s in (0.0, 0.05):
        run_ldc(h4_chain(shift=s), opts, workspace=ws)
    assert ws.warm_domains == 2
    moved = h4_chain(shift=1.2)  # crosses the domain boundary
    migrated = run_ldc(moved, opts, workspace=ws)
    assert ws.cold_domains >= 1
    fresh = run_ldc(moved, LDCOptions(**OPTS))
    assert migrated.energy == pytest.approx(fresh.energy, abs=1e-5)


def test_predictor_residual_series_recorded():
    ws = LDCWorkspace(history_depth=3)
    opts = LDCOptions(**OPTS)
    ins = Instrumentation()
    for s in (0.0, 0.05, 0.10):
        r = run_ldc(h4_chain(shift=s), opts, workspace=ws, instrumentation=ins)
    series = ins.metrics.get("ldc.predictor_residual")
    assert len(series.values) == 2  # steps 2 and 3 had predictions to score
    assert all(np.isfinite(v) and v >= 0 for v in series.values)
    assert r.predictor_residual == pytest.approx(series.values[-1])


# -- MD-level behaviour -------------------------------------------------------


def test_nve_drift_parity_extrapolated_vs_last_state():
    """ASPC seeding must not bias NVE dynamics: total-energy drift over a
    short trajectory matches the depth-1 warm start to well under the
    conservation scale."""
    from repro.md.integrator import initialize_velocities
    from repro.md.qmd import QMDDriver

    drifts = {}
    for depth in (1, 3):
        cfg = h4_chain()
        initialize_velocities(cfg, 50.0, seed=8)
        engine = LDCEngine(
            LDCOptions(**OPTS), qmd_options=QMDOptions(history_depth=depth)
        )
        driver = QMDDriver(engine, timestep=5.0)
        frames = driver.run(cfg, 4)
        total = [f.total_energy for f in frames]
        drifts[depth] = abs(total[-1] - total[0])
    assert drifts[3] == pytest.approx(drifts[1], abs=5e-6)


def test_ledger_manifest_carries_predictor_series():
    """The eigensolver-iterations and iterations-saved series land in the
    metrics snapshot, which a run directory keeps as its hashed ``metrics.json``."""
    ins = Instrumentation()
    engine = LDCEngine(
        LDCOptions(**OPTS),
        instrumentation=ins,
        qmd_options=QMDOptions(history_depth=3),
    )
    for s in (0.0, 0.05, 0.10):
        engine.forces(h4_chain(shift=s))
    snapshot = ins.metrics.snapshot()
    for name in ("qmd.eig_iterations", "qmd.eig_iters_saved"):
        assert any(
            key.startswith(name) and rec["kind"] == "series" and rec["values"]
            for key, rec in snapshot.items()
        ), name
