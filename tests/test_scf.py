"""Tests for the conventional O(N³) SCF driver."""

import numpy as np
import pytest

from repro.dft.scf import SCFOptions, initial_density, run_scf
from repro.systems import dimer


def test_h2_converges(h2_scf):
    assert h2_scf.converged
    assert h2_scf.iterations <= 30


def test_h2_energy_negative_and_bound(h2_scf):
    assert -2.0 < h2_scf.energy < 0.0


def test_h2_electron_count(h2_scf):
    assert h2_scf.grid.integrate(h2_scf.density) == pytest.approx(2.0, rel=1e-9)


def test_h2_density_nonnegative(h2_scf):
    assert h2_scf.density.min() >= -1e-12


def test_h2_occupations(h2_scf):
    # 2 electrons, tiny smearing: first band ~2, rest ~0
    assert h2_scf.occupations[0] == pytest.approx(2.0, abs=1e-3)
    assert h2_scf.occupations[-1] < 1e-3


def test_h2_homo_below_mu(h2_scf):
    assert h2_scf.eigenvalues[0] < h2_scf.mu


def test_h2_orbitals_orthonormal(h2_scf):
    s = h2_scf.orbitals.conj().T @ h2_scf.orbitals
    np.testing.assert_allclose(s, np.eye(s.shape[0]), atol=1e-7)


def test_energy_history_converges(h2_scf):
    """Late-iteration energies should settle to the final value."""
    hist = np.array(h2_scf.history)
    assert abs(hist[-1] - h2_scf.energy) < 1e-5


def test_density_residual_decreases(h2_scf):
    res = np.array(h2_scf.density_residuals)
    assert res[-1] < res[0]


def test_initial_density_normalized():
    cfg = dimer("O", "H", 1.8, 12.0)
    from repro.dft.grid import RealSpaceGrid

    grid = RealSpaceGrid.for_cutoff(cfg.cell, 6.0)
    rho = initial_density(grid, cfg)
    assert grid.integrate(rho) == pytest.approx(cfg.n_electrons(), rel=1e-9)
    assert rho.min() >= 0.0


def test_scf_eigensolver_consistency(h2_config):
    """Direct and all-band eigensolvers must give the same SCF energy."""
    e = {}
    for solver in ("direct", "all_band"):
        opts = SCFOptions(ecut=6.0, extra_bands=2, tol=1e-7, eigensolver=solver)
        e[solver] = run_scf(h2_config, opts).energy
    assert e["direct"] == pytest.approx(e["all_band"], abs=1e-5)


def test_scf_translation_invariance(h2_config):
    """Total energy must be invariant under rigid translation."""
    opts = SCFOptions(ecut=6.0, extra_bands=2, tol=1e-7)
    e0 = run_scf(h2_config, opts).energy
    shifted = h2_config.translated([1.234, -0.77, 2.5])
    e1 = run_scf(shifted, opts).energy
    assert e1 == pytest.approx(e0, abs=2e-4)


def test_scf_binding_curve_has_minimum():
    """Toy H2 must bind: the curve has a minimum near 2.5 Bohr separation."""
    opts = SCFOptions(ecut=7.0, extra_bands=2, tol=1e-6)
    energies = {
        sep: run_scf(dimer("H", "H", sep, 14.0), opts).energy
        for sep in (1.0, 2.5, 5.0)
    }
    assert energies[2.5] < energies[1.0]
    assert energies[2.5] < energies[5.0]


def test_scf_mixer_choice(h2_config):
    opts_l = SCFOptions(ecut=6.0, tol=1e-6, mixer="linear", mix_alpha=0.3, max_iter=80)
    opts_p = SCFOptions(ecut=6.0, tol=1e-6, mixer="pulay")
    res_l = run_scf(h2_config, opts_l)
    res_p = run_scf(h2_config, opts_p)
    assert res_l.converged and res_p.converged
    assert res_l.energy == pytest.approx(res_p.energy, abs=1e-5)
    # Pulay should not be slower
    assert res_p.iterations <= res_l.iterations


def test_scf_invalid_mixer(h2_config):
    with pytest.raises(ValueError):
        run_scf(h2_config, SCFOptions(mixer="nope"))


def test_scf_invalid_eigensolver(h2_config):
    with pytest.raises(ValueError):
        run_scf(h2_config, SCFOptions(eigensolver="nope"))


def test_scf_with_external_potential(h2_config):
    """A constant v_extra rigidly shifts eigenvalues but not the total energy
    structure (band energy shift is compensated by electron count × shift)."""
    from repro.dft.grid import RealSpaceGrid

    opts = SCFOptions(ecut=6.0, extra_bands=2, tol=1e-7)
    grid = RealSpaceGrid.for_cutoff(h2_config.cell, opts.ecut, opts.grid_factor)
    base = run_scf(h2_config, opts, grid=grid)
    shift = 0.3
    shifted = run_scf(
        h2_config, opts, v_extra=np.full(grid.shape, shift), grid=grid
    )
    np.testing.assert_allclose(
        shifted.eigenvalues, base.eigenvalues + shift, atol=1e-5
    )
    assert shifted.mu == pytest.approx(base.mu + shift, abs=1e-5)


def test_scf_warm_start_density(h2_config, h2_scf):
    """Warm-starting from the converged density converges immediately."""
    opts = SCFOptions(ecut=8.0, extra_bands=3, tol=1e-8, eig_tol=1e-9)
    res = run_scf(h2_config, opts, rho0=h2_scf.density)
    assert res.converged
    assert res.iterations <= 3
    assert res.energy == pytest.approx(h2_scf.energy, abs=1e-6)


def test_water_molecule_scf():
    """A slightly bigger molecule (8 electrons) also converges."""
    from repro.systems import water_molecule

    w = water_molecule(center=(7.0, 7.0, 7.0), cell=(14.0, 14.0, 14.0))
    opts = SCFOptions(ecut=6.0, extra_bands=3, tol=1e-5, max_iter=80)
    res = run_scf(w, opts)
    assert res.converged
    assert res.energy < 0
    # all 8 electrons accounted for
    assert res.grid.integrate(res.density) == pytest.approx(8.0, rel=1e-8)


# -- one total-energy expression ------------------------------------------------


def test_energy_is_second_order_in_the_scf_residual():
    """The Harris–Foulkes form (everything at the pass's input density) is
    second order in the residual: a ``tol=1e-3`` run already has the
    ``tol=1e-10`` energy to 1e-6 Ha (measured 1.6e-8; integrating the double
    counting over the output density gave 1.9e-4), and the parts
    ``SCFResult`` reports are the parts of that one expression."""
    from repro.systems import water_molecule

    water = water_molecule(center=(6.0, 6.0, 6.0), cell=(12.0, 12.0, 12.0))
    loose, tight = (
        run_scf(water, SCFOptions(ecut=5.0, kt=0.01, tol=tol, max_iter=80))
        for tol in (1e-3, 1e-10)
    )
    assert loose.converged and tight.converged
    assert loose.iterations < tight.iterations
    assert abs(loose.energy - tight.energy) < 1e-6
    for res in (loose, tight):
        parts = (res.band_energy - res.double_count + res.hartree + res.xc
                 + res.ewald + res.entropy_term)
        assert abs(parts - res.energy) <= 1e-12


# -- the one SCF loop, on a map that is not DFT -----------------------------------


class ContractionMap:
    """``g(ρ) = ρ* + A (ρ − ρ*)`` on a 4³ grid, with the columns of ``A``
    summing to zero so every output integrates to the electron count and the
    loop's clip + renormalize leave it alone.  Records the inputs it sees."""

    def __init__(self, radius=0.5, seed=3):
        from repro.dft.grid import RealSpaceGrid

        self.config = dimer("H", "H", 1.4, 4.0)
        self.grid = RealSpaceGrid(self.config.cell, (4, 4, 4))
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(64, 64))
        a -= a.mean(axis=0)
        self.a = a * radius / np.abs(np.linalg.eigvals(a)).max()
        fixed = 1.0 + 0.1 * rng.random(64)
        self.fixed = (fixed * 2.0 / (fixed.sum() * self.grid.dv)).reshape(4, 4, 4)
        self.inputs = []

    def __call__(self, rho_in, iteration):
        self.inputs.append((iteration, rho_in))
        delta = (self.a @ (rho_in - self.fixed).ravel()).reshape(4, 4, 4)
        rho_out = self.fixed + delta
        return rho_out, float(np.abs(delta).sum()), 0.25, {"probe": 1.5}

    def solve(self, tol=1e-9, max_iter=60, mixer="pulay", **kwargs):
        from repro.dft.scf import scf_fixed_point

        options = SCFOptions(
            tol=tol, max_iter=max_iter, mixer=mixer, mix_alpha=0.5
        )
        return scf_fixed_point(
            self, self.config, self.grid, None, options, "pw", **kwargs
        )


def test_fixed_point_loop_converges_on_a_linear_contraction():
    toy = ContractionMap()
    out = toy.solve()
    assert out.converged and out.iterations < 60
    assert np.abs(out.density - toy.fixed).max() < 1e-8
    assert out.mu == 0.25 and 0.0 <= out.energy < out.history[0]
    assert len(out.history) == len(out.density_residuals) == out.iterations
    assert out.density_residuals[-1] < 1e-9 <= out.density_residuals[-2]
    # one evaluation per pass, numbered from 1, then the final one
    assert [it for it, _ in toy.inputs] == [*range(1, out.iterations + 1), None]


@pytest.mark.parametrize("continues", [False, True])
def test_final_pass_runs_at_the_output_or_at_the_mixer_iterate(continues):
    """The solve of a single point finishes at the converged ρ_out; one
    that continues a trajectory at the mixer's next iterate (a linear
    mixer here, so the iterate can be written down)."""
    toy = ContractionMap()
    out = toy.solve(mixer="linear", tol=1e-4, continues=continues)
    assert out.converged
    (_, last_in), (final, final_in) = toy.inputs[-2:]
    assert final is None
    last_out = toy.fixed + (toy.a @ (last_in - toy.fixed).ravel()).reshape(4, 4, 4)
    expected = last_in + 0.5 * (last_out - last_in) if continues else last_out
    np.testing.assert_allclose(final_in, expected, rtol=0.0, atol=1e-14)


def test_exhausted_budget_is_reported_not_hidden():
    from repro.observability import Instrumentation
    from repro.observability.health import STATUS_FAIL, HealthMonitor

    toy = ContractionMap(radius=0.95)
    ins = Instrumentation(health=HealthMonitor(keep_ok=True))
    out = toy.solve(tol=1e-14, max_iter=3, ins=ins)
    assert not out.converged and out.iterations == 3
    assert np.isfinite(out.density).all() and np.isfinite(out.energy)
    verdicts = [
        r for r in ins.health.records if r.invariant == "solver_convergence"
    ]
    assert [r.status for r in verdicts] == [STATUS_FAIL]
    assert verdicts[0].context["solver"] == "scf[pw]"
    assert verdicts[0].context["iterations"] == 3
    # the map's own attributes ride on the per-pass span
    spans = [s for s in ins.tracer.spans() if s.name == "scf.iteration"]
    assert len(spans) == 3 and all(s.attrs["probe"] == 1.5 for s in spans)


@pytest.mark.parametrize(
    "continues, budget, converged",
    [
        (False, dict(tol=1e-4), True),
        (True, dict(tol=1e-4), True),
        (True, dict(tol=1e-14, max_iter=3), False),
    ],
    ids=["single-point", "continues", "exhausted"],
)
def test_input_density_is_what_the_final_pass_received(
    continues, budget, converged
):
    """All three exits of the loop hand back the array the final evaluation
    was given — the converged ρ_out, the mixer's next iterate, the last
    mixed iterate — and it is the loop's own: no mixer buffer shares it."""
    from repro.dft.mixing import PulayMixer
    from repro.dft.scf import scf_fixed_point

    toy = ContractionMap(radius=0.5 if converged else 0.95)
    mixer = PulayMixer(alpha=0.5)  # a caller-owned one, to look inside
    out = scf_fixed_point(
        toy, toy.config, toy.grid, None, SCFOptions(**budget), "pw",
        mixer=mixer, continues=continues,
    )
    assert out.converged is converged and mixer.pairs >= 1
    final, final_in = toy.inputs[-1]
    assert final is None and out.input_density is final_in
    assert not any(
        np.shares_memory(out.input_density, kept)
        for kept in (mixer._input, mixer._resid, mixer._d_rho, mixer._d_res)
    )
    # density keeps its meaning: the final pass's output, N_e electrons
    np.testing.assert_allclose(
        out.density, toy(final_in, None)[0], rtol=0.0, atol=1e-14
    )
    assert toy.grid.integrate(out.density) == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("continues", [False, True])
def test_final_residual_is_that_of_the_returned_pass(continues, caplog):
    """``density_residuals[-1]`` describes the pass that converged; the
    final pass has a residual of its own, recorded wherever the loop
    reports (series, health record, log) and steering nothing."""
    import logging

    from repro.observability import Instrumentation
    from repro.observability.health import HealthMonitor

    toy = ContractionMap()
    ins = Instrumentation(health=HealthMonitor(keep_ok=True))
    with caplog.at_level(logging.INFO, logger=ins.log.name):
        out = toy.solve(mixer="linear", tol=1e-4, continues=continues, ins=ins)
    expected = toy.grid.integrate(
        np.abs(out.density - out.input_density)
    ) / toy.config.n_electrons()
    assert out.final_residual == expected
    assert 0.0 < out.final_residual < out.density_residuals[-1] < 1e-4
    assert ins.metrics.get("scf.final_residual", engine="pw").values == [expected]
    (verdict,) = [
        r for r in ins.health.records if r.invariant == "solver_convergence"
    ]
    assert verdict.context["final_residual"] == expected
    (finished,) = [
        r for r in caplog.records if r.getMessage() == "scf finished"
    ]
    assert finished.final_residual == expected
    # the bare loop and the instrumented one are the same arithmetic
    assert ContractionMap().solve(
        mixer="linear", tol=1e-4, continues=continues
    ).final_residual == expected


def _solve_scf(cfg, **kwargs):
    return run_scf(cfg, SCFOptions(ecut=4.0, tol=1e-4), **kwargs)


def _solve_ldc(cfg, **kwargs):
    from repro.core import LDCOptions, run_ldc

    return run_ldc(
        cfg, LDCOptions(ecut=4.0, domains=(2, 1, 1), buffer=1.5, tol=1e-4),
        **kwargs,
    )


@pytest.mark.parametrize("solve", [_solve_scf, _solve_ldc], ids=["scf", "ldc"])
def test_warm_start_admission_is_the_same_for_both_maps(solve):
    """A stale-shaped ``rho0`` is a cold start (bit for bit), a non-finite
    one a named error — decided once, in the loop both drivers share."""
    from repro.dft.mixing import DensityError
    from repro.observe import OFF

    cfg = dimer("H", "H", 1.5, 10.0)
    cold = solve(cfg)
    stale = solve(cfg, rho0=np.ones((3, 3, 3)))
    assert stale.energy == cold.energy and stale.iterations == cold.iterations
    broken = np.full(cold.grid.shape, 0.01)
    broken[0, 0, 0] = np.nan
    # OFF, not None: under REPRO_SANITIZE the rho0 tripwire fires first
    with pytest.raises(DensityError, match="finite positive"):
        solve(cfg, rho0=broken, instrumentation=OFF)


@pytest.mark.parametrize("engine_name", ["scf", "ldc"])
def test_engine_window_receives_the_input_density(engine_name, monkeypatch):
    """One rule for both engines: the density window's head is the very
    array the returned state was solved at, not the final pass's output."""
    import repro.core.ldc as ldc_module
    import repro.dft.scf as scf_module
    from repro.core import LDCOptions
    from repro.md.qmd import LDCEngine, SCFEngine

    if engine_name == "scf":
        module, name = scf_module, "run_scf"
        engine = SCFEngine(SCFOptions(ecut=4.0, tol=1e-4))
    else:
        module, name = ldc_module, "run_ldc"
        engine = LDCEngine(
            LDCOptions(ecut=4.0, domains=(2, 1, 1), buffer=1.5, tol=1e-4)
        )
    results = []
    solver = getattr(module, name)

    def tapped(*args, **kwargs):
        results.append(solver(*args, **kwargs))
        return results[-1]

    # the engines look the solver up at call time
    monkeypatch.setattr(module, name, tapped)
    for bond in (1.5, 1.52):
        engine.forces(dimer("H", "H", bond, 10.0))
        result = results[-1]
        assert engine._rho_hist[0] is result.input_density
        assert result.input_density is not result.density
        assert result.final_residual == result.grid.integrate(
            np.abs(result.density - result.input_density)
        ) / 2.0
    # the second solve started from the first one's input density
    assert len(results) == 2 and len(engine._rho_hist) == 1
