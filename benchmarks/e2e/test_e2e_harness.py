"""Tests of the benchmark harness itself (not of the program it measures).

Run as ``python -m pytest benchmarks/e2e -q``; a few seconds, on an H2
dimer that is not one of the named workloads.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


# -- self-time arithmetic ------------------------------------------------------

def test_self_time_nested():
    root = Span("root", 0.0, 10.0)
    a = Span("a", 1.0, 4.0, parent=root)
    b = Span("b", 5.0, 9.0, parent=root)
    leaf = Span("leaf", 6.0, 8.0, parent=b)
    selfs = tracing.self_times([root, a, b, leaf])
    assert selfs[id(root)] == pytest.approx(10.0 - 3.0 - 4.0)
    assert selfs[id(a)] == pytest.approx(3.0)
    assert selfs[id(b)] == pytest.approx(4.0 - 2.0)  # only direct children
    assert selfs[id(leaf)] == pytest.approx(2.0)
    assert sum(selfs.values()) == pytest.approx(root.duration)


def test_self_time_two_threads():
    # the coordinator waits 0..10 while a worker thread runs 2..9: the
    # worker's span is nobody's child and takes nothing from the waiter
    wait = Span("wait", 0.0, 10.0, tid=1)
    work = Span("work", 2.0, 9.0, tid=2)
    inner = Span("inner", 3.0, 5.0, parent=work, tid=2)
    selfs = tracing.self_times([wait, work, inner])
    assert selfs[id(wait)] == pytest.approx(10.0)
    assert selfs[id(work)] == pytest.approx(5.0)
    assert selfs[id(inner)] == pytest.approx(2.0)


def test_recorder_keeps_one_stack_per_thread():
    import threading

    ticks = iter(range(100))
    recorder = tracing.SpanRecorder(clock=lambda: float(next(ticks)))
    outer = recorder.begin("outer", ())

    def on_worker():
        span = recorder.begin("worker", (np.zeros((2, 3)),))
        recorder.end(span, {"n": 1})

    thread = threading.Thread(target=on_worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    recorder.end(outer, None)
    worker = next(s for s in recorder.spans if s.name == "worker")
    assert worker.parent is None and worker.tid != outer.tid
    assert worker.shapes == ((2, 3),) and worker.attrs == {"n": 1}


# -- shims on a real (tiny) calculation -----------------------------------------

def _h2_ldc_step():
    from repro.core.ldc import LDCOptions
    from repro.md.qmd import LDCEngine
    from repro.systems.toys import dimer

    engine = LDCEngine(LDCOptions(
        ecut=3.0, domains=(2, 1, 1), buffer=2.0, tol=1e-3, max_iter=3,
        batch_domains=False,
    ))
    return engine.forces(dimer("H", "H", 1.5, 10.0))


def _repro_attributes() -> dict:
    snapshot = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "repro" or name.startswith("repro.")):
            for attr, value in vars(mod).items():
                snapshot[name, attr] = value
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        snapshot[name, attr, cattr] = cvalue
    return snapshot


def test_install_remove_restores_by_identity_and_untraced_runs_no_shim():
    _h2_ldc_step()  # load every lazily imported module first
    before = _repro_attributes()

    recorder = tracing.SpanRecorder()
    patches = tracing.install(recorder)
    patched = _repro_attributes()
    import repro.core.ldc
    import repro.dft.hartree

    assert repro.core.ldc.hartree_potential is not before[
        "repro.core.ldc", "hartree_potential"]  # by-value importer rebound
    assert repro.core.ldc.hartree_potential is repro.dft.hartree.hartree_potential
    assert patched["repro.dft.basis", "PlaneWaveBasis", "to_grid"] is not before[
        "repro.dft.basis", "PlaneWaveBasis", "to_grid"]
    root = recorder.begin(layers.STEP_SPAN, ())
    traced_out = _h2_ldc_step()
    recorder.end(root, {"k": 0})
    tracing.remove(patches)

    after = _repro_attributes()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []

    names = {s.name for s in recorder.spans}
    assert {"LDCEngine.forces", "run_ldc", "solve_all_band",
            "Hamiltonian.apply", "PlaneWaveBasis.to_grid", "ewald"} <= names
    assert names - {layers.STEP_SPAN} <= set(tracing.METRIC_OF)

    # the layer table of the traced step sums to its wall
    metrics = layers.layer_metrics(recorder.spans, steady_from=0)
    total = sum(metrics[m] for m in layers.TIME_METRICS)
    total += metrics["bench.unattributed_share"] * metrics["bench.step_mean_s"]
    assert total == pytest.approx(metrics["bench.step_mean_s"], rel=1e-9)
    assert metrics["dft.ewald.calls"] == 2
    assert metrics["dft.basis.fft_gflops"] > 0

    # untraced again: not one frame of tracing.py executes
    files = set()

    def profiler(frame, event, arg):
        if event == "call":
            files.add(frame.f_code.co_filename)

    sys.setprofile(profiler)
    try:
        untraced_out = _h2_ldc_step()
    finally:
        sys.setprofile(None)
    assert not any(f.endswith("tracing.py") for f in files)
    assert any(f.endswith("ldc.py") for f in files)
    assert untraced_out[1] == traced_out[1]  # shims do not touch the physics


# -- aggregation -----------------------------------------------------------------

def _record(walls, **extra):
    return {
        "steps": [{"k": k, "wall_s": w, "energy": -1.0, "total_energy": None,
                   "scf_iterations": 5, "converged": True, "finite": True}
                  for k, w in enumerate(walls)],
        "min_steps": 4, "steady_from": 2, "setup_s": 0.5, "peak_rss_mb": 100.0,
        "smooth_tol": None, "reference_tol": 1e-6, "natoms": 8,
        "workload": "w", "parity_with": None, **extra,
    }


def test_per_index_minimum_aggregation():
    a = _record([9.0, 5.0, 1.0, 3.0, 2.0])  # one run kept going longer
    b = _record([8.0, 6.0, 2.0, 1.0])
    assert run.per_index_min([a, b]) == [8.0, 5.0, 1.0, 1.0, 2.0]
    e2e = run.end_to_end([a, b], [0.4, 0.6, 0.5])
    assert e2e["first_step_s"] == 8.0
    assert e2e["traj_wall_s"] == 8.0 + 5.0 + 1.0 + 1.0  # first min_steps only
    assert e2e["step_s"] == pytest.approx((1.0 + 1.0 + 2.0) / 3)
    assert e2e["setup_s"] == 0.5
    assert e2e["scf_per_step"] == 5
    loo = run.leave_one_out([a, b])
    assert loo["first_step_s"] == [8.0, 9.0]
    assert run.leave_one_out([a]) == {}


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0, 2.0, 3.0]) == (50.0, 2.0)
    pct, value = run.tail([float(i) for i in range(30)])
    assert value == 19.0 and pct == pytest.approx(100 * 19 / 29)


def test_step_failures():
    ok = _record([1.0, 1.0, 1.0])
    assert run.step_failures(ok) == {}
    assert set(run.step_failures(ok, reference=[-1.0, -1.0 + 5e-6])) == {1}
    bad = _record([1.0, 1.0, 1.0])
    bad["steps"][1]["converged"] = False
    bad["steps"][2]["finite"] = False
    assert set(run.step_failures(bad)) == {1, 2}
    jump = _record([1.0] * 4, smooth_tol=1e-4)
    jump["steps"][2]["energy"] = -1.01
    assert set(run.step_failures(jump)) == {2, 3}
    parity = _record([1.0, 1.0])
    other = _record([1.0, 1.0])
    other["steps"][1]["energy"] = -1.0 + 1e-9
    assert set(run.step_failures(parity, twin=other)) == {1}


# -- generators ---------------------------------------------------------------------

def test_generators_are_deterministic():
    def drift(seed):
        return workloads.DriftReplay(seed, False).frame(5).positions

    def cold(seed):
        return workloads.ColdSinglePoints(seed).frame(2).positions

    def water(seed):
        return workloads.WaterNVE(seed).config.velocities

    for make in (drift, cold, water):
        assert make(7).tobytes() == make(7).tobytes()
        assert make(7).tobytes() != make(8).tobytes()
    d = workloads.drift_direction(3, (8, 3))
    assert np.linalg.norm(d) == pytest.approx(1.0)


# -- environment guard ---------------------------------------------------------------

def test_repro_variables_refuse_the_run(monkeypatch, capsys):
    assert run.repro_variable({"PATH": "/bin", "REPROX": "1"}) is None
    assert run.repro_variable({"REPRO_BACKEND": "scipy"}) == "REPRO_BACKEND"
    monkeypatch.setenv("REPRO_BATCH_DOMAINS", "1")
    assert run.main(["--workload", "water_scf_nve", "--seed", "1",
                     "--seconds", "1", "--trace", "0"]) == 2
    assert "REPRO_BATCH_DOMAINS" in capsys.readouterr().err


# -- compare.py ------------------------------------------------------------------------

def _entry(value, loo=()):
    return {"value": value, "unit": "s", "leave_one_out": list(loo)}


def test_compare_verdicts():
    assert compare.verdict(_entry(1.0), _entry(1.05), "lower", 0.1) == "ok"
    assert compare.verdict(_entry(1.0), _entry(1.2), "lower", 0.1) == "worse"
    assert compare.verdict(_entry(1.0), _entry(0.8), "lower", 0.1) == "ok"
    assert compare.verdict(_entry(1.0), _entry(0.8), "higher", 0.1) == "worse"
    noisy = _entry(1.0, [0.9, 1.0, 1.3])
    assert compare.verdict(noisy, _entry(1.2), "lower", 0.1) == "unresolved"
    assert compare.verdict(noisy, _entry(1.0), "lower", 0.1) == "unresolved"
    # every estimate of B beats every estimate of A: resolved despite noise
    assert compare.verdict(noisy, _entry(0.5, [0.4, 0.5, 0.6]),
                           "lower", 0.1) == "ok"


def test_compare_exit_code(tmp_path, capsys):
    import json

    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())

    def result(scale, failed=0):
        return {"workloads": {"w": {
            "end_to_end": {name: _entry(scale) for name in run.E2E_UNITS},
            "failed": failed,
        }}}

    def run_compare(a, b):
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(a))
        pb.write_text(json.dumps(b))
        return compare.main([str(pa), str(pb)])

    assert run_compare(result(1.0), result(1.01)) == 0
    assert run_compare(result(1.0), result(1.5)) == 1
    assert "worse" in capsys.readouterr().out
    assert run_compare(result(1.0), result(1.0, failed=1)) == 1
