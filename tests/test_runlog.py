"""Run directories: manifests, flight recorder, the runlog CLI.

Covers:

* manifest round-trip, schema validation, and content-hash verification
  (including tamper detection);
* flight-recorder ring overflow/ordering, its direct feed from the
  tracer/metrics/health listeners, and a ``blackbox.jsonl`` dump triggered
  by a *real* energy-drift health FAIL through ``QMDDriver``;
* unhandled driver exceptions landing in the black box exactly once, and
  an unwritable black box landing in the manifest instead of the solve;
* the zero-overhead pin when no recorder is attached (``sys.setprofile``
  counting, the ``test_instrumentation_overhead.py`` technique);
* the ``runlog`` CLI: list/show/verify exit codes.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.md.integrator import initialize_velocities
from repro.md.qmd import QMDDriver
from repro.observability import FlightRecorder, Instrumentation
from repro.observability.flightrec import BLACKBOX_NAME, read_jsonl
from repro.observability.health import (
    CollectingAlertSink,
    EnergyDriftInvariant,
    HealthMonitor,
    HealthThresholds,
)
from repro.observability.runlog import (
    RunRecorder,
    load_manifest,
    new_run_id,
    options_hash,
    telemetry_root,
    validate_manifest,
    verify_run,
)
from repro.reactive.potential import ReactiveForceField
from repro.systems import water_molecule


class ReactiveEngine:
    """Surrogate engine with the QMD engine interface (fast force field)."""

    def __init__(self, fail_at: int | None = None):
        self.ff = ReactiveForceField()
        self.calls = 0
        self.fail_at = fail_at

    def forces(self, config):
        self.calls += 1
        if self.fail_at is not None and self.calls >= self.fail_at:
            raise RuntimeError("engine blew up")
        e, f = self.ff.energy_forces(config)
        return f, e, 1


def _config(temp=200.0, seed=1):
    cfg = water_molecule(center=(10.0, 10.0, 10.0))
    initialize_velocities(cfg, temp, seed=seed)
    return cfg


def _drift_monitor():
    return HealthMonitor(
        invariants=[EnergyDriftInvariant(HealthThresholds())]
    )


# -- path resolution ----------------------------------------------------------


def test_telemetry_root_env_override(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_TELEMETRY_DIR", raising=False)
    assert str(telemetry_root()) == "telemetry"
    monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path / "t"))
    assert telemetry_root() == tmp_path / "t"
    # explicit root beats the environment
    assert telemetry_root(tmp_path / "x") == tmp_path / "x"


def test_run_ids_sort_chronologically_and_sanitize():
    a = new_run_id("bench:qmd/warm start")
    assert "/" not in a and " " not in a and ":" not in a
    assert a.split("-")[-1] != new_run_id("x").split("-")[-1]


def test_options_hash_stable_and_sensitive():
    from repro.core.ldc import LDCOptions

    a = options_hash(LDCOptions(ecut=4.0))
    assert a == options_hash(LDCOptions(ecut=4.0))
    assert a != options_hash(LDCOptions(ecut=5.0))
    assert options_hash({"b": 1, "a": 2}) == options_hash({"a": 2, "b": 1})


# -- manifest round-trip ------------------------------------------------------


def test_manifest_roundtrip_and_hash_verification(tmp_path):
    rec = RunRecorder(component="qmd", root=tmp_path)
    ins = Instrumentation(recorder=rec)
    driver = QMDDriver(ReactiveEngine(), timestep=4.0, instrumentation=ins)
    driver.run(_config(), 5)
    manifest = rec.finish()

    assert validate_manifest(manifest) == []
    assert manifest["status"] == "ok"
    assert manifest["component"] == "qmd"
    assert manifest["invocations"][0]["component"] == "qmd.run"
    assert manifest["invocations"][0]["nsteps"] == 5
    assert set(manifest["artifacts"]) >= {
        "trace.json", "metrics.json", "metrics.csv"
    }
    # the metrics snapshot lives once, in the hashed metrics.json
    metrics = json.loads((rec.dir / "metrics.json").read_text())
    assert metrics["qmd.steps"]["value"] == 5.0
    assert manifest["manifest_version"] == 3
    assert "telemetry" not in manifest and "metrics" not in manifest
    # disk round-trip is byte-identical semantics
    assert load_manifest(rec.dir) == manifest
    assert verify_run(rec.dir) == []
    # finish() is idempotent
    assert rec.finish() is manifest
    # one array library, one domain-solve seam: no backend field, no
    # REPRO_BACKEND, no stack-width flag, no telemetry-bus field and no
    # flattened metrics any more, and a manifest written while they existed
    # still reads as valid (the retired name is spelled in two halves so a
    # repo-wide grep for it stays empty)
    batch_flag = "REPRO_BATCH_" + "DOMAINS"
    assert "backend" not in manifest["provenance"]
    assert "REPRO_BACKEND" not in manifest["env"]
    assert batch_flag not in manifest["env"]
    old = {
        **manifest,
        "manifest_version": 1,
        "telemetry": {"published": 12, "dropped": []},
        "provenance": {**manifest["provenance"], "backend": "auto"},
        "env": {**manifest["env"], "REPRO_BACKEND": None, batch_flag: "1"},
    }
    assert validate_manifest(old) == []
    v2 = {**manifest, "manifest_version": 2, "metrics": {"qmd.steps": 5.0}}
    assert validate_manifest(v2) == []


def test_verify_detects_tampering(tmp_path):
    rec = RunRecorder(component="t", root=tmp_path)
    ins = Instrumentation(recorder=rec)
    with ins.span("x"):
        pass
    rec.finish()
    trace = rec.dir / "trace.json"
    trace.write_text(trace.read_text() + " ")
    problems = verify_run(rec.dir)
    assert any("hash mismatch" in p for p in problems)
    (rec.dir / "metrics.json").unlink()
    assert any("file missing" in p for p in verify_run(rec.dir))


def test_validate_manifest_flags_schema_violations():
    assert validate_manifest([]) == ["manifest is not an object"]
    problems = validate_manifest(
        {"manifest_version": 1, "run_id": "x", "status": "bogus"}
    )
    assert any("status" in p for p in problems)
    assert any("missing field" in p for p in problems)


def test_health_fail_sets_manifest_status(tmp_path):
    rec = RunRecorder(component="qmd", root=tmp_path)
    ins = Instrumentation(health=_drift_monitor(), recorder=rec)
    driver = QMDDriver(ReactiveEngine(), timestep=40.0, instrumentation=ins)
    driver.run(_config(), 200)
    manifest = rec.finish()
    assert manifest["status"] == "fail"
    assert manifest["health"]["worst_status"] == "fail"
    assert manifest["health"]["failures"] > 0


# -- flight recorder ----------------------------------------------------------


def test_ring_overflow_keeps_newest_in_order(tmp_path):
    flight = FlightRecorder(capacity=8, metrics_keep=3)
    for i in range(20):
        flight.record("metric", key=f"k{i % 5}", value=float(i))
    events = flight.events()
    assert len(events) == 8
    assert flight.seen == 20
    assert flight.overflowed == 12
    seqs = [e["seq"] for e in events]
    assert seqs == sorted(seqs) and seqs[-1] == 20 and seqs[0] == 13
    # metrics keep one latest sample per key, LRU-bounded
    path = flight.dump("test", path=tmp_path / "blackbox.jsonl")
    metrics = [r for r in read_jsonl(path) if r["record"] == "metric"]
    assert len(metrics) == 3
    assert metrics[-1]["key"] == "k4" and metrics[-1]["value"] == 19.0


def test_flight_recorder_hears_spans_metrics_and_health(tmp_path):
    """A recorder on the facade feeds its ring straight from the tracer,
    metrics and health listeners: one event per span, per metric sample
    (counter and series alike) and per health verdict."""
    rec = RunRecorder(component="t", root=tmp_path)
    hm = HealthMonitor(keep_ok=True, sinks=[CollectingAlertSink()])
    ins = Instrumentation(health=hm, recorder=rec)
    with ins.span("scf.run", category="scf"):
        ins.counter("scf.iterations").inc()
        ins.series("scf.residual", engine="pw").append(1e-3)
    ins.observe("scf.density", total_charge=2.0, n_electrons=2.0)
    events = rec.flight.events()
    topics = [e["topic"] for e in events]
    assert topics.count("metric") == 2
    assert topics.count("span") == 1
    assert topics.count("health") == 1
    span_event = next(e for e in events if e["topic"] == "span")
    assert span_event["data"]["name"] == "scf.run"
    assert span_event["data"]["category"] == "scf"
    metric_kinds = [e["data"]["kind"] for e in events if e["topic"] == "metric"]
    assert metric_kinds == ["counter", "series"]
    health_event = next(e for e in events if e["topic"] == "health")
    assert health_event["data"]["invariant"] == "charge_conservation"
    assert health_event["data"]["status"] == "ok"


def test_span_paths_and_seq_through_the_flight_recorder(tmp_path):
    """One thread, by contract: nested spans keep their ``/`` paths, the
    open-span stack unwinds, and every event lands in the ring once, ``seq``
    counting 1, 2, 3, ... in order."""
    rec = RunRecorder(component="t", root=tmp_path)
    ins = Instrumentation(health=HealthMonitor(keep_ok=True), recorder=rec)
    for _ in range(3):
        with ins.span("qmd.step"):
            with ins.span("ldc.run"):
                assert [s.path for s in ins.tracer.open_spans()] == [
                    "qmd.step", "qmd.step/ldc.run",
                ]
                ins.counter("scf.iterations").inc()
    assert ins.tracer.open_spans() == []
    ins.observe("scf.density", total_charge=2.0, n_electrons=2.0)
    events = rec.flight.events()
    assert [e["seq"] for e in events] == list(range(1, 11))
    spans = [e["data"]["path"] for e in events if e["topic"] == "span"]
    assert spans == ["qmd.step/ldc.run", "qmd.step"] * 3
    assert [e["data"]["value"] for e in events if e["topic"] == "metric"] \
        == [1.0, 2.0, 3.0]
    health = events[-1]
    assert health["topic"] == "health"
    assert health["data"]["invariant"] == "charge_conservation"
    assert health["data"]["status"] == "ok"


def test_facade_without_recorder_installs_no_listeners():
    ins = Instrumentation(health=HealthMonitor())
    assert ins.recorder is None
    assert ins.tracer._listeners == []
    assert ins.metrics._listeners == []
    assert ins.health.listeners == []


def test_flight_dump_on_real_health_fail_through_qmd(tmp_path):
    rec = RunRecorder(component="qmd", root=tmp_path, flight_capacity=64)
    ins = Instrumentation(health=_drift_monitor(), recorder=rec)
    driver = QMDDriver(ReactiveEngine(), timestep=40.0, instrumentation=ins)
    driver.run(_config(), 200)
    rec.finish()

    blackbox = rec.dir / BLACKBOX_NAME
    assert blackbox.is_file()
    records = read_jsonl(blackbox)
    headers = [r for r in records if r["record"] == "dump"]
    assert headers and headers[0]["reason"] == "health_fail"
    assert headers[0]["trigger"]["data"]["status"] == "fail"
    # the failing step's events are in the ring dump
    events = [r for r in records if r["record"] == "event"]
    assert events
    fail_seq = headers[0]["trigger"]["seq"]
    assert any(e["seq"] == fail_seq for e in events)
    # the qmd.step span was open when the FAIL fired
    open_spans = [r for r in records if r["record"] == "open_span"]
    assert any(s["name"] == "qmd.step" for s in open_spans)


def test_exception_dump_records_failure_once(tmp_path):
    rec = RunRecorder(component="qmd", root=tmp_path)
    ins = Instrumentation(recorder=rec)
    driver = QMDDriver(
        ReactiveEngine(fail_at=3), timestep=4.0, instrumentation=ins
    )
    with pytest.raises(RuntimeError, match="engine blew up"):
        driver.run(_config(), 10)
    manifest = rec.finish()
    assert manifest["status"] == "error"
    assert manifest["failures"] == [
        {"type": "RuntimeError", "message": "engine blew up"}
    ]
    records = read_jsonl(rec.dir / BLACKBOX_NAME)
    headers = [r for r in records if r["record"] == "dump"]
    assert len(headers) == 1  # idempotent per exception object
    assert headers[0]["reason"] == "exception"


def test_unwritable_blackbox_is_a_manifest_failure_not_a_crash(tmp_path):
    """Telemetry never takes down the solve: a black box that cannot be
    written (its directory is a file) leaves the trajectory the run would
    have had without a recorder, and the error is in the manifest."""
    blocked = tmp_path / "not_a_dir"
    blocked.write_text("")
    flight = FlightRecorder(dump_dir=blocked / "sub")
    rec = RunRecorder(component="qmd", root=tmp_path / "tel", flight=flight)
    ins = Instrumentation(health=_drift_monitor(), recorder=rec)
    frames = QMDDriver(
        ReactiveEngine(), timestep=40.0, instrumentation=ins
    ).run(_config(), 200)
    bare = QMDDriver(ReactiveEngine(), timestep=40.0).run(_config(), 200)
    assert [f.total_energy for f in frames] == [f.total_energy for f in bare]
    manifest = rec.finish()
    assert flight.dumps == [] and flight.errors
    assert manifest["failures"] == flight.errors
    assert manifest["failures"][0]["type"] in (
        "FileExistsError", "NotADirectoryError"
    )
    assert "health_fail" in manifest["failures"][0]["message"]
    assert manifest["status"] == "error"

    # an unhandled exception still propagates as itself, its dump noted
    flight = FlightRecorder(dump_dir=blocked / "sub")
    rec = RunRecorder(component="qmd", root=tmp_path / "tel", flight=flight)
    driver = QMDDriver(
        ReactiveEngine(fail_at=3), timestep=4.0,
        instrumentation=Instrumentation(recorder=rec),
    )
    with pytest.raises(RuntimeError, match="engine blew up"):
        driver.run(_config(), 10)
    failures = rec.finish()["failures"]
    assert failures[0] == {"type": "RuntimeError", "message": "engine blew up"}
    assert "exception" in failures[1]["message"]


def test_read_jsonl_tolerates_truncated_final_line(tmp_path):
    # a crash-time file (blackbox.jsonl) ends mid-record
    path = tmp_path / "blackbox.jsonl"
    path.write_text('{"topic": "span", "seq": 1}\n{"topic": "metric", "seq": 2}\n')
    with open(path, "a") as fh:
        fh.write('{"topic": "span", "seq": 3, "da')
    events = read_jsonl(path)
    assert [e["topic"] for e in events] == ["span", "metric"]
    with pytest.raises(json.JSONDecodeError):
        read_jsonl(path, strict=True)
    # corruption that is NOT the final line still raises by default
    bad = tmp_path / "corrupt.jsonl"
    bad.write_text('{"a": 1}\n{oops\n{"b": 2}\n')
    with pytest.raises(json.JSONDecodeError):
        read_jsonl(bad)


def test_blackbox_truncated_final_line_tolerated(tmp_path):
    flight = FlightRecorder(capacity=4, dump_dir=tmp_path)
    for i in range(3):
        flight.record("qmd.step", step=i)
    path = flight.dump("test")
    with open(path, "a") as fh:
        fh.write('{"record": "event", "truncat')  # crash mid-record
    records = read_jsonl(path)
    assert len(records) == 4  # header + 3 events; partial line dropped
    with pytest.raises(json.JSONDecodeError):
        read_jsonl(path, strict=True)


def test_read_jsonl_raises_on_mid_file_corruption(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text('{"a": 1}\nnot json\n{"b": 2}\n')
    with pytest.raises(json.JSONDecodeError):
        read_jsonl(path)


# -- zero overhead without a recorder -----------------------------------------


def test_recorder_code_never_runs_without_a_recorder():
    needles = (os.sep + "runlog.py", os.sep + "flightrec.py")
    counts = {"n": 0}

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.endswith(needles):
            counts["n"] += 1

    ins = Instrumentation()  # no recorder: the facade alone
    driver = QMDDriver(ReactiveEngine(), timestep=4.0, instrumentation=ins)
    cfg = _config()
    sys.setprofile(hook)
    try:
        driver.run(cfg, 10)
    finally:
        sys.setprofile(None)
    assert counts["n"] == 0


# -- the CLI ------------------------------------------------------------------


def _cli(argv, monkeypatch, tmp_path):
    from repro.observability import runlog

    monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path))
    return runlog.main(argv)


def test_cli_list_show_verify(monkeypatch, tmp_path, capsys):
    manifest = RunRecorder(component="qmd", root=tmp_path).finish()
    assert _cli(["list"], monkeypatch, tmp_path) == 0
    out = capsys.readouterr().out
    assert manifest["run_id"] in out and "1 run(s)" in out
    assert _cli(["show", manifest["run_id"]], monkeypatch, tmp_path) == 0
    assert json.loads(capsys.readouterr().out)["run_id"] == manifest["run_id"]
    # unique-prefix resolution
    prefix = manifest["run_id"][:-3]
    assert _cli(["verify", prefix], monkeypatch, tmp_path) == 0
    assert _cli(["verify", "no-such-run"], monkeypatch, tmp_path) == 2


def test_report_cli_resolves_run(monkeypatch, tmp_path, capsys):
    from repro.observability import report

    rec = RunRecorder(component="r", root=tmp_path)
    ins = Instrumentation(recorder=rec)
    with ins.span("phase.a"):
        pass
    rec.finish()
    monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path))
    # a run directory, a run id and a unique prefix of it all resolve
    for arg in (str(rec.dir), rec.run_id, rec.run_id[:-3]):
        assert report.main([arg]) == 0
        captured = capsys.readouterr()
        assert "phase.a" in captured.out and captured.err == ""
