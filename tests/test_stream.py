"""Telemetry bus: pub/sub semantics, JSONL sink, facade wiring."""

import json

import pytest

from repro.observability import (
    Instrumentation,
    JsonlSink,
    TelemetryBus,
    attach_jsonl,
    read_jsonl,
)
from repro.observability.health import CollectingAlertSink, HealthMonitor


def test_publish_fans_out_to_matching_subscribers():
    bus = TelemetryBus()
    everything, spans_only, globbed = [], [], []
    bus.subscribe(everything.append)
    bus.subscribe(spans_only.append, topics="span")
    bus.subscribe(globbed.append, topics="comm.*")
    bus.publish("span", name="a")
    bus.publish("metric", key="k", value=1.0)
    bus.publish("comm.summary", nranks=8)
    assert [e["topic"] for e in everything] == ["span", "metric", "comm.summary"]
    assert [e["topic"] for e in spans_only] == ["span"]
    assert [e["topic"] for e in globbed] == ["comm.summary"]
    # events carry monotonically increasing sequence numbers
    assert [e["seq"] for e in everything] == [1, 2, 3]
    assert bus.published == 3


def test_unsubscribe_stops_delivery():
    bus = TelemetryBus()
    got = []
    sub = bus.subscribe(got.append)
    bus.publish("a")
    bus.unsubscribe(sub)
    bus.publish("b")
    assert [e["topic"] for e in got] == ["a"]
    assert bus.subscriber_count() == 0


def test_raising_subscriber_is_dropped_not_fatal():
    bus = TelemetryBus()
    good = []

    def bad(event):
        raise RuntimeError("subscriber bug")

    bus.subscribe(bad)
    bus.subscribe(good.append)
    bus.publish("x")   # must not raise
    bus.publish("y")
    assert [e["topic"] for e in good] == ["x", "y"]
    assert len(bus.dropped) == 1 and "subscriber bug" in bus.dropped[0][1]
    assert bus.subscriber_count() == 1


def test_jsonl_sink_round_trip(tmp_path):
    path = tmp_path / "telemetry.jsonl"
    bus = TelemetryBus()
    sink = attach_jsonl(bus, path)
    bus.publish("span", name="scf.run", duration=1.25)
    bus.publish("metric", key="scf.residual", value=1e-6)
    bus.close()
    events = read_jsonl(path)
    assert sink.lines_written == 2
    assert [e["topic"] for e in events] == ["span", "metric"]
    assert events[0]["data"] == {"name": "scf.run", "duration": 1.25}
    assert events[1]["data"]["value"] == pytest.approx(1e-6)


def test_read_jsonl_tolerates_truncated_final_line(tmp_path):
    # a crash-time file (blackbox.jsonl, a killed sink) ends mid-record
    path = tmp_path / "telemetry.jsonl"
    bus = TelemetryBus()
    attach_jsonl(bus, path)
    bus.publish("span", name="qmd.step")
    bus.publish("metric", key="qmd.steps", value=1.0)
    bus.close()
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


def test_jsonl_sink_numpy_payloads_serialize(tmp_path):
    import numpy as np

    path = tmp_path / "np.jsonl"
    sink = JsonlSink(path)
    sink({"topic": "t", "seq": 1, "time": 0.0,
          "data": {"x": np.float64(2.5), "n": np.int64(3)}})
    sink.close()
    (event,) = read_jsonl(path)
    assert event["data"] == {"x": 2.5, "n": 3}


def test_span_paths_and_bus_seq_through_the_jsonl_sink(tmp_path):
    """One thread, by contract: nested spans keep their ``/`` paths, the
    open-span stack unwinds, and every event reaches the sink once, with
    ``seq`` counting 1, 2, 3, ... in publish order."""
    path = tmp_path / "sequential.jsonl"
    bus = TelemetryBus()
    attach_jsonl(bus, path)
    ins = Instrumentation(stream=bus)
    for _ in range(3):
        with ins.span("qmd.step"):
            with ins.span("ldc.run"):
                assert [s.path for s in ins.tracer.open_spans()] == [
                    "qmd.step", "qmd.step/ldc.run",
                ]
                ins.counter("scf.iterations").inc()
    assert ins.tracer.open_spans() == []
    bus.close()
    events = read_jsonl(path)
    assert [e["seq"] for e in events] == list(range(1, 10))
    spans = [e["data"]["path"] for e in events if e["topic"] == "span"]
    assert spans == ["qmd.step/ldc.run", "qmd.step"] * 3


def test_facade_publishes_spans_metrics_and_health():
    bus = TelemetryBus()
    got = []
    bus.subscribe(got.append)
    hm = HealthMonitor(keep_ok=True, sinks=[CollectingAlertSink()])
    ins = Instrumentation(health=hm, stream=bus)
    with ins.span("scf.run", category="scf"):
        ins.counter("scf.iterations").inc()
        ins.series("scf.residual", engine="pw").append(1e-3)
    hm.observe(
        "vm.phase", phase="domain", measured_seconds=1.0, modeled_seconds=1.0,
    )
    topics = [e["topic"] for e in got]
    assert topics.count("metric") == 2
    assert topics.count("span") == 1
    assert topics.count("health") == 1
    span_event = next(e for e in got if e["topic"] == "span")
    assert span_event["data"]["name"] == "scf.run"
    health_event = next(e for e in got if e["topic"] == "health")
    assert health_event["data"]["invariant"] == "model_divergence"
    assert health_event["data"]["status"] == "ok"


def test_facade_without_stream_installs_no_listeners():
    ins = Instrumentation()
    assert ins.stream is None
    assert ins.tracer._listeners == []
    assert ins.metrics._listeners == []


def test_metrics_listener_covers_existing_and_new_instruments():
    bus = TelemetryBus()
    got = []
    bus.subscribe(got.append, topics="metric")
    ins = Instrumentation()
    pre = ins.counter("made.before")          # exists before wiring
    ins.metrics.add_listener(
        lambda inst, value: bus.publish("metric", key=inst.key, value=value)
    )
    pre.inc()
    ins.gauge("made.after").set(2.0)          # created after wiring
    keys = [e["data"]["key"] for e in got]
    assert keys == ["made.before", "made.after"]
