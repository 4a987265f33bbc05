"""Unit tests for the observability subsystem (tracer/metrics/logs/facade)."""

import json
import logging
import threading

import pytest

from repro.observability import (
    Instrumentation,
    MetricsRegistry,
    SpanTracer,
    configure_logging,
    get_logger,
    phase_breakdown,
    render_breakdown,
)
from repro.observability.logs import JSONFormatter
from repro.observability.report import load_trace, main as report_main
from repro.util.timer import WallClock


class FakeClock(WallClock):
    def __init__(self):
        self.t = 0.0

    def now(self):
        return self.t

    def advance(self, dt):
        self.t += dt


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_span_nesting_records_paths():
    clock = FakeClock()
    tracer = SpanTracer(clock)
    with tracer.span("outer", kind="test"):
        clock.advance(1.0)
        with tracer.span("inner"):
            clock.advance(2.0)
    spans = tracer.spans()
    assert [s.name for s in spans] == ["inner", "outer"]  # close order
    inner, outer = spans
    assert inner.path == "outer/inner"
    assert outer.path == "outer"
    assert inner.duration == 2.0
    assert outer.duration == 3.0
    assert outer.attrs == {"kind": "test"}


def test_span_attrs_set_inside_block():
    tracer = SpanTracer(FakeClock())
    with tracer.span("s") as span:
        span.attrs["iterations"] = 7
    assert tracer.spans()[0].attrs["iterations"] == 7


def test_span_records_exception_and_closes():
    clock = FakeClock()
    tracer = SpanTracer(clock)
    with pytest.raises(RuntimeError):
        with tracer.span("boom"):
            clock.advance(1.0)
            raise RuntimeError("x")
    (span,) = tracer.spans()
    assert span.t_end is not None
    assert span.attrs["error"] == "RuntimeError"


def test_record_complete_and_totals():
    clock = FakeClock()
    clock.advance(10.0)
    tracer = SpanTracer(clock)
    tracer.record_complete("io", 2.5)
    tracer.record_complete("io", 0.5)
    assert tracer.total("io") == 3.0
    assert tracer.count("io") == 2
    assert tracer.names() == ["io"]


def test_tracer_thread_safety_and_per_thread_stacks():
    tracer = SpanTracer()
    errors = []

    def worker(tag):
        try:
            for _ in range(50):
                with tracer.span(f"w{tag}"):
                    with tracer.span("child"):
                        pass
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(tracer) == 4 * 50 * 2
    # children must be parented to their own thread's span
    for s in tracer.spans():
        if s.name == "child":
            assert s.path.startswith("w") and s.path.endswith("/child")


def test_chrome_trace_export_is_valid_and_microseconds():
    clock = FakeClock()
    tracer = SpanTracer(clock)
    with tracer.span("phase", n=3):
        clock.advance(0.25)
    trace = tracer.to_chrome_trace()
    json.dumps(trace)  # serializable
    (event,) = trace["traceEvents"]
    assert event["ph"] == "X"
    assert event["dur"] == pytest.approx(0.25e6)
    assert event["args"] == {"n": 3}


def test_spans_table_flat_export():
    clock = FakeClock()
    tracer = SpanTracer(clock)
    with tracer.span("a"):
        clock.advance(1.0)
    (row,) = tracer.spans_table()
    assert row["name"] == "a"
    assert row["duration"] == 1.0
    json.dumps(tracer.spans_table())


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_counter_gauge_histogram_series():
    reg = MetricsRegistry()
    reg.counter("scf.iterations", engine="ldc").inc()
    reg.counter("scf.iterations", engine="ldc").inc(2)
    reg.counter("scf.iterations", engine="pw").inc()
    reg.gauge("mu").set(0.25)
    h = reg.histogram("resid")
    for v in (1.0, 3.0, 2.0):
        h.observe(v)
    s = reg.series("scf.residual", engine="ldc")
    s.append(1e-2)
    s.append(1e-3)

    snap = reg.snapshot()
    assert snap["scf.iterations{engine=ldc}"]["value"] == 3
    assert snap["scf.iterations{engine=pw}"]["value"] == 1
    assert snap["mu"]["value"] == 0.25
    assert snap["resid"]["count"] == 3
    assert snap["resid"]["min"] == 1.0
    assert snap["resid"]["max"] == 3.0
    assert snap["resid"]["mean"] == 2.0
    assert snap["scf.residual{engine=ldc}"]["values"] == [1e-2, 1e-3]


def test_counter_rejects_negative_and_kind_conflicts():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.counter("c").inc(-1)
    with pytest.raises(TypeError):
        reg.gauge("c")  # same key, different kind


def test_labels_are_order_insensitive():
    reg = MetricsRegistry()
    reg.counter("x", a=1, b=2).inc()
    reg.counter("x", b=2, a=1).inc()
    assert reg.snapshot()["x{a=1,b=2}"]["value"] == 2


def test_metrics_json_and_csv_roundtrip():
    reg = MetricsRegistry()
    reg.series("r").extend([1.0, 2.0])
    reg.counter("n").inc(5)
    parsed = json.loads(reg.to_json())
    assert parsed["r"]["values"] == [1.0, 2.0]
    csv = reg.to_csv()
    assert "r,series,0,1.0" in csv
    assert "n,counter,,5.0" in csv


def test_registry_get_does_not_create():
    reg = MetricsRegistry()
    assert reg.get("missing") is None
    reg.counter("present").inc()
    assert reg.get("present").value == 1


# ---------------------------------------------------------------------------
# logging
# ---------------------------------------------------------------------------

def test_logger_silent_by_default(capsys):
    get_logger("dft.scf").warning("should not print")
    assert capsys.readouterr().err == ""


def test_json_formatter_includes_extras():
    record = logging.LogRecord(
        "repro.test", logging.INFO, __file__, 1, "msg %d", (3,), None
    )
    record.residual = 1e-4
    payload = json.loads(JSONFormatter().format(record))
    assert payload["msg"] == "msg 3"
    assert payload["level"] == "INFO"
    assert payload["residual"] == 1e-4


def test_configure_logging_writes_json(capsys):
    import io

    buf = io.StringIO()
    root = configure_logging(level="DEBUG", json_format=True, stream=buf)
    try:
        get_logger("unit").debug("hello", extra={"k": 1})
        line = buf.getvalue().strip()
        payload = json.loads(line)
        assert payload["msg"] == "hello"
        assert payload["logger"] == "repro.unit"
        assert payload["k"] == 1
    finally:
        for h in list(root.handlers):
            if getattr(h, "_repro_configured", False):
                root.removeHandler(h)
        root.setLevel(logging.WARNING)


def test_configure_logging_does_not_stack_handlers():
    import io

    root = configure_logging(level="INFO", stream=io.StringIO())
    configure_logging(level="INFO", stream=io.StringIO())
    configured = [
        h for h in root.handlers if getattr(h, "_repro_configured", False)
    ]
    try:
        assert len(configured) == 1
    finally:
        for h in configured:
            root.removeHandler(h)
        root.setLevel(logging.WARNING)


# ---------------------------------------------------------------------------
# facade + report
# ---------------------------------------------------------------------------

def test_instrumentation_artifacts_roundtrip(tmp_path):
    clock = FakeClock()
    ins = Instrumentation(clock=clock)
    with ins.span("scf.run"):
        clock.advance(2.0)
    ins.series("scf.residual", engine="pw").append(1e-5)
    paths = ins.write_artifacts(tmp_path)
    trace = load_trace(paths["trace"])
    assert any(e["name"] == "scf.run" for e in trace)
    metrics = json.loads(paths["metrics_json"].read_text())
    assert metrics["scf.residual{engine=pw}"]["values"] == [1e-5]
    assert "scf.residual" in paths["metrics_csv"].read_text()


def test_phase_breakdown_and_render():
    clock = FakeClock()
    tracer = SpanTracer(clock)
    with tracer.span("solve"):
        clock.advance(3.0)
    with tracer.span("io"):
        clock.advance(1.0)
    events = tracer.to_chrome_trace()["traceEvents"]
    breakdown = phase_breakdown(events)
    assert list(breakdown) == ["solve", "io"]
    assert breakdown["solve"]["seconds"] == pytest.approx(3.0)
    assert breakdown["solve"]["percent"] == pytest.approx(75.0)
    table = render_breakdown(breakdown)
    assert "solve" in table and "% wall" in table


def test_report_cli_main(tmp_path, capsys):
    clock = FakeClock()
    tracer = SpanTracer(clock)
    with tracer.span("phase_a"):
        clock.advance(1.0)
    path = tmp_path / "trace.json"
    tracer.write_chrome_trace(path)
    assert report_main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "phase_a" in out
    # empty trace exits nonzero
    empty = tmp_path / "empty.json"
    empty.write_text('{"traceEvents": []}')
    assert report_main([str(empty)]) == 1
