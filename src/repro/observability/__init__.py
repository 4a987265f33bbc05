"""Unified telemetry: structured tracing and metrics.

The subsystem has three layers, all usable independently but designed to be
consumed together through the :class:`Instrumentation` facade:

* :mod:`repro.observability.tracer` — nested wall-clock *spans* (a span is a
  named, attributed interval), exportable as Chrome ``trace_event`` JSON
  for ``chrome://tracing`` / Perfetto;
* :mod:`repro.observability.metrics` — a registry of labeled counters,
  gauges, histograms, and time-ordered series (e.g. the per-iteration SCF
  residual), with JSON/CSV snapshot export;
* :mod:`repro.observability.instrumentation` — the facade the drivers accept
  as an optional parameter.  Passing ``None`` (the default) keeps every hot
  loop entirely instrumentation-free.

Span/metric naming convention: dotted ``subsystem.thing`` names
(``scf.residual``, ``ldc.domain_solve``, ``poisson.vcycles``), with
key=value labels for series dimensions (``eigensolver.solves{solver=direct}``).

Two further layers make the telemetry durable and comparable:

* :mod:`repro.observability.regress` — the schemas of the bench records
  (``benchmarks/results/BENCH_<name>.json``) and the one comparison engine:
  the regression CLI that judges fresh records against committed
  baselines;
* :mod:`repro.observability.runlog` — run directories: per-run identity
  and a content-hashed manifest under ``telemetry/runs/<run_id>/``
  (``Instrumentation(recorder=RunRecorder(...))``), the failure-triggered
  :class:`FlightRecorder` black box, and :func:`~repro.observability.
  runlog.verify_run`, which re-hashes a run's artifacts.

The report CLI renders a paper-style per-phase breakdown from a trace
(``--flops`` adds the roofline-style FLOP attribution of
:mod:`repro.observability.costattr`)::

    python -m repro.observability.report trace.json
    python -m repro.observability.report trace.json --flops
"""

from repro.observability.flightrec import FlightRecorder, read_jsonl
from repro.observability.instrumentation import Instrumentation
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import Span, SpanTracer

__all__ = [
    "FieldSpec",
    "FlightRecorder",
    "Instrumentation",
    "MetricsRegistry",
    "RecordSchema",
    "RunRecorder",
    "Span",
    "SpanTracer",
    "phase_breakdown",
    "read_jsonl",
    "render_breakdown",
    "telemetry_root",
]


def __getattr__(name):
    # ``report`` and ``regress`` are lazy so that running them as
    # ``python -m repro.observability.<mod>`` does not import them twice
    # (runpy warns when the module already sits in sys.modules via the
    # package import).
    if name in ("phase_breakdown", "render_breakdown"):
        from repro.observability import report

        return getattr(report, name)
    if name in ("FieldSpec", "RecordSchema"):
        from repro.observability import regress

        return getattr(regress, name)
    if name in ("RunRecorder", "telemetry_root"):
        from repro.observability import runlog

        return getattr(runlog, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
