"""The ``Instrumentation`` handle the drivers accept.

Bundles a :class:`~repro.observability.tracer.SpanTracer`, a
:class:`~repro.observability.metrics.MetricsRegistry`, and a ``repro.*``
logger behind one object: the *on* state of the engine's one observability
handle, :class:`repro.observe.Observer` (``run_scf``, ``run_ldc``,
``QMDDriver``, ... take it as ``instrumentation=``).

The drivers call their handle unconditionally; ``instrumentation=None``
gives them the off observer, whose verbs do nothing and which lives outside
this package, so the default path enters no observability code — pinned by
``tests/test_instrumentation_overhead.py``.

Typical use::

    from repro.observability import Instrumentation

    ins = Instrumentation()
    result = run_ldc(config, opts, instrumentation=ins)
    ins.write_artifacts("out/")   # trace.json + metrics.json + metrics.csv
"""

from __future__ import annotations

import contextlib
import json
import pathlib
from typing import TYPE_CHECKING, Any, Iterator

from repro.observability.logs import get_logger
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Series,
)
from repro.observability.tracer import Span, SpanTracer
from repro.observe import Observer, env_numerics
from repro.util.timer import WallClock

if TYPE_CHECKING:
    from repro.observability.health import HealthMonitor
    from repro.observability.runlog import RunRecorder
    from repro.sanitize.numerics import NumericsSanitizer


class Instrumentation(Observer):
    """Tracer + metrics + logger bundle.

    Each handle builds its own :class:`SpanTracer` and
    :class:`MetricsRegistry` and logs through the ``repro`` root logger.

    Parameters
    ----------
    clock:
        Injectable clock of the tracer (and of an attached health monitor).
    health:
        Optional :class:`~repro.observability.health.HealthMonitor`; when
        set, drivers additionally publish physics-invariant samples to it
        and its records merge into the Chrome trace as instant events.
        ``None`` (the default) keeps every health check off the hot path.
    recorder:
        Optional :class:`~repro.observability.runlog.RunRecorder`.  When
        set, the run gets a run directory (``telemetry/runs/<run_id>/``
        with a schema'd manifest), its flight recorder listens to the tracer,
        the metrics and the health monitor, and drivers note their
        invocations/failures against it.  ``None`` (the default) installs
        no listener and executes zero runlog code.
    numerics:
        Optional :class:`~repro.sanitize.NumericsSanitizer`: arms the
        drivers' NaN/Inf and dtype checkpoints (:meth:`check`).  ``None``
        (the default) defers to ``REPRO_SANITIZE``
        (:func:`repro.observe.env_numerics`).
    """

    def __init__(
        self,
        clock: WallClock | None = None,
        health: "HealthMonitor | None" = None,
        recorder: "RunRecorder | None" = None,
        numerics: "NumericsSanitizer | None" = None,
    ) -> None:
        super().__init__(numerics if numerics is not None else env_numerics())
        self.tracer = SpanTracer(clock=clock)
        self.metrics = MetricsRegistry()
        self.log = get_logger()
        self.health = health
        if health is not None and health.clock is None:
            # share the tracer's clock so health instants align with spans
            health.clock = self.tracer._clock
        self.recorder = recorder
        if recorder is not None:
            recorder.attach(self)

    # -- tracing -------------------------------------------------------------

    def span(self, name: str, category: str = "", **attrs: Any):
        return self.tracer.span(name, category=category, **attrs)

    @contextlib.contextmanager
    def invocation(
        self, name: str, options: Any = None, category: str | None = None,
        **attrs: Any,
    ) -> Iterator[Span | None]:
        """One driver entry (``scf.run``, ``ldc.run``, ``qmd.run``): noted
        in the run manifest, wrapped in a span of that name (``category=None``:
        no span, for a driver that opens one per step) and, if it raises,
        recorded as a failure (black-box dump) on the way out."""
        if self.recorder is not None:
            self.recorder.record_invocation(name, options, **attrs)
        scope = (
            contextlib.nullcontext() if category is None
            else self.span(name, category=category, **attrs)
        )
        with scope as span:
            try:
                yield span
            except Exception as exc:
                if self.recorder is not None:
                    self.recorder.record_failure(exc)
                raise

    def observe(self, channel: str, **sample: Any) -> None:
        """One health sample.  A zero-argument callable in it is a value
        that exists only for the monitor: evaluated here, and only when
        one is attached."""
        if self.health is not None:
            self.health.observe(channel, **{
                key: value() if callable(value) else value
                for key, value in sample.items()
            })

    # -- metrics shortcuts ---------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        return self.metrics.counter(name, **labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self.metrics.gauge(name, **labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self.metrics.histogram(name, **labels)

    def series(self, name: str, **labels: Any) -> Series:
        return self.metrics.series(name, **labels)

    # -- export --------------------------------------------------------------

    def to_chrome_trace(self) -> dict[str, Any]:
        trace = self.tracer.to_chrome_trace()
        if self.health is not None:
            trace["traceEvents"] += self.health.chrome_events()
        return trace

    def write_trace(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_chrome_trace(), fh, indent=1)

    def write_artifacts(self, outdir) -> dict[str, pathlib.Path]:
        """Write ``trace.json``, ``metrics.json``, ``metrics.csv`` (and
        ``health.json`` when a monitor is attached); returns the artifact
        paths keyed by name."""
        out = pathlib.Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {
            "trace": out / "trace.json",
            "metrics_json": out / "metrics.json",
            "metrics_csv": out / "metrics.csv",
        }
        self.write_trace(paths["trace"])
        self.metrics.write_snapshot(
            json_path=paths["metrics_json"], csv_path=paths["metrics_csv"]
        )
        if self.health is not None:
            paths["health"] = out / "health.json"
            with open(paths["health"], "w") as fh:
                json.dump(self.health.to_dict(), fh, indent=1)
        return paths
