"""The ``Instrumentation`` handle the drivers accept.

Bundles a :class:`~repro.observability.tracer.SpanTracer` and a
:class:`~repro.observability.metrics.MetricsRegistry` behind one object:
the *on* state of the engine's one observability handle,
:class:`repro.observe.Observer` (``run_ldc``, ``QMDDriver``, ... take it
as ``instrumentation=``).

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

from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Series,
)
from repro.observability.tracer import Span, SpanTracer
from repro.observe import Observer
from repro.util.timer import WallClock

if TYPE_CHECKING:
    from repro.observability.runlog import RunRecorder


class Instrumentation(Observer):
    """Tracer + metrics bundle.

    Each handle builds its own :class:`SpanTracer` and
    :class:`MetricsRegistry`.

    Parameters
    ----------
    clock:
        Injectable clock of the tracer.
    recorder:
        Optional :class:`~repro.observability.runlog.RunRecorder`.  When
        set, the run gets a run directory (``telemetry/runs/<run_id>/``
        with a schema'd manifest), its flight recorder listens to the tracer
        and the metrics, and drivers note their
        invocations/failures against it.  ``None`` (the default) installs
        no listener and executes zero runlog code.
    """

    def __init__(
        self,
        clock: WallClock | None = None,
        recorder: "RunRecorder | None" = None,
    ) -> None:
        self.tracer = SpanTracer(clock=clock)
        self.metrics = MetricsRegistry()
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
        """One driver entry (``ldc.run``, ``qmd.run``): noted
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

    def write_trace(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.tracer.to_chrome_trace(), fh, indent=1)

    def write_artifacts(self, outdir) -> dict[str, pathlib.Path]:
        """Write ``trace.json``, ``metrics.json`` and ``metrics.csv``;
        returns the artifact paths keyed by name."""
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
        return paths
