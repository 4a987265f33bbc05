"""Structured span tracing.

A *span* is a named wall-clock interval with attributes.  Spans nest: the
tracer keeps one stack of open spans, so a span opened inside another
records the enclosing span as its parent and its full ``/``-joined
path (``ldc.run/ldc.iteration``).  Timestamps come from the
injectable :class:`~repro.util.timer.WallClock`, so tests can drive a fake
clock deterministically.

Export target: :meth:`SpanTracer.to_chrome_trace` — the Chrome
``trace_event`` JSON object format (complete ``"X"`` events, microsecond
units) that loads directly in ``chrome://tracing`` and Perfetto.

Single-threaded by contract: the engine runs on one thread, so the tracer
holds no lock and no per-thread state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.util.timer import WallClock

#: pid of the measured spans in a Chrome trace
TRACE_PID = 1


@dataclass
class Span:
    """One finished (or still-open) span."""

    name: str
    t_start: float
    t_end: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)
    path: str = ""
    category: str = ""

    @property
    def duration(self) -> float:
        if self.t_end is None:
            return 0.0
        return self.t_end - self.t_start


class SpanTracer:
    """Records nested spans against a monotonic clock."""

    def __init__(self, clock: WallClock | None = None) -> None:
        self._clock = clock or WallClock()
        self._finished: list[Span] = []
        #: callables receiving each span as it finishes (the flight
        #: recorder's wire-up); empty by default, so closing a span costs one
        #: truth test
        self._listeners: list = []
        #: the open spans, outermost first
        self._stack: list[Span] = []

    def add_listener(self, listener) -> None:
        """Register a callable invoked with every finished :class:`Span`."""
        self._listeners.append(listener)

    # -- recording ----------------------------------------------------------

    def span(self, name: str, category: str = "", **attrs: Any) -> "_SpanContext":
        """Open a span as a context manager.

        Attributes passed as keyword arguments are attached to the span;
        more can be added inside the block via ``span.set(**kw)``.
        """
        return _SpanContext(self, name, category, attrs)

    def record_complete(
        self, name: str, seconds: float, category: str = "", **attrs: Any
    ) -> Span:
        """Record an externally measured duration as a finished span."""
        now = self._clock.now()
        span = Span(
            name=name,
            t_start=now - seconds,
            t_end=now,
            attrs=dict(attrs),
            path=self._path_for(name),
            category=category,
        )
        self._finished.append(span)
        if self._listeners:
            for listener in self._listeners:
                listener(span)
        return span

    def now(self) -> float:
        """The tracer's clock reading (for manual interval measurement)."""
        return self._clock.now()

    # -- queries ------------------------------------------------------------

    def spans(self) -> list[Span]:
        return list(self._finished)

    def __len__(self) -> int:
        return len(self._finished)

    def open_spans(self) -> list[Span]:
        """Snapshot of the currently *open* spans, outermost first.

        The crash-time context the flight recorder dumps: which phases were
        in flight when the run died.
        """
        return list(self._stack)

    # -- chrome trace export ------------------------------------------------

    def chrome_events(self, pid: int = TRACE_PID) -> list[dict[str, Any]]:
        """Spans as Chrome ``trace_event`` complete events (µs units)."""
        events = []
        for s in self.spans():
            if s.t_end is None:
                continue
            events.append(
                {
                    "name": s.name,
                    # no category: the top-level phase of its path
                    "cat": s.category or s.path.split("/", 1)[0],
                    "ph": "X",
                    "ts": s.t_start * 1e6,
                    "dur": s.duration * 1e6,
                    "pid": pid,
                    "tid": 0,
                    "args": _json_safe(s.attrs),
                }
            )
        return events

    def to_chrome_trace(self, pid: int = TRACE_PID) -> dict[str, Any]:
        return {
            "traceEvents": self.chrome_events(pid=pid),
            "displayTimeUnit": "ms",
        }

    # -- internals -----------------------------------------------------------

    def _path_for(self, name: str) -> str:
        if self._stack:
            return f"{self._stack[-1].path}/{name}"
        return name

    def _enter(self, name: str, category: str, attrs: dict[str, Any]) -> Span:
        span = Span(
            name=name,
            t_start=self._clock.now(),
            attrs=dict(attrs),
            path=self._path_for(name),
            category=category,
        )
        self._stack.append(span)
        return span

    def _exit(self, span: Span) -> None:
        span.t_end = self._clock.now()
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # tolerate out-of-order exits
            stack.remove(span)
        self._finished.append(span)
        if self._listeners:
            for listener in self._listeners:
                listener(span)


class _SpanContext:
    """Context manager returned by :meth:`SpanTracer.span`."""

    __slots__ = ("_tracer", "_name", "_category", "_attrs", "_span")

    def __init__(self, tracer, name, category, attrs) -> None:
        self._tracer = tracer
        self._name = name
        self._category = category
        self._attrs = attrs
        self._span: Span | None = None

    def __enter__(self) -> Span:
        self._span = self._tracer._enter(self._name, self._category, self._attrs)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._span.attrs.setdefault("error", exc_type.__name__)
        self._tracer._exit(self._span)


def _json_safe(obj: Any) -> Any:
    """Coerce attribute values into JSON-serializable primitives."""
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if hasattr(obj, "item"):  # numpy scalars
        return obj.item()
    return str(obj)
