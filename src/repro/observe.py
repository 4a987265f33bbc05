"""The engine's one observability handle, and its *off* state (DESIGN.md §21).

The drivers under ``repro.{dft,core,md,multigrid}`` call one handle
unconditionally.  :class:`Observer` is what the calls land on when nobody
listens — a Null Object that keeps nothing — and the base class of
:class:`repro.observability.Instrumentation`, which answers the same verbs.
:func:`observer` turns a public entry point's ``instrumentation=None`` into
a handle.

Standard library only and no ``repro`` import: an engine process does not
load ``repro.observability``.  A telemetry-only value that is not cheap
goes over as a zero-argument callable.
"""

from __future__ import annotations

from typing import Any, ContextManager


def _nothing(*args: Any, **kwargs: Any) -> None:
    """What every verb of an off handle does."""


class _NullInstrument:
    """Every counter, gauge, histogram and series of an off handle."""

    __slots__ = ()
    inc = set = observe = append = _nothing


class _NullAttrs:
    """``span.attrs`` when off: writes are discarded, not kept."""

    __slots__ = ()
    update = __setitem__ = _nothing


class _NullSpan:
    """What ``span()`` / ``invocation()`` return when off; entering yields
    the object itself, so there is a ``span.attrs`` to write to."""

    __slots__ = ()
    attrs = _NullAttrs()

    def __enter__(self) -> _NullSpan:
        return self

    def __exit__(self, *exc: object) -> None:
        """An exception raised inside propagates."""


class _NullTracer:
    __slots__ = ()
    record_complete = _nothing

    def now(self) -> float:
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()
_NULL_SPAN = _NullSpan()


class Observer:
    """The handle, off."""

    tracer: Any = _NullTracer()

    def span(self, name: str, category: str = "", **attrs: Any) -> ContextManager[Any]:
        return _NULL_SPAN

    def invocation(
        self, name: str, options: Any = None, category: str | None = None, **attrs: Any
    ) -> ContextManager[Any]:
        return _NULL_SPAN

    def counter(self, name: str, **labels: Any) -> Any:
        return _NULL_INSTRUMENT

    gauge = histogram = series = counter


#: the handle of a run nobody observes
OFF = Observer()


def observer(instrumentation: Observer | None) -> Observer:
    """The handle a public entry point works with: the caller's, or — for
    ``None`` — :data:`OFF`."""
    return OFF if instrumentation is None else instrumentation
