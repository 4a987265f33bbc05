"""The engine's one observability handle, and its *off* state (DESIGN.md §21).

The drivers under ``repro.{dft,core,md,multigrid}`` call one handle
unconditionally.  :class:`Observer` is what the calls land on when nobody
listens — a Null Object that keeps nothing — and the base class of
:class:`repro.observability.Instrumentation`, which answers the same verbs.
:func:`observer` turns a public entry point's ``instrumentation=None`` into
a handle; :func:`env_numerics` is the one place ``REPRO_SANITIZE`` is read.

Standard library only and no module-level ``repro`` import: an engine
process loads neither ``repro.observability`` nor ``repro.sanitize``.  A
telemetry-only value that is not cheap goes over as a zero-argument callable.
"""

from __future__ import annotations

import functools
import os
from typing import TYPE_CHECKING, Any, ContextManager

if TYPE_CHECKING:
    from repro.sanitize.numerics import NumericsSanitizer


def _nothing(*args: Any, **kwargs: Any) -> None:
    """What every verb of an off handle does."""


class _NullInstrument:
    """Every counter, gauge, histogram and series of an off handle."""

    __slots__ = ()
    inc = set = observe = append = extend = _nothing


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


class _NullLog:
    __slots__ = ()
    debug = info = warning = _nothing


_NULL_INSTRUMENT = _NullInstrument()
_NULL_SPAN = _NullSpan()


class Observer:
    """The handle, off.  ``numerics`` arms the one verb that can be on by
    itself: the sanitizer checkpoints (what ``REPRO_SANITIZE`` asks for)."""

    tracer: Any = _NullTracer()
    log: Any = _NullLog()

    def __init__(self, numerics: NumericsSanitizer | None = None) -> None:
        self.numerics = numerics

    def span(self, name: str, category: str = "", **attrs: Any) -> ContextManager[Any]:
        return _NULL_SPAN

    def invocation(
        self, name: str, options: Any = None, category: str | None = None, **attrs: Any
    ) -> ContextManager[Any]:
        return _NULL_SPAN

    def counter(self, name: str, **labels: Any) -> Any:
        return _NULL_INSTRUMENT

    gauge = histogram = series = counter

    def observe(self, channel: str, **sample: Any) -> None:
        """One sample for the health monitor's ``channel``; nobody listens."""

    def check(self, name: str, value: Any, where: str = "", expect_dtype: Any = None) -> None:
        """A numerics checkpoint: NaN/Inf and dtype-demotion tripwire."""
        if self.numerics is not None:
            self.numerics.check(name, value, where, expect_dtype)


#: the handle of a run nobody observes
OFF = Observer()


@functools.cache
def env_numerics() -> NumericsSanitizer | None:
    """The numerics sanitizer ``REPRO_SANITIZE`` asks for, resolved once per
    process (changing the variable after the first solve has no effect); a
    malformed spec is :meth:`repro.sanitize.Sanitizers.from_spec`'s error."""
    spec = os.environ.get("REPRO_SANITIZE", "").strip()
    if not spec:
        return None
    from repro.sanitize import Sanitizers  # only when the variable is set

    bundle = Sanitizers.from_spec(spec)
    return None if bundle is None else bundle.numerics


def observer(instrumentation: Observer | None) -> Observer:
    """The handle a public entry point works with: the caller's, or — for
    ``None`` — :data:`OFF`, unless the environment arms the checkpoints."""
    if instrumentation is not None:
        return instrumentation
    numerics = env_numerics()
    return OFF if numerics is None else Observer(numerics)
