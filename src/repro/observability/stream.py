"""A lightweight pub/sub telemetry bus with a JSONL file sink.

The forward seam for QMD-as-a-service: spans, metric samples, health
verdicts, and comm-profiler summaries publish through one
:class:`TelemetryBus` so a future serving layer can subscribe to live
per-step telemetry without touching engine code.  The bus rides on the
:class:`~repro.observability.Instrumentation` facade
(``Instrumentation(stream=bus)``) and inherits its zero-overhead contract:
with no facade — or a facade without a bus — no publish call executes.

Events are plain dicts::

    {"topic": "qmd.step", "seq": 17, "time": 0.042, "data": {...}}

* **topics** are dotted names matching the span/metric convention
  (``span``, ``metric``, ``health``, ``comm.summary``, ...);
* **subscribers** are callables receiving the event dict; a subscription
  can filter by exact topic or by a ``"prefix.*"`` glob;
* **:class:`JsonlSink`** appends one JSON line per event to a file — the
  durable form a service process can tail.

Subscriber errors are contained: a raising subscriber is dropped after its
first failure (recorded on :attr:`TelemetryBus.dropped`), so telemetry can
never take down the simulation it observes.  Single-threaded by contract:
neither the bus nor the sink holds a lock.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterable

from repro.util.timer import WallClock

Subscriber = Callable[[dict[str, Any]], None]


class Subscription:
    """One registered subscriber with its topic filter."""

    __slots__ = ("callback", "topics", "active")

    def __init__(
        self, callback: Subscriber, topics: tuple[str, ...] | None
    ) -> None:
        self.callback = callback
        self.topics = topics
        self.active = True

    def matches(self, topic: str) -> bool:
        if self.topics is None:
            return True
        for pattern in self.topics:
            if pattern == topic:
                return True
            if pattern.endswith("*") and topic.startswith(pattern[:-1]):
                return True
        return False


class TelemetryBus:
    """In-memory publish/subscribe fan-out for telemetry events."""

    def __init__(self, clock: WallClock | None = None) -> None:
        self._clock = clock or WallClock()
        self._subs: list[Subscription] = []
        self._seq = 0
        self.published = 0
        #: subscribers removed after raising, as (repr, error message)
        self.dropped: list[tuple[str, str]] = []

    # -- wiring ---------------------------------------------------------------

    def subscribe(
        self,
        callback: Subscriber,
        topics: str | Iterable[str] | None = None,
    ) -> Subscription:
        """Register a subscriber; ``topics=None`` receives everything."""
        if isinstance(topics, str):
            topics = (topics,)
        sub = Subscription(
            callback, None if topics is None else tuple(topics)
        )
        self._subs.append(sub)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        sub.active = False
        self._subs = [s for s in self._subs if s is not sub]

    def subscriber_count(self) -> int:
        return len(self._subs)

    # -- publishing ------------------------------------------------------------

    def publish(self, topic: str, **data: Any) -> dict[str, Any]:
        """Fan one event out to every matching subscriber."""
        self._seq += 1
        event = {
            "topic": topic,
            "seq": self._seq,
            "time": self._clock.now(),
            "data": data,
        }
        self.published += 1
        # a copy: a subscriber may (un)subscribe while the event fans out
        for sub in list(self._subs):
            if not sub.active or not sub.matches(topic):
                continue
            try:
                sub.callback(event)
            except Exception as exc:  # noqa: BLE001 - contain subscriber bugs
                self.unsubscribe(sub)
                self.dropped.append((repr(sub.callback), str(exc)))
        return event

    def close(self) -> None:
        """Close closable subscribers (e.g. :class:`JsonlSink`) and detach all."""
        subs, self._subs = self._subs, []
        for sub in subs:
            sub.active = False
            closer = getattr(sub.callback, "close", None)
            if callable(closer):
                closer()


class JsonlSink:
    """Append-only JSONL file subscriber (one event per line); events that
    arrive after :meth:`close` are ignored."""

    def __init__(self, path) -> None:
        self.path = path
        self._fh = open(path, "a")
        self.lines_written = 0

    def __call__(self, event: dict[str, Any]) -> None:
        if self._fh.closed:
            return
        line = json.dumps(event, sort_keys=True, default=_stringify)
        self._fh.write(line + "\n")
        self.lines_written += 1

    def flush(self) -> None:
        if not self._fh.closed:
            self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def attach_jsonl(bus: TelemetryBus, path, topics=None) -> JsonlSink:
    """Create a :class:`JsonlSink` on ``path`` and subscribe it."""
    sink = JsonlSink(path)
    bus.subscribe(sink, topics=topics)
    return sink


def read_jsonl(path, strict: bool = False) -> list[dict[str, Any]]:
    """Load a JSONL telemetry file back into event dicts (round-trip).

    A crash-time file (the flight recorder's ``blackbox.jsonl``, a sink
    killed mid-write) ends mid-record by construction, so by default a
    malformed *final* line is dropped rather than raised on; corruption
    anywhere earlier — and any malformed line under ``strict=True`` —
    still raises :class:`json.JSONDecodeError`.
    """
    events = []
    with open(path) as fh:
        lines = [ln.strip() for ln in fh]
    while lines and not lines[-1]:
        lines.pop()
    for i, line in enumerate(lines):
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            if strict or i != len(lines) - 1:
                raise
    return events


def _stringify(obj: Any) -> Any:
    """JSON fallback: numpy scalars via .item(), everything else repr'd."""
    if hasattr(obj, "item"):
        return obj.item()
    return str(obj)
