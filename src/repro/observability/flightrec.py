"""The flight recorder: a bounded event ring dumped on failure.

A :class:`FlightRecorder` is fed by the run's tracer and metrics registry
listeners and keeps the most recent telemetry in memory — a bounded ring of
raw events plus the latest sample per metric key.  Nothing is written while
a run is healthy.  When the run fails — a driver dies on an unhandled
exception, a non-finite potential's named error among them — the recorder
dumps its ring, the currently *open* span stack, and the recent metric
samples to ``blackbox.jsonl`` inside the run directory.

Dump format is JSONL, one record per line, discriminated by ``"record"``::

    {"record": "dump",      "reason": "exception", "seen": 412, ...}
    {"record": "event",     "topic": "span", "seq": 405, ...}
    {"record": "open_span", "path": "qmd.step/ldc.run", ...}
    {"record": "metric",    "key": "qmd.total_energy.last", "value": ...}

A crash-time file may by construction end mid-record; :func:`read_jsonl`
tolerates exactly that.  Telemetry never takes down the solve it watches:
a dump that cannot be written is kept in :attr:`FlightRecorder.errors`
(the run manifest lists it under ``failures``) instead of raising.

The recorder is wired automatically by
:class:`~repro.observability.runlog.RunRecorder`
(:meth:`~repro.observability.runlog.RunRecorder.attach`); it can also be
fed by hand (:meth:`FlightRecorder.record`) with an explicit ``dump_dir``.
Single-threaded by contract: the recorder holds no lock.
"""

from __future__ import annotations

import json
import pathlib
from collections import OrderedDict, deque
from typing import TYPE_CHECKING, Any

from repro.util.timer import WallClock

if TYPE_CHECKING:
    from repro.observability.tracer import SpanTracer

#: file name of the post-mortem dump inside a run directory
BLACKBOX_NAME = "blackbox.jsonl"


class FlightRecorder:
    """Bounded telemetry ring buffer with failure-triggered dumps.

    Parameters
    ----------
    capacity:
        Maximum events retained; older events are evicted FIFO (the ring
        semantics a post-mortem wants: the *last* N events before death).
    metrics_keep:
        Most-recently-sampled metric keys retained (one latest sample per
        key, LRU-evicted beyond this bound).
    dump_dir:
        Directory receiving ``blackbox.jsonl``; usually set by the owning
        :class:`~repro.observability.runlog.RunRecorder`.  ``None`` makes
        :meth:`dump` a no-op returning ``None``.
    tracer:
        Optional :class:`~repro.observability.tracer.SpanTracer` whose
        open-span stack is included in dumps and whose clock stamps events.
    """

    def __init__(
        self,
        capacity: int = 256,
        metrics_keep: int = 64,
        dump_dir=None,
        tracer: "SpanTracer | None" = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("flight-recorder capacity must be >= 1")
        self.capacity = capacity
        self.metrics_keep = metrics_keep
        self.dump_dir = dump_dir
        self.tracer = tracer
        self._events: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._metrics: OrderedDict[str, dict[str, Any]] = OrderedDict()
        #: total events observed (>= len(ring) once the ring wraps)
        self.seen = 0
        #: paths written by :meth:`dump`, in order
        self.dumps: list[pathlib.Path] = []
        #: dumps that could not be written, as ``{"type", "message"}``
        self.errors: list[dict[str, str]] = []

    # -- feeding the ring -----------------------------------------------------

    def record(self, topic: str, **data: Any) -> None:
        """Append one event to the ring."""
        self.seen += 1
        clock = self.tracer if self.tracer is not None else _DEFAULT_CLOCK
        event = {
            "topic": topic, "seq": self.seen, "time": clock.now(), "data": data,
        }
        self._events.append(event)
        if topic == "metric":
            key = str(data.get("key"))
            self._metrics[key] = {
                "key": key,
                "value": data.get("value"),
                "seq": event["seq"],
                "time": event["time"],
            }
            self._metrics.move_to_end(key)
            while len(self._metrics) > self.metrics_keep:
                self._metrics.popitem(last=False)

    # -- queries --------------------------------------------------------------

    @property
    def overflowed(self) -> int:
        """Events evicted from the ring since creation."""
        return max(0, self.seen - len(self._events))

    # -- the post-mortem dump -------------------------------------------------

    def dump(self, reason: str, trigger=None, path=None) -> pathlib.Path | None:
        """Write the black box; returns the path (``None`` if undumpable).

        Multiple dumps append to the same file, each starting with its own
        ``"dump"`` header record, so successive failures leave their
        contexts on disk in order.  An ``OSError`` while writing is kept in
        :attr:`errors`, not raised.
        """
        if path is None:
            if self.dump_dir is None:
                return None
            path = pathlib.Path(self.dump_dir) / BLACKBOX_NAME
        path = pathlib.Path(path)
        records: list[dict[str, Any]] = [
            {
                "record": "dump",
                "reason": reason,
                "seen": self.seen,
                "retained": len(self._events),
                "overflowed": self.overflowed,
                "trigger": trigger,
            }
        ]
        records.extend({"record": "event", **e} for e in self._events)
        if self.tracer is not None:
            for s in self.tracer.open_spans():
                records.append(
                    {
                        "record": "open_span",
                        "name": s.name,
                        "path": s.path,
                        "category": s.category,
                        "t_start": s.t_start,
                        "attrs": s.attrs,
                    }
                )
        records.extend({"record": "metric", **m} for m in self._metrics.values())
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "a") as fh:
                for rec in records:
                    fh.write(json.dumps(rec, sort_keys=True, default=str) + "\n")
        except OSError as exc:
            self.errors.append({
                "type": type(exc).__name__,
                "message": f"{reason} dump to {path} failed: {exc}",
            })
            return None
        self.dumps.append(path)
        return path


def read_jsonl(path, strict: bool = False) -> list[dict[str, Any]]:
    """Load a JSONL file (``blackbox.jsonl``) back into dicts.

    A crash-time file ends mid-record by construction, so by default a
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


_DEFAULT_CLOCK = WallClock()
