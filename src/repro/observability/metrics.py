"""Metrics registry: labeled counters, gauges, histograms, and series.

Instruments are identified by ``name`` plus a frozen label set, so
``registry.counter("scf.iterations", engine="ldc")`` and the same name with
``engine="pw"`` are independent time series — rendered in snapshots as
``scf.iterations{engine=ldc}``.

Four instrument kinds:

* :class:`Counter` — monotonically increasing total (``inc``);
* :class:`Gauge` — last-written value (``set``);
* :class:`Histogram` — summary statistics of observed values
  (count/sum/min/max/mean);
* :class:`Series` — the full ordered sample list (``append``), used for
  convergence histories like the per-iteration SCF residual or the
  multigrid V-cycle residual norms.

``snapshot()`` returns a plain dict; ``to_json``/``to_csv`` serialize it.
The registry is thread-safe.
"""

from __future__ import annotations

import io
import json
import threading
from typing import Any, Callable


def format_key(name: str, labels: dict[str, Any]) -> str:
    """Render ``name{k=v,...}`` with labels sorted for determinism."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class _Instrument:
    """Common identity for all instrument kinds."""

    kind = "instrument"

    def __init__(self, name: str, labels: dict[str, Any]) -> None:
        self.name = name
        self.labels = dict(labels)
        #: set by the owning registry when sample listeners are attached
        #: (telemetry-bus wire-up); ``None`` keeps sampling listener-free
        self._notify = None

    @property
    def key(self) -> str:
        return format_key(self.name, self.labels)


class Counter(_Instrument):
    kind = "counter"

    def __init__(self, name: str, labels: dict[str, Any]) -> None:
        super().__init__(name, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount
        if self._notify is not None:
            self._notify(self, self.value)

    def snapshot(self) -> dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Gauge(_Instrument):
    kind = "gauge"

    def __init__(self, name: str, labels: dict[str, Any]) -> None:
        super().__init__(name, labels)
        self.value: float | None = None

    def set(self, value: float | Callable[[], float]) -> None:
        """``value``, or — the payload rule of DESIGN.md §21 — what a
        zero-argument callable returns, evaluated only because a registry
        is listening."""
        self.value = float(value() if callable(value) else value)
        if self._notify is not None:
            self._notify(self, self.value)

    def snapshot(self) -> dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Histogram(_Instrument):
    kind = "histogram"

    def __init__(self, name: str, labels: dict[str, Any]) -> None:
        super().__init__(name, labels)
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        v = float(value)
        self.count += 1
        self.sum += v
        self.min = v if self.min is None else min(self.min, v)
        self.max = v if self.max is None else max(self.max, v)
        if self._notify is not None:
            self._notify(self, v)

    @property
    def mean(self) -> float | None:
        return self.sum / self.count if self.count else None

    def snapshot(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class Series(_Instrument):
    """Ordered sample list — a convergence history."""

    kind = "series"

    def __init__(self, name: str, labels: dict[str, Any]) -> None:
        super().__init__(name, labels)
        self.values: list[float] = []

    def append(self, value: float) -> None:
        self.values.append(float(value))
        if self._notify is not None:
            self._notify(self, self.values[-1])

    def extend(self, values) -> None:
        for v in values:
            self.append(v)

    def __len__(self) -> int:
        return len(self.values)

    def snapshot(self) -> dict[str, Any]:
        return {"kind": self.kind, "values": list(self.values)}


class MetricsRegistry:
    """Creates-or-returns labeled instruments and snapshots them."""

    _kinds = {"counter": Counter, "gauge": Gauge,
              "histogram": Histogram, "series": Series}

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}
        #: sample listeners, called as ``listener(instrument, value)`` on
        #: every inc/set/observe/append — the telemetry-bus wire-up
        self._listeners: list = []

    def add_listener(self, listener) -> None:
        """Attach a per-sample listener to every current/future instrument."""
        with self._lock:
            self._listeners.append(listener)
            for inst in self._instruments.values():
                inst._notify = self._dispatch

    def _dispatch(self, instrument: _Instrument, value: float) -> None:
        for listener in self._listeners:
            listener(instrument, value)

    # -- instrument accessors ------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get("histogram", name, labels)

    def series(self, name: str, **labels: Any) -> Series:
        return self._get("series", name, labels)

    def _get(self, kind: str, name: str, labels: dict[str, Any]):
        key = format_key(name, labels)
        with self._lock:
            inst = self._instruments.get(key)
            if inst is None:
                inst = self._kinds[kind](name, labels)
                if self._listeners:
                    inst._notify = self._dispatch
                self._instruments[key] = inst
            elif inst.kind != kind:
                raise TypeError(
                    f"{key} already registered as {inst.kind}, not {kind}"
                )
            return inst

    # -- queries / export ----------------------------------------------------

    def keys(self) -> list[str]:
        with self._lock:
            return sorted(self._instruments)

    def get(self, name: str, **labels: Any) -> _Instrument | None:
        """Look up an instrument without creating it."""
        with self._lock:
            return self._instruments.get(format_key(name, labels))

    def snapshot(self) -> dict[str, dict[str, Any]]:
        with self._lock:
            items = list(self._instruments.items())
        out: dict[str, dict[str, Any]] = {}
        for key, inst in sorted(items):
            rec = inst.snapshot()
            rec["name"] = inst.name
            rec["labels"] = dict(inst.labels)
            out[key] = rec
        return out

    def to_json(self, indent: int | None = 1) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def to_csv(self) -> str:
        """Flat CSV: series expand to one row per sample (``index`` column)."""
        buf = io.StringIO()
        buf.write("key,kind,index,value\n")
        for key, rec in self.snapshot().items():
            if rec["kind"] == "series":
                for i, v in enumerate(rec["values"]):
                    buf.write(f"{_csv_quote(key)},series,{i},{v}\n")
            elif rec["kind"] == "histogram":
                for stat in ("count", "sum", "min", "max", "mean"):
                    buf.write(f"{_csv_quote(key)},histogram:{stat},,{rec[stat]}\n")
            else:
                buf.write(f"{_csv_quote(key)},{rec['kind']},,{rec['value']}\n")
        return buf.getvalue()

    def write_snapshot(self, json_path=None, csv_path=None) -> None:
        if json_path is not None:
            with open(json_path, "w") as fh:
                fh.write(self.to_json())
        if csv_path is not None:
            with open(csv_path, "w") as fh:
                fh.write(self.to_csv())


def _csv_quote(text: str) -> str:
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text
