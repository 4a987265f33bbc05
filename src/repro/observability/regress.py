"""Schema'd performance ledger and regression gate for the BENCH record files.

Every benchmark in ``benchmarks/`` reports its measured rows through
``_harness.report(..., records=, schema=)``, which writes a machine-readable
``BENCH_<name>.json`` payload.  This module supplies the two halves of the
continuous-regression loop around those payloads:

* **Schemas** — :class:`FieldSpec` / :class:`RecordSchema` declare, per
  benchmark, which fields a record row carries, which fields identify a row
  (the ``key``), and the tolerance band + direction of acceptable drift for
  every compared metric.  The schema is embedded *in* the JSON payload, so
  the gate below never has to import benchmark code.
* **The gate** — :func:`compare_payloads` diffs a fresh payload against a
  committed baseline row-by-row, and the CLI wires that into CI::

      python -m repro.observability.regress                 # diff vs baselines
      python -m repro.observability.regress --update        # promote fresh
      python -m repro.observability.regress --require-all   # CI strict mode

  Exit status: 0 = no regressions, 1 = regression/validation failure,
  2 = usage or I/O error.

Tolerance semantics (the paper's Tables 1-2 style "within N%" bands): the
allowed band around a baseline value ``x`` is ``max(abs_tol, rel_tol·|x|)``.
``direction="lower"`` means lower-is-better — only an *increase* beyond the
band is a regression (wall-clock, error norms, iteration counts);
``"higher"`` means higher-is-better (GFLOP/s, efficiency); ``"both"`` flags
drift either way (physics constants, model outputs).  Host-dependent
measurements (raw timings, this-host DGEMM rates) are declared
``compare=False`` — recorded in the ledger, never gated.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import pathlib
import sys
from dataclasses import dataclass, field
from typing import Any, Iterable

#: payload layout version written by benchmarks/_harness.py — bumped when
#: the BENCH_*.json envelope itself changes shape.
SCHEMA_VERSION = 2

_DIRECTIONS = ("lower", "higher", "both")
_KINDS = ("float", "int", "str")


@dataclass(frozen=True)
class FieldSpec:
    """One declared column of a benchmark record row.

    ``direction`` states which way regressions point; ``rel_tol``/``abs_tol``
    set the tolerance band (see module docstring).  ``compare=False`` fields
    are validated and ledgered but never gated — use it for host-dependent
    measurements.
    """

    name: str
    kind: str = "float"
    required: bool = True
    compare: bool = True
    direction: str = "both"
    rel_tol: float = 0.05
    abs_tol: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"field {self.name}: unknown kind {self.kind!r}")
        if self.direction not in _DIRECTIONS:
            raise ValueError(
                f"field {self.name}: unknown direction {self.direction!r}"
            )
        if self.rel_tol < 0 or self.abs_tol < 0:
            raise ValueError(f"field {self.name}: tolerances must be >= 0")

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FieldSpec":
        return cls(**data)


def metric_value(**overrides: Any) -> list[FieldSpec]:
    """The canonical field list of a *metric-style* schema: rows are
    ``{"metric": <name>, "value": <number>}`` and per-metric tolerance
    bands live in :attr:`RecordSchema.overrides`."""
    return [
        FieldSpec("metric", kind="str", compare=False),
        FieldSpec("value", **overrides),
    ]


@dataclass
class RecordSchema:
    """The declared shape of one benchmark's ``records=`` rows.

    ``key`` names the fields whose joined values identify a row across runs
    (empty key ⇒ the bench emits a single row).  ``overrides`` maps a row's
    key-string to ``{field: {spec kwargs}}`` replacements — how metric-style
    benches give every scalar its own band.
    """

    bench: str
    fields: list[FieldSpec]
    key: tuple[str, ...] = ()
    version: int = 1
    overrides: dict[str, dict[str, dict[str, Any]]] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise ValueError(f"{self.bench}: duplicate field declarations")
        for k in self.key:
            if k not in names:
                raise ValueError(f"{self.bench}: key field {k!r} undeclared")

    # -- row identity -------------------------------------------------------

    def row_key(self, record: dict[str, Any]) -> str:
        return "|".join(str(record.get(k)) for k in self.key)

    def spec_for(self, key_str: str, name: str) -> FieldSpec | None:
        for f in self.fields:
            if f.name == name:
                kw = self.overrides.get(key_str, {}).get(name)
                return dataclasses.replace(f, **kw) if kw else f
        return None

    # -- validation ---------------------------------------------------------

    def validate(self, records: Iterable[dict[str, Any]]) -> list[str]:
        """Schema-check a record list; returns human-readable problems."""
        errors: list[str] = []
        declared = {f.name: f for f in self.fields}
        seen_keys: set[str] = set()
        for i, rec in enumerate(records):
            where = f"{self.bench}[{i}]"
            if not isinstance(rec, dict):
                errors.append(f"{where}: record is not an object")
                continue
            for f in self.fields:
                if f.required and f.name not in rec:
                    errors.append(f"{where}: missing field {f.name!r}")
            for name, value in rec.items():
                spec = declared.get(name)
                if spec is None:
                    errors.append(f"{where}: undeclared field {name!r}")
                elif not _kind_ok(spec.kind, value):
                    errors.append(
                        f"{where}: field {name!r} is not {spec.kind} "
                        f"(got {type(value).__name__})"
                    )
            key = self.row_key(rec)
            if self.key and key in seen_keys:
                errors.append(f"{where}: duplicate row key {key!r}")
            seen_keys.add(key)
        return errors

    # -- (de)serialization --------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "bench": self.bench,
            "version": self.version,
            "key": list(self.key),
            "fields": [f.to_dict() for f in self.fields],
            "overrides": self.overrides,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RecordSchema":
        return cls(
            bench=data["bench"],
            fields=[FieldSpec.from_dict(f) for f in data["fields"]],
            key=tuple(data.get("key", ())),
            version=int(data.get("version", 1)),
            overrides=dict(data.get("overrides", {})),
        )


def _kind_ok(kind: str, value: Any) -> bool:
    if value is None:
        return True  # required-ness is checked separately; None = absent
    if kind == "str":
        return isinstance(value, str)
    if kind == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# -- comparison -------------------------------------------------------------


@dataclass(frozen=True)
class Delta:
    """One row/field-level difference between baseline and fresh."""

    bench: str
    key: str
    field: str
    status: str  # "regression" | "missing_row" | "new_row" | "invalid"
    baseline: Any = None
    fresh: Any = None
    message: str = ""

    @property
    def gating(self) -> bool:
        """New rows are informational; everything else fails the gate."""
        return self.status != "new_row"

    def format(self) -> str:
        loc = f"{self.bench}[{self.key}]" if self.key else self.bench
        if self.status == "regression":
            return (
                f"REGRESSION {loc}.{self.field}: "
                f"baseline {self.baseline!r} -> fresh {self.fresh!r}"
                + (f" ({self.message})" if self.message else "")
            )
        if self.status == "missing_row":
            return f"MISSING    {loc}: row present in baseline, absent in fresh"
        if self.status == "new_row":
            return f"NEW        {loc}: row has no baseline (use --update)"
        return f"INVALID    {loc}: {self.message}"


def _band(spec: FieldSpec, baseline: float) -> float:
    return max(spec.abs_tol, spec.rel_tol * abs(baseline))


def _violates(spec: FieldSpec, baseline: Any, fresh: Any) -> str | None:
    """Tolerance-band check; returns a reason string on violation."""
    if spec.kind == "str":
        return "changed" if baseline != fresh else None
    if baseline is None and fresh is None:
        return None
    if baseline is None or fresh is None:
        return "value appeared/disappeared"
    if not _kind_ok("float", baseline) or not _kind_ok("float", fresh):
        # the kind violation is already reported by validate(); the row
        # simply cannot be banded
        return "value is not numeric"
    b, f = float(baseline), float(fresh)
    if math.isnan(b) and math.isnan(f):
        return None
    if math.isnan(b) != math.isnan(f):
        return "NaN-ness changed"
    band = _band(spec, b)
    if spec.direction == "lower" and f > b + band:
        return f"worse by {f - b:.4g} (band {band:.4g}, lower is better)"
    if spec.direction == "higher" and f < b - band:
        return f"worse by {b - f:.4g} (band {band:.4g}, higher is better)"
    if spec.direction == "both" and abs(f - b) > band:
        return f"drifted by {f - b:.4g} (band {band:.4g})"
    return None


def compare_payloads(
    baseline: dict[str, Any], fresh: dict[str, Any]
) -> list[Delta]:
    """Diff two ``BENCH_*.json`` payloads row-by-row under the schema.

    The *fresh* payload's embedded schema wins (it reflects the current
    code's declaration); the baseline's is the fallback for old payloads.
    """
    bench = str(fresh.get("bench") or baseline.get("bench") or "?")
    schema_dict = fresh.get("schema") or baseline.get("schema")
    if not schema_dict:
        return [
            Delta(bench, "", "", "invalid", message="no schema in payload")
        ]
    schema = RecordSchema.from_dict(schema_dict)
    deltas: list[Delta] = [
        Delta(bench, "", "", "invalid", message=err)
        for err in schema.validate(fresh.get("records", []))
    ]
    base_rows = {
        schema.row_key(r): r for r in baseline.get("records", [])
    }
    fresh_rows = {
        schema.row_key(r): r for r in fresh.get("records", [])
    }
    for key, base_row in base_rows.items():
        fresh_row = fresh_rows.get(key)
        if fresh_row is None:
            deltas.append(Delta(bench, key, "", "missing_row"))
            continue
        for name in base_row:
            spec = schema.spec_for(key, name)
            if spec is None or not spec.compare:
                continue
            reason = _violates(spec, base_row.get(name), fresh_row.get(name))
            if reason is not None:
                deltas.append(
                    Delta(
                        bench, key, name, "regression",
                        baseline=base_row.get(name),
                        fresh=fresh_row.get(name),
                        message=reason,
                    )
                )
    for key in fresh_rows:
        if key not in base_rows:
            deltas.append(Delta(bench, key, "", "new_row"))
    return deltas


# -- CLI --------------------------------------------------------------------


def _load(path: pathlib.Path) -> dict[str, Any]:
    with open(path) as fh:
        return json.load(fh)


def _bench_files(directory: pathlib.Path) -> dict[str, pathlib.Path]:
    return {
        p.name[len("BENCH_"):-len(".json")]: p
        for p in sorted(directory.glob("BENCH_*.json"))
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.observability.regress",
        description="Diff fresh BENCH_*.json results against committed "
        "baselines; nonzero exit on regression.",
    )
    parser.add_argument(
        "--results", default="benchmarks/results",
        help="directory with fresh BENCH_*.json payloads",
    )
    parser.add_argument(
        "--baselines", default="benchmarks/baselines",
        help="directory with committed baseline payloads",
    )
    parser.add_argument(
        "--bench", action="append", default=None, metavar="NAME",
        help="restrict to specific bench name(s)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="promote fresh payloads to baselines instead of diffing",
    )
    parser.add_argument(
        "--require-all", action="store_true",
        help="fail when a baselined bench has no fresh result (CI strict)",
    )
    args = parser.parse_args(argv)

    baselines_dir = pathlib.Path(args.baselines)
    results_dir = pathlib.Path(args.results)
    if not results_dir.is_dir():
        print(f"error: results dir not found: {results_dir}", file=sys.stderr)
        return 2
    fresh_files = _bench_files(results_dir)
    if args.bench:
        missing = sorted(set(args.bench) - set(fresh_files))
        if missing and not args.update:
            # tolerated unless strict: the selected bench may not have run
            for name in missing:
                print(f"note: no fresh result for --bench {name}")
        fresh_files = {
            k: v for k, v in fresh_files.items() if k in set(args.bench)
        }

    if args.update:
        baselines_dir.mkdir(parents=True, exist_ok=True)
        for name, path in sorted(fresh_files.items()):
            (baselines_dir / path.name).write_text(path.read_text())
            print(f"baseline updated: {name}")
        if not fresh_files:
            print("nothing to update", file=sys.stderr)
            return 2
        return 0

    if not baselines_dir.is_dir():
        print(
            f"error: baselines dir not found: {baselines_dir} "
            "(run with --update to create it)",
            file=sys.stderr,
        )
        return 2
    baseline_files = _bench_files(baselines_dir)
    if args.bench:
        baseline_files = {
            k: v for k, v in baseline_files.items() if k in set(args.bench)
        }

    gating = 0
    compared = 0
    skipped: list[str] = []
    for name, base_path in sorted(baseline_files.items()):
        fresh_path = fresh_files.get(name)
        if fresh_path is None:
            skipped.append(name)
            continue
        compared += 1
        for delta in compare_payloads(_load(base_path), _load(fresh_path)):
            print(delta.format())
            if delta.gating:
                gating += 1
    for name in sorted(set(fresh_files) - set(baseline_files)):
        print(f"NEW        {name}: bench has no baseline (use --update)")

    if skipped:
        verb = "FAIL" if args.require_all else "skipped"
        print(f"{verb}: no fresh result for {', '.join(skipped)}")
        if args.require_all:
            gating += len(skipped)
    print(
        f"regress: {compared} bench(es) compared, "
        f"{gating} gating difference(s)"
    )
    return 1 if gating else 0


if __name__ == "__main__":
    raise SystemExit(main())
