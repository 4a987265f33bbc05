"""Shared helpers for the benchmark suite: paper-style table reporting.

Every bench prints the rows the paper's table/figure reports and appends
them to ``benchmarks/results/<name>.txt`` so a full ``pytest benchmarks/
--benchmark-only`` run leaves a complete paper-vs-measured record behind.

Alongside each text file, :func:`report` writes a machine-readable
``benchmarks/results/BENCH_<name>.json`` payload::

    {"schema_version": 2, "bench": "<name>", "title": "...",
     "meta": {...provenance...}, "schema": {...declared record shape...},
     "lines": [...], "records": [...]}

``records`` carries one dict per measured row and ``schema`` its declared
shape from ``benchmarks/_schemas.py`` — validated here at report time, so a
bench emitting malformed rows fails immediately.  The payloads are the
input to the regression gate::

    python -m repro.observability.regress --baselines benchmarks/baselines

``meta`` records provenance (git SHA, timestamp, python/numpy versions) so
a bench record can always be traced back to the code that produced it.
These two files are the whole record of a bench run: nothing is written
under ``telemetry/``.
"""

from __future__ import annotations

import datetime
import json
import pathlib

from repro.observability.regress import SCHEMA_VERSION, RecordSchema
from repro.observability.runlog import provenance

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

_META: dict | None = None


def run_meta() -> dict:
    """Provenance block shared by every payload of one suite run: the run
    manifest's ``provenance`` plus a timestamp."""
    global _META
    if _META is None:
        _META = {
            **provenance(),
            "timestamp": datetime.datetime.now(datetime.timezone.utc)
            .isoformat(timespec="seconds"),
        }
    return _META


def report(
    name: str,
    title: str,
    lines: list[str],
    records: list[dict] | None = None,
    schema: RecordSchema | None = None,
) -> None:
    """Print a result block and persist it under benchmarks/results/.

    Writes both ``<name>.txt`` (the human-readable block, unchanged) and
    ``BENCH_<name>.json`` (the machine-readable record).  When a
    ``schema`` is given the records are validated against it — a violation
    raises, failing the benchmark — and the schema rides along in the
    payload for ``repro.observability.regress``.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    block = [f"=== {title} ==="] + lines + [""]
    text = "\n".join(block)
    print("\n" + text)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    if schema is not None:
        problems = schema.validate(records or [])
        if problems:
            raise ValueError(
                f"bench {name!r}: records violate schema:\n  "
                + "\n  ".join(problems)
            )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "bench": name,
        "title": title,
        "meta": run_meta(),
        "schema": schema.to_dict() if schema is not None else None,
        "lines": list(lines),
        "records": records or [],
    }
    (RESULTS_DIR / f"BENCH_{name}.json").write_text(
        json.dumps(payload, indent=1) + "\n"
    )


def fmt_row(*cols, widths=None) -> str:
    widths = widths or [12] * len(cols)
    out = []
    for c, w in zip(cols, widths):
        if isinstance(c, float):
            out.append(f"{c:>{w}.4g}")
        else:
            out.append(f"{str(c):>{w}}")
    return " ".join(out)
