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
a ledger entry can always be traced back to the code that produced it.

Each :func:`report` call additionally lands a *run-ledger* entry: a
``telemetry/runs/<run_id>/`` directory (component ``bench:<name>``)
holding copies of both artifacts plus a schema'd manifest with content
hashes and the records' headline numbers flattened into manifest metrics —
the input to ``python -m repro.observability.runlog diff`` and
``regress --runs``.  Set ``REPRO_TELEMETRY_DIR`` to move the ledger root.
"""

from __future__ import annotations

import datetime
import json
import pathlib
import platform
import subprocess

from repro.observability.regress import SCHEMA_VERSION, RecordSchema

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

_META: dict | None = None


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=pathlib.Path(__file__).parent,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def run_meta() -> dict:
    """Provenance block shared by every payload of one suite run."""
    global _META
    if _META is None:
        import numpy

        _META = {
            "git_sha": _git_sha(),
            "timestamp": datetime.datetime.now(datetime.timezone.utc)
            .isoformat(timespec="seconds"),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
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
    ``BENCH_<name>.json`` (the machine-readable ledger entry).  When a
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
    txt_path = RESULTS_DIR / f"{name}.txt"
    json_path = RESULTS_DIR / f"BENCH_{name}.json"
    json_path.write_text(json.dumps(payload, indent=1) + "\n")
    _ledger_entry(name, txt_path, json_path, records or [], schema)


def _ledger_entry(
    name: str,
    txt_path: pathlib.Path,
    json_path: pathlib.Path,
    records: list[dict],
    schema: RecordSchema | None,
) -> None:
    """Land this report as a run-ledger entry under telemetry/runs/."""
    from repro.observability.runlog import RunRecorder, flatten_records

    rec = RunRecorder(component=f"bench:{name}")
    rec.add_artifact(txt_path)
    rec.add_artifact(json_path)
    rec.add_metrics(flatten_records(records, schema))
    rec.finish()


def fmt_row(*cols, widths=None) -> str:
    widths = widths or [12] * len(cols)
    out = []
    for c, w in zip(cols, widths):
        if isinstance(c, float):
            out.append(f"{c:>{w}.4g}")
        else:
            out.append(f"{str(c):>{w}}")
    return " ".join(out)
