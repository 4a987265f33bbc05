"""The run ledger: durable per-run identity, manifests, and cross-run drift.

Single-run telemetry (trace/metrics/health/comm artifacts) answers "what
happened in *this* invocation"; the paper's scaling and time-to-solution
claims (Figs. 5/6, Sec. 5) are statements about *series* of runs.  This
module adds the longitudinal layer:

* **Run ledger** — :class:`RunRecorder` gives every driver/bench invocation
  a run id and a directory ``<telemetry>/runs/<run_id>/`` holding the
  telemetry artifacts plus a schema'd ``manifest.json``: git SHA, options
  hashes, environment flags, wall-clock, headline metrics,
  and a content hash of every artifact (so a ledger entry is verifiable
  long after the run).
* **Flight recorder** — a :class:`~repro.observability.flightrec.
  FlightRecorder` wired to the run's telemetry bus dumps ``blackbox.jsonl``
  on health FAILs, sanitizer errors, and unhandled driver exceptions.
* **Sampling profiler** — ``RunRecorder(profile=True)`` attaches a
  :class:`~repro.observability.profiler.SamplingProfiler`; its samples land
  in ``profile.json`` and merge into the Chrome trace as pid 4.
* **Cross-run analytics** — the CLI lists/inspects/verifies runs, diffs two
  manifests metric-by-metric under
  :class:`~repro.observability.regress.FieldSpec` tolerance bands, and runs
  a direction-aware trend test over the last K runs of a component so drift
  shows up *between* baseline updates::

      python -m repro.observability.runlog list
      python -m repro.observability.runlog show <run_id>
      python -m repro.observability.runlog verify <run_id>
      python -m repro.observability.runlog diff <run_a> <run_b>
      python -m repro.observability.runlog diff --last bench:qmd_warm_start
      python -m repro.observability.runlog drift qmd.run --k 8

  Exit status: 0 = clean, 1 = drift/verification failure, 2 = usage/I-O
  error (the :mod:`~repro.observability.regress` convention).

All telemetry writers resolve their output location through
:func:`telemetry_root` (the ``REPRO_TELEMETRY_DIR`` environment variable,
default ``telemetry/``), so runs never clobber each other's ``trace.json``.

The recorder rides the :class:`~repro.observability.Instrumentation` facade
(``Instrumentation(recorder=rec)``) and inherits its zero-overhead
contract: no facade, or a facade without a recorder, executes zero runlog
code (pinned by ``benchmarks/bench_runlog_overhead.py``).
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time
from typing import TYPE_CHECKING, Any

from repro.observability.flightrec import BLACKBOX_NAME, FlightRecorder

if TYPE_CHECKING:
    from repro.observability.instrumentation import Instrumentation
    from repro.observability.regress import RecordSchema

#: manifest layout version — bumped when the manifest envelope changes
MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"
PROFILE_NAME = "profile.json"

#: environment variable naming the telemetry root directory
ENV_TELEMETRY_DIR = "REPRO_TELEMETRY_DIR"

#: environment flags recorded in every manifest (set or not)
TRACKED_ENV = (
    "REPRO_SANITIZE",
    ENV_TELEMETRY_DIR,
)

_STATUSES = ("running", "ok", "fail", "error")


# -- path resolution ---------------------------------------------------------


def telemetry_root(root=None) -> pathlib.Path:
    """The telemetry output directory every writer resolves through.

    Explicit ``root`` wins, then ``$REPRO_TELEMETRY_DIR``, then the
    relative default ``telemetry/``.
    """
    if root is not None:
        return pathlib.Path(root)
    env = os.environ.get(ENV_TELEMETRY_DIR, "").strip()
    return pathlib.Path(env or "telemetry")


def runs_root(root=None) -> pathlib.Path:
    """``<telemetry root>/runs`` — the ledger directory."""
    return telemetry_root(root) / "runs"


def new_run_id(component: str = "run") -> str:
    """``<utc-stamp>-<component>-<entropy>``; sorts chronologically."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    safe = "".join(
        c if c.isalnum() or c in "_.-" else "-" for c in component
    ).strip("-") or "run"
    return f"{stamp}-{safe}-{os.urandom(3).hex()}"


# -- hashing -----------------------------------------------------------------


def hash_file(path) -> str:
    """sha256 hex digest of a file's contents."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def options_hash(options: Any) -> str:
    """Stable short hash of an options object (dataclass, dict, or repr).

    Equal options hash equal; any field change changes the hash — the
    cheap cross-run identity for "same bench, same knobs".
    """
    payload = _canonical_options(options)
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _canonical_options(options: Any) -> Any:
    if options is None:
        return None
    if dataclasses.is_dataclass(options) and not isinstance(options, type):
        return {
            f.name: _canonical_options(getattr(options, f.name))
            for f in dataclasses.fields(options)
        }
    if isinstance(options, dict):
        return {str(k): _canonical_options(v) for k, v in options.items()}
    if isinstance(options, (list, tuple)):
        return [_canonical_options(v) for v in options]
    if isinstance(options, (str, int, float, bool)):
        return options
    return repr(options)


# -- metric flattening -------------------------------------------------------


def flatten_metrics(snapshot: dict[str, dict[str, Any]]) -> dict[str, float]:
    """Scalar view of a :meth:`MetricsRegistry.snapshot`.

    Counters/gauges keep their value; histograms contribute ``.mean`` and
    ``.count``; series contribute ``.last`` and ``.n`` — the headline
    numbers two manifests can be diffed on.
    """
    out: dict[str, float] = {}
    for key, rec in snapshot.items():
        kind = rec.get("kind")
        if kind in ("counter", "gauge"):
            if rec.get("value") is not None:
                out[key] = float(rec["value"])
        elif kind == "histogram":
            if rec.get("mean") is not None:
                out[f"{key}.mean"] = float(rec["mean"])
            out[f"{key}.count"] = float(rec.get("count", 0))
        elif kind == "series":
            values = rec.get("values") or []
            if values:
                out[f"{key}.last"] = float(values[-1])
            out[f"{key}.n"] = float(len(values))
    return out


def flatten_records(
    records: list[dict[str, Any]], schema: "RecordSchema | None" = None
) -> dict[str, float]:
    """Scalar view of a bench's ``records=`` rows for the manifest.

    Metric-style rows (``{"metric": m, "value": v}``) map directly; keyed
    tabular rows prefix each numeric field with the schema row key; unkeyed
    rows fall back to a positional prefix.
    """
    out: dict[str, float] = {}
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            continue
        if set(rec) >= {"metric", "value"} and isinstance(
            rec.get("value"), (int, float)
        ):
            out[str(rec["metric"])] = float(rec["value"])
            continue
        if schema is not None and schema.key:
            prefix = schema.row_key(rec)
        else:
            prefix = f"row{i}"
        for name, value in rec.items():
            if schema is not None and name in schema.key:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            out[f"{prefix}.{name}"] = float(value)
    return out


# -- provenance --------------------------------------------------------------


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=pathlib.Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def _provenance() -> dict[str, Any]:
    import platform

    import numpy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# -- the recorder ------------------------------------------------------------


class RunRecorder:
    """Gives one driver/bench invocation a durable ledger entry.

    Typical use through the facade::

        rec = RunRecorder(component="qmd")
        ins = Instrumentation(health=monitor, recorder=rec)
        QMDDriver(LDCEngine(opts), timestep=5.0, instrumentation=ins).run(
            config, nsteps)
        rec.finish()        # artifacts + manifest under telemetry/runs/<id>/

    Standalone (no facade — e.g. the bench harness) works too: artifacts
    are registered with :meth:`add_artifact` and headline numbers with
    :meth:`add_metrics`; :meth:`finish` still writes a verified manifest.
    """

    def __init__(
        self,
        component: str = "run",
        root=None,
        run_id: str | None = None,
        flight: FlightRecorder | None = None,
        flight_capacity: int = 256,
        profile: bool = False,
        profile_interval: float = 0.002,
    ) -> None:
        self.component = component
        self.root = telemetry_root(root)
        self.run_id = run_id or new_run_id(component)
        self.dir = self.root / "runs" / self.run_id
        self.dir.mkdir(parents=True, exist_ok=True)
        self.flight = flight or FlightRecorder(capacity=flight_capacity)
        if self.flight.dump_dir is None:
            self.flight.dump_dir = self.dir
        self.profile = profile
        self.profile_interval = profile_interval
        self.profiler = None
        self.manifest: dict[str, Any] | None = None
        self._ins: "Instrumentation | None" = None
        self._t0 = time.time()
        self._started = _utc_now()
        self._invocations: list[dict[str, Any]] = []
        self._failures: list[dict[str, Any]] = []
        self._last_exc: BaseException | None = None
        self._metrics: dict[str, float] = {}

    # -- facade wiring --------------------------------------------------------

    def attach(self, ins: "Instrumentation") -> None:
        """Wire the flight recorder (and profiler) into a facade.

        Called by ``Instrumentation(recorder=...)``; the facade guarantees
        a telemetry bus exists by then.
        """
        self._ins = ins
        self.flight.tracer = ins.tracer
        if ins.stream is not None:
            ins.stream.subscribe(self.flight)
        if self.profile and self.profiler is None:
            from repro.observability.profiler import SamplingProfiler

            self.profiler = SamplingProfiler(
                interval=self.profile_interval,
                clock=ins.tracer._clock,
                tracer=ins.tracer,
            )
            self.profiler.start()

    # -- in-flight records ----------------------------------------------------

    def record_invocation(
        self, component: str, options: Any = None, **meta: Any
    ) -> None:
        """Note one driver entry (``qmd.run``, ``ldc.run``, ...)."""
        entry: dict[str, Any] = {
            "component": component,
            "options_hash": options_hash(options),
            "time": time.time() - self._t0,
        }
        if meta:
            entry.update(_canonical_options(meta))
        self._invocations.append(entry)

    def record_failure(self, exc: BaseException) -> None:
        """Note an unhandled driver exception and dump the black box.

        Idempotent per exception object, so an engine-level capture and the
        driver-level capture of the *same* propagating error record once.
        """
        if exc is self._last_exc:
            return
        self._last_exc = exc
        entry = {"type": type(exc).__name__, "message": str(exc)}
        self._failures.append(entry)
        self.flight.dump("exception", trigger=entry)

    def add_metrics(self, metrics: dict[str, float]) -> None:
        """Merge explicit headline metrics into the manifest."""
        for key, value in metrics.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            self._metrics[str(key)] = float(value)

    def add_artifact(self, path, name: str | None = None) -> pathlib.Path:
        """Copy an externally produced file into the run directory."""
        src = pathlib.Path(path)
        dest = self.dir / (name or src.name)
        if src.resolve() != dest.resolve():
            shutil.copy2(src, dest)
        return dest

    # -- finalization ---------------------------------------------------------

    def finish(self, status: str | None = None) -> dict[str, Any]:
        """Write artifacts + manifest; returns the manifest (idempotent)."""
        if self.manifest is not None:
            return self.manifest
        ins = self._ins
        if self.profiler is not None:
            self.profiler.stop()
            if ins is not None and self.profiler.samples:
                ins.extra_chrome_events.extend(self.profiler.chrome_events())
            with open(self.dir / PROFILE_NAME, "w") as fh:
                json.dump(self.profiler.to_dict(), fh, indent=1)
        if ins is not None:
            ins.write_artifacts(self.dir)
            self.add_metrics(flatten_metrics(ins.metrics.snapshot()))
        health = None
        if ins is not None and ins.health is not None:
            health = {
                "worst_status": ins.health.worst_status(),
                "failures": len(ins.health.failures()),
            }
        telemetry = {"published": 0, "dropped": []}
        if ins is not None and ins.stream is not None:
            telemetry = {
                "published": ins.stream.published,
                "dropped": [list(d) for d in ins.stream.dropped],
            }
        manifest: dict[str, Any] = {
            "manifest_version": MANIFEST_VERSION,
            "run_id": self.run_id,
            "component": self.component,
            "status": _resolve_status(status, self._failures, health),
            "started": self._started,
            "finished": _utc_now(),
            "wall_seconds": time.time() - self._t0,
            "provenance": _provenance(),
            "env": {k: os.environ.get(k) for k in TRACKED_ENV},
            "invocations": self._invocations,
            "failures": self._failures,
            "health": health,
            "telemetry": telemetry,
            "metrics": dict(sorted(self._metrics.items())),
            "artifacts": {
                p.name: {
                    "path": p.name,
                    "sha256": hash_file(p),
                    "bytes": p.stat().st_size,
                }
                for p in sorted(self.dir.iterdir())
                if p.is_file() and p.name != MANIFEST_NAME
            },
        }
        problems = validate_manifest(manifest)
        if problems:  # a layout bug in this module, not a user error
            raise RuntimeError(
                "generated manifest violates its own schema:\n  "
                + "\n  ".join(problems)
            )
        with open(self.dir / MANIFEST_NAME, "w") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
        self.manifest = manifest
        return manifest


def _utc_now() -> str:
    return (
        datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds")
    )


def _resolve_status(
    explicit: str | None,
    failures: list[dict[str, Any]],
    health: dict[str, Any] | None,
) -> str:
    if explicit is not None:
        if explicit not in _STATUSES:
            raise ValueError(f"unknown run status {explicit!r}")
        return explicit
    if failures:
        return "error"
    if health is not None and health.get("worst_status") == "fail":
        return "fail"
    return "ok"


# -- manifest schema ---------------------------------------------------------


def validate_manifest(manifest: Any) -> list[str]:
    """Schema-check a manifest dict; returns human-readable problems."""
    errors: list[str] = []
    if not isinstance(manifest, dict):
        return ["manifest is not an object"]

    def need(name: str, kinds, check=None) -> None:
        if name not in manifest:
            errors.append(f"missing field {name!r}")
            return
        value = manifest[name]
        if not isinstance(value, kinds):
            errors.append(
                f"field {name!r}: expected {kinds}, got {type(value).__name__}"
            )
            return
        if check is not None:
            check(value)

    need("manifest_version", int)
    need("run_id", str)
    need("component", str)
    need(
        "status", str,
        lambda v: v in _STATUSES
        or errors.append(f"status {v!r} not one of {_STATUSES}"),
    )
    need("started", str)
    need("finished", str)
    need("wall_seconds", (int, float))
    need("provenance", dict)
    need("env", dict)
    need("invocations", list)
    need("failures", list)
    need("telemetry", dict)

    def check_metrics(metrics: dict) -> None:
        for key, value in metrics.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                errors.append(f"metric {key!r}: value is not numeric")

    need("metrics", dict, check_metrics)

    def check_artifacts(artifacts: dict) -> None:
        for name, entry in artifacts.items():
            if not isinstance(entry, dict):
                errors.append(f"artifact {name!r}: entry is not an object")
                continue
            sha = entry.get("sha256")
            if not (isinstance(sha, str) and len(sha) == 64):
                errors.append(f"artifact {name!r}: bad sha256")
            if not isinstance(entry.get("path"), str):
                errors.append(f"artifact {name!r}: missing path")
            nbytes = entry.get("bytes")
            if isinstance(nbytes, bool) or not isinstance(nbytes, int):
                errors.append(f"artifact {name!r}: bad byte count")

    need("artifacts", dict, check_artifacts)
    return errors


def load_manifest(run_dir) -> dict[str, Any]:
    with open(pathlib.Path(run_dir) / MANIFEST_NAME) as fh:
        return json.load(fh)


def verify_run(run_dir) -> list[str]:
    """Validate a run's manifest and re-hash its artifacts.

    Returns problems (empty = every content hash checks out).  The
    black box is exempt from hashing only if it appeared *after* the
    manifest was written (a post-finish dump) — a hashed one must match.
    """
    run_dir = pathlib.Path(run_dir)
    try:
        manifest = load_manifest(run_dir)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"unreadable manifest: {exc}"]
    problems = validate_manifest(manifest)
    for name, entry in manifest.get("artifacts", {}).items():
        path = run_dir / entry.get("path", name)
        if not path.is_file():
            problems.append(f"artifact {name!r}: file missing")
            continue
        actual = hash_file(path)
        if actual != entry.get("sha256"):
            problems.append(
                f"artifact {name!r}: content hash mismatch "
                f"(manifest {str(entry.get('sha256'))[:12]}…, "
                f"file {actual[:12]}…)"
            )
    return problems


# -- ledger queries ----------------------------------------------------------


def list_runs(
    root=None, component: str | None = None
) -> list[dict[str, Any]]:
    """Manifests of every ledger run, oldest first (unreadable runs skipped)."""
    base = runs_root(root)
    if not base.is_dir():
        return []
    out = []
    for run_dir in sorted(base.iterdir()):
        manifest_path = run_dir / MANIFEST_NAME
        if not manifest_path.is_file():
            continue
        try:
            manifest = load_manifest(run_dir)
        except (OSError, json.JSONDecodeError):
            continue
        if component is not None and manifest.get("component") != component:
            continue
        out.append(manifest)
    out.sort(key=lambda m: (str(m.get("started", "")), str(m.get("run_id"))))
    return out


def find_run(run_id: str, root=None) -> pathlib.Path:
    """Resolve a run id (or unique prefix) to its directory."""
    base = runs_root(root)
    exact = base / run_id
    if (exact / MANIFEST_NAME).is_file():
        return exact
    if base.is_dir():
        matches = [
            p for p in sorted(base.iterdir())
            if p.name.startswith(run_id) and (p / MANIFEST_NAME).is_file()
        ]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise FileNotFoundError(
                f"run id {run_id!r} is ambiguous: "
                + ", ".join(p.name for p in matches)
            )
    raise FileNotFoundError(f"no run {run_id!r} under {base}")


def ledger_bench_files(root=None) -> dict[str, pathlib.Path]:
    """Newest ``BENCH_<name>.json`` per bench across the ledger.

    The regress CLI's ``--runs`` resolution: fresh payloads come from run
    directories instead of the flat results dir.
    """
    out: dict[str, pathlib.Path] = {}
    for manifest in list_runs(root):  # oldest first → later wins
        run_dir = runs_root(root) / str(manifest.get("run_id"))
        for name in manifest.get("artifacts", {}):
            if name.startswith("BENCH_") and name.endswith(".json"):
                out[name[len("BENCH_"):-len(".json")]] = run_dir / name
    return out


# -- cross-run diff ----------------------------------------------------------

#: default tolerance band for manifest metric diffs (regress-style)
DEFAULT_REL_TOL = 0.05

_LOWER_MARKERS = (
    "time", "second", "wall", "iter", "error", "drift", "resid",
    "overhead", "dropped", "stall",
)
_HIGHER_MARKERS = ("gflops", "efficiency", "speedup", "throughput", "rate")


def direction_for(metric: str) -> str:
    """Regression direction inferred from the metric name.

    Times/iterations/errors gate on increase (``"lower"`` is better),
    throughput-style metrics on decrease, everything else both ways — the
    same semantics as :class:`~repro.observability.regress.FieldSpec`.
    """
    name = metric.lower()
    if any(marker in name for marker in _HIGHER_MARKERS):
        return "higher"
    if any(marker in name for marker in _LOWER_MARKERS):
        return "lower"
    return "both"


def diff_manifests(
    base: dict[str, Any],
    fresh: dict[str, Any],
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = 0.0,
) -> list[dict[str, Any]]:
    """Metric-by-metric diff of two manifests under FieldSpec bands.

    Returns one row per metric in either manifest: ``{metric, baseline,
    fresh, verdict, message}`` with verdict ``ok`` / ``drift`` /
    ``missing`` / ``new``.
    """
    from repro.observability.regress import FieldSpec, _violates

    rows: list[dict[str, Any]] = []
    a = base.get("metrics", {})
    b = fresh.get("metrics", {})
    for metric in sorted(set(a) | set(b)):
        if metric not in b:
            rows.append(
                {"metric": metric, "baseline": a[metric], "fresh": None,
                 "verdict": "missing", "message": "absent in fresh run"}
            )
            continue
        if metric not in a:
            rows.append(
                {"metric": metric, "baseline": None, "fresh": b[metric],
                 "verdict": "new", "message": "absent in baseline run"}
            )
            continue
        spec = FieldSpec(
            name=metric,
            direction=direction_for(metric),
            rel_tol=rel_tol,
            abs_tol=abs_tol,
        )
        reason = _violates(spec, a[metric], b[metric])
        rows.append(
            {
                "metric": metric,
                "baseline": a[metric],
                "fresh": b[metric],
                "verdict": "ok" if reason is None else "drift",
                "message": reason or "",
            }
        )
    return rows


# -- cross-run drift trend ---------------------------------------------------


def kendall_tau(values: list[float]) -> float:
    """Kendall's tau of a series against its own index ∈ [-1, 1].

    +1 = strictly increasing, -1 = strictly decreasing, ~0 = no monotonic
    trend.  Ties contribute zero.  Tiny and dependency-free — enough for a
    direction-aware drift alarm over a handful of runs.
    """
    n = len(values)
    if n < 2:
        return 0.0
    s = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            d = values[j] - values[i]
            s += (d > 0) - (d < 0)
    return s / (n * (n - 1) / 2)


def drift_check(
    manifests: list[dict[str, Any]],
    tau_threshold: float = 0.6,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = 0.0,
    min_runs: int = 3,
) -> list[dict[str, Any]]:
    """Direction-aware trend test over a run series (oldest first).

    A metric drifts when (a) its Kendall tau against run order is
    monotonic beyond ``tau_threshold`` *toward its worse direction*, and
    (b) the net first→last change exceeds the regress-style tolerance band
    — so noise near zero never alarms.  ``direction="both"`` metrics alarm
    on a strong monotonic trend either way.

    Returns one row per drifting metric: ``{metric, direction, tau, first,
    last, change}``.
    """
    series: dict[str, list[float]] = {}
    for manifest in manifests:
        for key, value in manifest.get("metrics", {}).items():
            series.setdefault(key, []).append(float(value))
    findings = []
    for metric in sorted(series):
        values = series[metric]
        if len(values) < min_runs:
            continue
        tau = kendall_tau(values)
        direction = direction_for(metric)
        band = max(abs_tol, rel_tol * abs(values[0]))
        change = values[-1] - values[0]
        if abs(change) <= band:
            continue
        worsening = (
            (direction == "lower" and tau >= tau_threshold and change > 0)
            or (direction == "higher" and tau <= -tau_threshold and change < 0)
            or (direction == "both" and abs(tau) >= tau_threshold)
        )
        if worsening:
            findings.append(
                {
                    "metric": metric,
                    "direction": direction,
                    "tau": tau,
                    "first": values[0],
                    "last": values[-1],
                    "change": change,
                    "runs": len(values),
                }
            )
    return findings


# -- CLI ---------------------------------------------------------------------


def _render_run_line(manifest: dict[str, Any]) -> str:
    metrics = manifest.get("metrics", {})
    return (
        f"{manifest.get('run_id'):<44}  {manifest.get('status'):<5}  "
        f"{manifest.get('component'):<28}  "
        f"{manifest.get('wall_seconds', 0.0):>8.2f}s  "
        f"{len(metrics):>3} metric(s)"
    )


def _cmd_list(args) -> int:
    manifests = list_runs(args.root, component=args.component)
    if not manifests:
        print(f"no runs under {runs_root(args.root)}")
        return 0
    for manifest in manifests:
        print(_render_run_line(manifest))
    print(f"{len(manifests)} run(s)")
    return 0


def _cmd_show(args) -> int:
    run_dir = find_run(args.run, root=args.root)
    manifest = load_manifest(run_dir)
    print(json.dumps(manifest, indent=1, sort_keys=True))
    dropped = manifest.get("telemetry", {}).get("dropped") or []
    if dropped:
        print(
            f"warning: {len(dropped)} telemetry subscriber(s) dropped "
            "mid-run (events after the drop are missing):",
            file=sys.stderr,
        )
        for sub, err in dropped:
            print(f"  {sub}: {err}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    run_dir = find_run(args.run, root=args.root)
    problems = verify_run(run_dir)
    if problems:
        for problem in problems:
            print(f"FAIL {problem}")
        return 1
    manifest = load_manifest(run_dir)
    print(
        f"ok: {len(manifest.get('artifacts', {}))} artifact hash(es) verify "
        f"for {manifest.get('run_id')}"
    )
    return 0


def _resolve_diff_pair(args) -> tuple[dict[str, Any], dict[str, Any]]:
    if args.last is not None:
        manifests = list_runs(args.root, component=args.last)
        if len(manifests) < 2:
            raise FileNotFoundError(
                f"need at least 2 ledger runs of component {args.last!r} "
                f"to diff (found {len(manifests)})"
            )
        return manifests[-2], manifests[-1]
    if not (args.run_a and args.run_b):
        raise FileNotFoundError(
            "diff needs two run ids (or --last COMPONENT)"
        )
    return (
        load_manifest(find_run(args.run_a, root=args.root)),
        load_manifest(find_run(args.run_b, root=args.root)),
    )


def _cmd_diff(args) -> int:
    base, fresh = _resolve_diff_pair(args)
    rows = diff_manifests(
        base, fresh, rel_tol=args.rel_tol, abs_tol=args.abs_tol
    )
    drifted = 0
    for row in rows:
        if row["verdict"] == "ok" and not args.verbose:
            continue
        mark = {"ok": "ok   ", "drift": "DRIFT", "missing": "MISS ",
                "new": "NEW  "}[row["verdict"]]
        detail = f" ({row['message']})" if row["message"] else ""
        print(
            f"{mark} {row['metric']}: {row['baseline']!r} -> "
            f"{row['fresh']!r}{detail}"
        )
        if row["verdict"] == "drift":
            drifted += 1
    print(
        f"diff {base.get('run_id')} -> {fresh.get('run_id')}: "
        f"{len(rows)} metric(s), {drifted} outside band"
    )
    return 1 if drifted else 0


def _cmd_drift(args) -> int:
    manifests = list_runs(args.root, component=args.component)
    if args.k:
        manifests = manifests[-args.k:]
    if len(manifests) < args.min_runs:
        print(
            f"not enough ledger runs of {args.component!r} for a trend "
            f"({len(manifests)} < {args.min_runs}); no verdict"
        )
        return 0
    findings = drift_check(
        manifests,
        tau_threshold=args.tau,
        rel_tol=args.rel_tol,
        abs_tol=args.abs_tol,
        min_runs=args.min_runs,
    )
    for f in findings:
        print(
            f"DRIFT {f['metric']}: {f['first']:.6g} -> {f['last']:.6g} "
            f"over {f['runs']} runs (tau {f['tau']:+.2f}, "
            f"{f['direction']} is better)"
        )
    print(
        f"drift: {len(manifests)} run(s) of {args.component!r} examined, "
        f"{len(findings)} drifting metric(s)"
    )
    return 1 if findings else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.observability.runlog",
        description="Inspect, verify, diff, and trend the run ledger "
        "(telemetry/runs/).",
    )
    parser.add_argument(
        "--root", default=None,
        help="telemetry root (default: $REPRO_TELEMETRY_DIR or telemetry/)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list ledger runs")
    p_list.add_argument("--component", default=None)
    p_list.set_defaults(func=_cmd_list)

    p_show = sub.add_parser("show", help="print one run's manifest")
    p_show.add_argument("run")
    p_show.set_defaults(func=_cmd_show)

    p_verify = sub.add_parser(
        "verify", help="re-hash a run's artifacts against its manifest"
    )
    p_verify.add_argument("run")
    p_verify.set_defaults(func=_cmd_verify)

    p_diff = sub.add_parser(
        "diff", help="metric-by-metric diff of two runs under tolerance bands"
    )
    p_diff.add_argument("run_a", nargs="?")
    p_diff.add_argument("run_b", nargs="?")
    p_diff.add_argument(
        "--last", metavar="COMPONENT", default=None,
        help="diff the two most recent runs of COMPONENT",
    )
    p_diff.add_argument("--rel-tol", type=float, default=DEFAULT_REL_TOL)
    p_diff.add_argument("--abs-tol", type=float, default=0.0)
    p_diff.add_argument(
        "--verbose", action="store_true", help="also print in-band metrics"
    )
    p_diff.set_defaults(func=_cmd_diff)

    p_drift = sub.add_parser(
        "drift", help="direction-aware trend test over the last K runs"
    )
    p_drift.add_argument("component")
    p_drift.add_argument("--k", type=int, default=8)
    p_drift.add_argument("--tau", type=float, default=0.6)
    p_drift.add_argument("--min-runs", type=int, default=3)
    p_drift.add_argument("--rel-tol", type=float, default=DEFAULT_REL_TOL)
    p_drift.add_argument("--abs-tol", type=float, default=0.0)
    p_drift.set_defaults(func=_cmd_drift)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# re-exported for API symmetry with the other observability modules
__all__ = [
    "BLACKBOX_NAME",
    "FlightRecorder",
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "PROFILE_NAME",
    "RunRecorder",
    "diff_manifests",
    "direction_for",
    "drift_check",
    "flatten_metrics",
    "flatten_records",
    "find_run",
    "hash_file",
    "kendall_tau",
    "ledger_bench_files",
    "list_runs",
    "load_manifest",
    "new_run_id",
    "options_hash",
    "runs_root",
    "telemetry_root",
    "validate_manifest",
    "verify_run",
]


if __name__ == "__main__":
    raise SystemExit(main())
