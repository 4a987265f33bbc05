"""Run directories: durable per-run identity, manifest, and content hashes.

Single-run telemetry (trace/metrics artifacts) answers "what
happened in *this* invocation"; this module makes that answer durable:

* **Run directory** — :class:`RunRecorder` gives an instrumented driver
  invocation a run id and a directory ``<telemetry>/runs/<run_id>/``
  holding the telemetry artifacts plus a schema'd ``manifest.json``:
  provenance (git SHA, python/numpy), tracked environment flags,
  invocations with options hashes, failures, wall-clock,
  and a content hash of every artifact (so a run is verifiable long after
  it ended).  The metrics snapshot is the hashed ``metrics.json`` beside it.
* **Flight recorder** — a :class:`~repro.observability.flightrec.
  FlightRecorder` fed by the run's tracer and metrics listeners dumps
  ``blackbox.jsonl`` when a driver dies on an unhandled exception (a named
  :class:`~repro.dft.hamiltonian.NonFiniteFieldError` included).
* **Verification** — :func:`verify_run` re-hashes a run's artifacts
  against its manifest.

Bench results are not run directories: a bench's record is its
``benchmarks/results/BENCH_<name>.json``, judged by
:mod:`~repro.observability.regress` under the schema embedded in it.

All telemetry writers resolve their output location through
:func:`telemetry_root` (the ``REPRO_TELEMETRY_DIR`` environment variable,
default ``telemetry/``), so runs never clobber each other's ``trace.json``.

The recorder rides the :class:`~repro.observability.Instrumentation` facade
(``Instrumentation(recorder=rec)``) and inherits its zero-overhead
contract: no facade, or a facade without a recorder, executes zero runlog
code (pinned by ``benchmarks/bench_runlog_overhead.py``).
"""

from __future__ import annotations

import dataclasses
import datetime
import hashlib
import json
import os
import pathlib
import subprocess
import time
from typing import TYPE_CHECKING, Any

from repro.observability.flightrec import BLACKBOX_NAME, FlightRecorder

if TYPE_CHECKING:
    from repro.observability.instrumentation import Instrumentation

#: manifest layout version — bumped when the manifest envelope changes
#: (2: no ``telemetry`` field; 3: no ``metrics`` field; 4: no ``health``
#: field).  Older manifests still validate: a field a version dropped is
#: ignored.
MANIFEST_VERSION = 4
MANIFEST_NAME = "manifest.json"

#: environment variable naming the telemetry root directory
ENV_TELEMETRY_DIR = "REPRO_TELEMETRY_DIR"

#: environment flags recorded in every manifest (set or not): every
#: ``REPRO_*`` variable the package reads (pinned by the hygiene tests)
TRACKED_ENV = (ENV_TELEMETRY_DIR,)

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


def provenance() -> dict[str, Any]:
    """Git SHA and python/numpy versions: what produced a run or a bench
    record."""
    import platform

    import numpy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# -- the recorder ------------------------------------------------------------


class RunRecorder:
    """Gives one instrumented driver invocation a durable run directory.

    Used through the facade::

        rec = RunRecorder(component="qmd")
        ins = Instrumentation(recorder=rec)
        QMDDriver(LDCEngine(opts), timestep=5.0, instrumentation=ins).run(
            config, nsteps)
        rec.finish()        # artifacts + manifest under telemetry/runs/<id>/
    """

    def __init__(
        self,
        component: str = "run",
        root=None,
        flight: FlightRecorder | None = None,
        flight_capacity: int = 256,
    ) -> None:
        self.component = component
        self.root = telemetry_root(root)
        self.run_id = new_run_id(component)
        self.dir = self.root / "runs" / self.run_id
        self.dir.mkdir(parents=True, exist_ok=True)
        self.flight = flight or FlightRecorder(capacity=flight_capacity)
        if self.flight.dump_dir is None:
            self.flight.dump_dir = self.dir
        self.manifest: dict[str, Any] | None = None
        self._ins: "Instrumentation | None" = None
        self._t0 = time.time()
        self._started = _utc_now()
        self._invocations: list[dict[str, Any]] = []
        self._failures: list[dict[str, Any]] = []
        self._last_exc: BaseException | None = None

    # -- facade wiring --------------------------------------------------------

    def attach(self, ins: "Instrumentation") -> None:
        """Feed the flight recorder from a facade: every finished span and
        metric sample (topics ``span``, ``metric``).  Called by
        ``Instrumentation(recorder=...)``."""
        self._ins = ins
        flight = self.flight
        flight.tracer = ins.tracer
        ins.tracer.add_listener(
            lambda span: flight.record(
                "span",
                name=span.name,
                path=span.path,
                category=span.category,
                duration=span.duration,
                attrs=span.attrs,
            )
        )
        ins.metrics.add_listener(
            lambda inst, value: flight.record(
                "metric", key=inst.key, kind=inst.kind, value=value
            )
        )

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

    # -- finalization ---------------------------------------------------------

    def finish(self, status: str | None = None) -> dict[str, Any]:
        """Write artifacts + manifest; returns the manifest (idempotent)."""
        if self.manifest is not None:
            return self.manifest
        ins = self._ins
        if ins is not None:
            ins.write_artifacts(self.dir)
        # a black box that could not be written is a failure of the run's
        # record, never of the solve
        failures = self._failures + self.flight.errors
        manifest: dict[str, Any] = {
            "manifest_version": MANIFEST_VERSION,
            "run_id": self.run_id,
            "component": self.component,
            "status": _resolve_status(status, failures),
            "started": self._started,
            "finished": _utc_now(),
            "wall_seconds": time.time() - self._t0,
            "provenance": provenance(),
            "env": {k: os.environ.get(k) for k in TRACKED_ENV},
            "invocations": self._invocations,
            "failures": failures,
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
) -> str:
    if explicit is not None:
        if explicit not in _STATUSES:
            raise ValueError(f"unknown run status {explicit!r}")
        return explicit
    return "error" if failures else "ok"


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


# re-exported for API symmetry with the other observability modules
__all__ = [
    "BLACKBOX_NAME",
    "FlightRecorder",
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "RunRecorder",
    "hash_file",
    "load_manifest",
    "new_run_id",
    "options_hash",
    "provenance",
    "telemetry_root",
    "validate_manifest",
    "verify_run",
]
