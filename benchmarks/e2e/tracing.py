"""Span recorder for the benchmark's traced runs.

Tracing lives in the benchmark, not in the program: a fixed table of
*public* ``repro`` callables (``TARGETS``) is wrapped with shims that
record one span per call — name, start, end, the enclosing span on the
same thread, thread id, array shapes and a few result attributes.  Spans
stay in memory; :func:`write_chrome_trace` dumps them when the run ends.

Module-level functions are rebound in every loaded ``repro.*`` module that
imported them by value (``repro.core.ldc.hartree_potential`` and the
like); methods are rebound on their class.  :func:`remove` restores every
attribute by identity, and a process that never calls :func:`install`
executes no code from this file.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "tid", "shapes", "attrs")

    def __init__(self, name, start, end=None, parent=None, tid=0,
                 shapes=(), attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.tid = tid
        self.shapes = shapes
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span store with one open-span stack per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._local = threading.local()

    def begin(self, name: str, args: tuple) -> Span:
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        span = Span(
            name, 0.0, parent=stack[-1] if stack else None,
            tid=threading.get_ident(),
            shapes=tuple(a.shape for a in args if isinstance(a, np.ndarray)),
        )
        stack.append(span)
        self.spans.append(span)
        span.start = self.clock()
        return span

    def end(self, span: Span, attrs: dict | None) -> None:
        span.end = self.clock()
        span.attrs = attrs
        self._local.stack.pop()


def self_times(spans: list[Span]) -> dict[int, float]:
    """``id(span) -> self seconds``: the span's duration minus the time its
    direct children cover.  Children are the spans that opened on the same
    thread while it was open, so they nest and never overlap each other; a
    span on another thread is nobody's child and subtracts from nothing."""
    out = {id(s): s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            out[id(s.parent)] -= s.duration
    return out


# -- the table of wrapped callables -----------------------------------------

def _fields_out(args, result):
    return {"field_shape": tuple(result.shape)}


def _fields_in(args, result):
    return {"field_shape": tuple(np.shape(args[1]))}


def _nonlocal(args, result):
    psi = args[1]
    return {"npw": psi.shape[0], "nband": psi.shape[1] if psi.ndim > 1 else 1,
            "nproj": args[0].nproj}


def _iterations(args, result):
    return {"iterations": int(result.iterations)}


def _batched_iterations(args, result):
    return {"iterations": int(sum(r.iterations for r in result)),
            "domains": len(result)}


@dataclass(frozen=True)
class Target:
    module: str
    #: ``function`` or ``Class.method``
    qualname: str
    #: the per-layer time metric this callable's self time is booked to
    metric: str
    #: ``(args, result) -> dict`` of span attributes, or None
    post: Callable | None = None


def _t(module, qualname, metric, post=None):
    return Target(f"repro.{module}", qualname, metric, post)


TARGETS: tuple[Target, ...] = (
    _t("md.qmd", "QMDDriver.run", "md.qmd.self_s"),
    _t("md.qmd", "LDCEngine.forces", "md.qmd.self_s"),
    _t("md.qmd", "SCFEngine.forces", "md.qmd.self_s"),
    _t("md.integrator", "VelocityVerlet.step", "md.integrator.self_s"),
    _t("md.extrapolate", "extrapolate_fields", "md.extrapolate.self_s"),
    _t("md.extrapolate", "extrapolate_orbitals", "md.extrapolate.self_s"),
    _t("md.extrapolate", "DomainHistory.predict", "md.extrapolate.self_s"),
    _t("md.extrapolate", "DomainHistory.push", "md.extrapolate.self_s"),
    _t("core.workspace", "LDCWorkspace.prepare", "core.workspace.prepare_s"),
    _t("core.workspace", "LDCWorkspace.store", "core.workspace.store_s"),
    _t("core.ldc", "run_ldc", "core.ldc.self_s", _iterations),
    _t("dft.scf", "run_scf", "dft.scf.self_s", _iterations),
    _t("core.batched", "batched_domain_pass", "core.batched.self_s"),
    _t("dft.eigensolver", "solve_all_band", "dft.eigensolver.self_s",
       _iterations),
    _t("dft.eigensolver", "solve_all_band_batched", "dft.eigensolver.self_s",
       _batched_iterations),
    _t("dft.hamiltonian", "Hamiltonian.apply", "dft.hamiltonian.self_s"),
    _t("dft.hamiltonian", "Hamiltonian.precondition",
       "dft.hamiltonian.self_s"),
    _t("dft.hamiltonian", "BatchedHamiltonian.apply",
       "dft.hamiltonian.self_s"),
    _t("dft.hamiltonian", "BatchedHamiltonian.precondition",
       "dft.hamiltonian.self_s"),
    _t("dft.basis", "PlaneWaveBasis.to_grid", "dft.basis.fft_s", _fields_out),
    _t("dft.basis", "PlaneWaveBasis.from_grid", "dft.basis.fft_s", _fields_in),
    _t("dft.basis", "PlaneWaveBasis.to_grid_batch", "dft.basis.fft_s",
       _fields_out),
    _t("dft.basis", "PlaneWaveBasis.from_grid_batch", "dft.basis.fft_s",
       _fields_in),
    _t("dft.pseudopotential", "NonlocalProjectors.__init__",
       "dft.pseudopotential.build_s"),
    _t("dft.pseudopotential", "NonlocalProjectors.apply",
       "dft.pseudopotential.nonlocal_s", _nonlocal),
    _t("dft.pseudopotential", "local_potential",
       "dft.pseudopotential.local_s"),
    _t("dft.hartree", "hartree_potential", "dft.hartree.self_s"),
    _t("dft.xc", "lda_xc", "dft.xc.self_s"),
    _t("multigrid.poisson", "MultigridPoisson.solve",
       "multigrid.poisson.solve_s"),
    _t("dft.ewald", "ewald", "dft.ewald.self_s"),
    _t("dft.occupations", "find_chemical_potential",
       "dft.occupations.self_s"),
    _t("dft.occupations", "fermi_occupations", "dft.occupations.self_s"),
    _t("dft.mixing", "PulayMixer.mix", "dft.mixing.self_s"),
    _t("dft.mixing", "renormalize", "dft.mixing.self_s"),
    _t("core.forces", "ldc_forces", "core.forces.self_s"),
    _t("dft.forces", "forces_from_scf", "dft.forces.self_s"),
)

#: span name -> per-layer time metric
METRIC_OF = {t.qualname: t.metric for t in TARGETS}


def _make_shim(recorder: SpanRecorder, name: str, fn, post):
    begin, end = recorder.begin, recorder.end

    def traced(*args, **kwargs):
        span = begin(name, args)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            end(span, None)
            raise
        end(span, post(args, result) if post is not None else None)
        return result

    traced.__wrapped__ = fn
    return traced


def _rebind(old, new) -> None:
    """Point every ``repro.*`` module attribute that *is* ``old`` at ``new``."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(recorder: SpanRecorder) -> list[tuple]:
    """Wrap every target; returns the patch list for :func:`remove`."""
    for target in TARGETS:  # load every by-value importer before rebinding
        importlib.import_module(target.module)
    patches = []
    for target in TARGETS:
        mod = sys.modules[target.module]
        owner_name, _, attr = target.qualname.rpartition(".")
        owner = getattr(mod, owner_name) if owner_name else None
        original = vars(owner)[attr] if owner else getattr(mod, attr)
        shim = _make_shim(recorder, target.qualname, original, target.post)
        if owner is not None:
            setattr(owner, attr, shim)
        else:
            _rebind(original, shim)
        patches.append((owner, attr, original, shim))
    return patches


def remove(patches: list[tuple]) -> None:
    """Undo :func:`install`, including modules first imported while the
    shims were in place (they copied the shim by value)."""
    for owner, attr, original, shim in reversed(patches):
        if owner is not None:
            setattr(owner, attr, original)
        else:
            _rebind(shim, original)


def write_chrome_trace(spans: list[Span], path, metadata: dict) -> None:
    """Chrome-trace JSON (open in chrome://tracing or ui.perfetto.dev)."""
    origin = min((s.start for s in spans), default=0.0)
    selfs = self_times(spans)
    index = {id(s): i for i, s in enumerate(spans)}
    tids = {tid: i for i, tid in enumerate(sorted({s.tid for s in spans}))}
    events = [
        {
            "name": s.name, "cat": METRIC_OF.get(s.name, "bench"), "ph": "X",
            "pid": 1, "tid": tids[s.tid],
            "ts": (s.start - origin) * 1e6, "dur": s.duration * 1e6,
            "args": {
                "id": index[id(s)],
                "parent": None if s.parent is None else index[id(s.parent)],
                "self_us": selfs[id(s)] * 1e6,
                "shapes": [list(shape) for shape in s.shapes],
                **(s.attrs or {}),
            },
        }
        for s in spans
    ]
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "metadata": metadata}, fh)
