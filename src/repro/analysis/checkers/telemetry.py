"""RP006 — ``Instrumentation`` hygiene at call sites.

The observability contract (DESIGN.md §8, §10) is: spans are context
managers, metric instruments come from the registry, and health invariants
are registered on a monitor with thresholds from a config object.

* **Span without ``with``.**  ``ins.span("x")`` as a bare expression (or
  any use outside a ``with`` item / ``return`` passthrough) opens a span
  that is never closed — the trace nests every subsequent event under it.
* **Instrument constructed off-registry.**  Building ``Counter``/``Gauge``/
  ``Histogram``/``Series`` directly bypasses the
  :class:`~repro.observability.metrics.MetricsRegistry`, so the sample
  never appears in snapshots; call ``ins.counter(...)``/
  ``registry.gauge(...)`` instead.
* **Invariant constructed without registration.**  An ``*Invariant(...)``
  built outside ``HealthMonitor(invariants=[...])`` / ``monitor.add(...)``
  (or a factory ``return``) never sees a sample — the check silently does
  not run.
* **Hard-coded health threshold.**  A numeric-literal keyword at an
  ``*Invariant(...)`` call site scatters WARN/FAIL bands through driver
  code; thresholds belong in one
  :class:`~repro.observability.health.HealthThresholds` object.
* **Hard-coded controller/predictor threshold.**  A numeric-literal
  keyword at a ``*Controller``/``*Predictor``/``*Extrapolator`` call site
  (classes from the advisor/extrapolate modules) scatters tuning
  constants through driver code; they belong in the matching options
  object (e.g. :class:`~repro.core.advisor.BufferControllerOptions`) —
  ``*Options(...)`` constructions are the sanctioned home and are not
  flagged.
* **Direct telemetry-artifact write.**  An ``open(..., "w")`` /
  ``json.dump`` / ``.write_text`` targeting a path under ``telemetry/``
  or a well-known artifact name (``trace.json``, ``manifest.json``,
  ``blackbox.jsonl``, ...) outside the RunRecorder layer produces
  files with no run identity, no manifest entry, and no content hash —
  the run ledger can neither verify nor diff them.  Write artifacts via
  ``Instrumentation.write_artifacts`` / ``RunRecorder.add_artifact`` and
  resolve locations through ``repro.observability.telemetry_root()``.

The ``repro/observability`` package itself is exempt — it *implements*
the contract this rule holds call sites to.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.checkers._util import call_method_name, dotted_name
from repro.analysis.engine import Checker, FileContext, Finding, register

_INSTRUMENT_CLASSES = {"Counter", "Gauge", "Histogram", "Series"}


@register
class TelemetryHygieneChecker(Checker):
    rule = "RP006"
    name = "telemetry-hygiene"
    description = (
        "span opened outside a with-statement, a metrics instrument "
        "constructed off-registry, an Invariant built without being "
        "registered on a HealthMonitor, a health threshold hard-coded "
        "at an Invariant call site, a controller/predictor threshold "
        "hard-coded at a Controller/Predictor/Extrapolator call site, "
        "or a telemetry artifact written directly instead of through the "
        "RunRecorder layer"
    )
    exempt_paths = ("repro/observability/",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        allowed_spans = self._allowed_span_calls(ctx.tree)
        invariant_classes = self._invariant_classes(ctx.tree)
        controller_classes = self._controller_classes(ctx.tree)
        registered = self._registered_invariant_calls(ctx.tree)
        yield from self._check_direct_telemetry_writes(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if (
                call_method_name(node) == "span"
                and node not in allowed_spans
            ):
                yield ctx.finding(
                    node, self.rule,
                    "span() used outside a with-statement; the span is "
                    "never closed and the trace nests everything after it "
                    "(use `with ins.span(...):`)",
                )
            func_name = dotted_name(node.func)
            if (
                func_name in _INSTRUMENT_CLASSES
                and self._imported_from_metrics(ctx.tree, func_name)
            ):
                yield ctx.finding(
                    node, self.rule,
                    f"{func_name} constructed directly; instruments built "
                    f"off-registry never appear in metric snapshots — use "
                    f"the registry/Instrumentation factory methods",
                )
            if func_name in invariant_classes:
                if node not in registered:
                    yield ctx.finding(
                        node, self.rule,
                        f"{func_name} constructed but never registered; an "
                        f"invariant outside HealthMonitor(invariants=[...])"
                        f" / monitor.add(...) never sees a sample",
                    )
                for kw in node.keywords:
                    if kw.arg is not None and _is_numeric_literal(kw.value):
                        yield ctx.finding(
                            kw.value, self.rule,
                            f"health threshold {kw.arg}= hard-coded at the "
                            f"{func_name} call site; WARN/FAIL bands belong "
                            f"in one HealthThresholds config object",
                        )
            if func_name in controller_classes:
                for kw in node.keywords:
                    if kw.arg is not None and _is_numeric_literal(kw.value):
                        yield ctx.finding(
                            kw.value, self.rule,
                            f"controller threshold {kw.arg}= hard-coded at "
                            f"the {func_name} call site; tuning constants "
                            f"belong in the matching options object (e.g. "
                            f"BufferControllerOptions)",
                        )

    # -- telemetry-artifact writes -------------------------------------------

    def _check_direct_telemetry_writes(
        self, ctx: FileContext
    ) -> Iterator[Finding]:
        """Flag write-mode file operations aimed at telemetry paths."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = _telemetry_write_target(node)
            if target is not None:
                yield ctx.finding(
                    node, self.rule,
                    f"telemetry artifact {target!r} written directly; the "
                    f"file gets no run identity, manifest entry, or content "
                    f"hash — write it via Instrumentation.write_artifacts/"
                    f"RunRecorder.add_artifact and resolve the location "
                    f"through repro.observability.telemetry_root()",
                )

    @staticmethod
    def _allowed_span_calls(tree: ast.Module) -> set[ast.Call]:
        """Span calls that are with-items or return passthroughs."""
        allowed: set[ast.Call] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.context_expr, ast.Call):
                        allowed.add(item.context_expr)
            elif isinstance(node, ast.Return) and isinstance(node.value, ast.Call):
                allowed.add(node.value)
        return allowed

    @staticmethod
    def _imported_from_metrics(tree: ast.Module, name: str) -> bool:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and (
                node.module.endswith("metrics")
                or node.module.endswith("observability")
            ):
                if any((a.asname or a.name) == name for a in node.names):
                    return True
        return False

    @staticmethod
    def _invariant_classes(tree: ast.Module) -> set[str]:
        """Invariant classes visible in this file: names imported from the
        health/observability modules plus local ``Invariant`` subclasses."""
        names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and (
                node.module.endswith("health")
                or node.module.endswith("observability")
            ):
                for a in node.names:
                    local = a.asname or a.name
                    if a.name.endswith("Invariant"):
                        names.add(local)
            elif isinstance(node, ast.ClassDef):
                bases = {dotted_name(b) for b in node.bases}
                if any(b and b.endswith("Invariant") for b in bases):
                    names.add(node.name)
        return names

    @staticmethod
    def _controller_classes(tree: ast.Module) -> set[str]:
        """Runtime-controller classes visible in this file: names imported
        from the advisor/extrapolate modules ending in ``Controller``,
        ``Predictor``, or ``Extrapolator``.  The matching ``*Options``
        classes deliberately do not match — constructing one *is* the
        sanctioned place for numeric thresholds."""
        names: set[str] = set()
        suffixes = ("Controller", "Predictor", "Extrapolator")
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and (
                node.module.endswith("advisor")
                or node.module.endswith("extrapolate")
            ):
                for a in node.names:
                    local = a.asname or a.name
                    if a.name.endswith(suffixes):
                        names.add(local)
        return names

    @staticmethod
    def _registered_invariant_calls(tree: ast.Module) -> set[ast.Call]:
        """Invariant constructions in a sanctioned registration position:
        an argument of ``HealthMonitor(...)`` or ``.add(...)`` (directly or
        inside a list/tuple literal), or part of a factory ``return``."""
        allowed: set[ast.Call] = set()

        def collect(value: ast.expr) -> None:
            if isinstance(value, ast.Call):
                allowed.add(value)
            elif isinstance(value, (ast.List, ast.Tuple, ast.Set)):
                for elt in value.elts:
                    collect(elt)

        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (
                dotted_name(node.func) == "HealthMonitor"
                or call_method_name(node) == "add"
            ):
                for arg in node.args:
                    collect(arg)
                for kw in node.keywords:
                    collect(kw.value)
            elif isinstance(node, ast.Return) and node.value is not None:
                collect(node.value)
        return allowed


#: well-known artifact basenames the run ledger owns
_ARTIFACT_NAMES = (
    "trace.json", "metrics.json", "metrics.csv", "health.json",
    "manifest.json", "blackbox.jsonl",
)


def _string_literals(node: ast.expr) -> Iterator[str]:
    """Every string constant anywhere inside an argument expression
    (covers f-strings, ``Path(...) / "x"``, ``os.path.join`` chains)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def _is_telemetry_path_expr(node: ast.expr) -> str | None:
    """The matched telemetry-ish string literal inside ``node``, if any."""
    for text in _string_literals(node):
        if "telemetry/" in text or text.startswith("telemetry"):
            return text
        if text.endswith(_ARTIFACT_NAMES):
            return text
    return None


def _telemetry_write_target(node: ast.Call) -> str | None:
    """The offending path when ``node`` writes a telemetry artifact.

    Covered shapes: ``open(path, "w"/"a"/...)``, ``json.dump(obj, fh)``
    where the dump call's subtree names the path (rare but explicit), and
    ``<path-expr>.write_text/write_bytes(...)``.  Read-mode ``open`` is
    exempt — consuming artifacts is exactly what the ledger is for.
    """
    func = dotted_name(node.func)
    method = call_method_name(node)
    if func == "open" and node.args:
        mode = ""
        if len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
            mode = str(node.args[1].value)
        for kw in node.keywords:
            if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
                mode = str(kw.value.value)
        if not any(c in mode for c in "wax+"):
            return None
        return _is_telemetry_path_expr(node.args[0])
    if func == "json.dump" or (func is None and method == "dump"):
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            target = _is_telemetry_path_expr(arg)
            if target is not None:
                return target
        return None
    if method in ("write_text", "write_bytes") and isinstance(
        node.func, ast.Attribute
    ):
        return _is_telemetry_path_expr(node.func.value)
    return None


def _is_numeric_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.UAdd, ast.USub)
    ):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(
        node.value, (int, float)
    ) and not isinstance(node.value, bool)
