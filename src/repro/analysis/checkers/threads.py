"""RP007 — thread-shared mutable state written from worker fan-outs.

A thread-pool fan-out (the linter's own ``--jobs`` file pool in
:mod:`repro.analysis.engine` is the one in this repository) stays
equivalent to serial execution by one discipline: a worker owns *only its
fan-out item*; everything shared — object attributes, closed-over arrays,
module-level registries — is read-only until the coordinating thread
folds results **after the join**.  A single ``self.counter += 1`` or
``shared[idx] = ...`` inside a worker reintroduces the data race the
design removed, and numpy's GIL-released kernels make it a *real* race,
not a theoretical one.

RP007 finds the functions handed to an executor fan-out
(``executor.map(fn, ...)``, ``pool.submit(fn, ...)``,
``Thread(target=fn)``) and flags every write whose base object the worker
does not own:

* assignments / augmented assignments to closed-over or module-level
  names (including via ``nonlocal``/``global``),
* attribute and subscript stores through such names,
* mutating method calls (``append``, ``update``, ``add``, ...) on them.

Parameters are exempt: the fan-out item *is* the worker's unit of work.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.checkers._util import base_name, call_method_name
from repro.analysis.engine import Checker, FileContext, Finding, register

_SUBMIT_METHODS = {"map", "submit"}
_EXECUTOR_MARKERS = ("executor", "pool", "worker")
_EXECUTOR_TYPES = {"ThreadPoolExecutor", "ProcessPoolExecutor", "Executor"}
_MUTATORS = {
    "append", "extend", "add", "update", "insert", "setdefault", "pop",
    "remove", "discard", "clear", "sort", "reverse", "popitem",
}


def _executor_aliases(tree: ast.AST) -> set[str]:
    """Names bound to executor/pool objects anywhere under ``tree``."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        value: ast.expr | None = None
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            targets, value = [node.optional_vars], node.context_expr
        if value is None:
            continue
        if isinstance(value, ast.Call):
            callee = value.func
            name = (
                callee.id if isinstance(callee, ast.Name)
                else callee.attr if isinstance(callee, ast.Attribute)
                else None
            )
            if name in _EXECUTOR_TYPES:
                for tgt in targets:
                    if isinstance(tgt, ast.Name):
                        aliases.add(tgt.id)
    return aliases


def _is_executor_receiver(call: ast.Call, aliases: set[str]) -> bool:
    if not isinstance(call.func, ast.Attribute):
        return False
    root = base_name(call.func.value)
    if root is None:
        return False
    return root in aliases or any(m in root.lower() for m in _EXECUTOR_MARKERS)


def _worker_refs(tree: ast.AST) -> dict[str, ast.AST]:
    """Worker name → submission call node, for every fan-out in the file."""
    aliases = _executor_aliases(tree)
    out: dict[str, ast.AST] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn_ref: ast.expr | None = None
        if (
            call_method_name(node) in _SUBMIT_METHODS
            and _is_executor_receiver(node, aliases)
            and node.args
        ):
            fn_ref = node.args[0]
        elif (
            isinstance(node.func, ast.Name)
            and node.func.id == "Thread"
        ):
            for kw in node.keywords:
                if kw.arg == "target":
                    fn_ref = kw.value
        if isinstance(fn_ref, ast.Name):
            out.setdefault(fn_ref.id, node)
    return out


def _bound_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names the worker owns: parameters + everything it binds locally."""
    args = fn.args
    bound = {
        a.arg
        for a in (
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        )
    }
    declared_shared: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, (ast.Nonlocal, ast.Global)):
            declared_shared.update(node.names)
        elif isinstance(node, ast.Assign):
            for tgt in node.targets:
                for sub in ast.walk(tgt):
                    if isinstance(sub, ast.Name):
                        bound.add(sub.id)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(node.target, ast.Name):
                bound.add(node.target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for sub in ast.walk(node.target):
                if isinstance(sub, ast.Name):
                    bound.add(sub.id)
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            for sub in ast.walk(node.optional_vars):
                if isinstance(sub, ast.Name):
                    bound.add(sub.id)
        elif isinstance(node, ast.comprehension):
            for sub in ast.walk(node.target):
                if isinstance(sub, ast.Name):
                    bound.add(sub.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node is not fn:
                bound.add(node.name)
    # nonlocal/global declarations *unbind*: writes to them are shared even
    # though an assignment statement exists in the body
    return bound - declared_shared


@register
class ThreadSharedStateChecker(Checker):
    rule = "RP007"
    name = "thread-shared-state"
    description = (
        "worker function handed to a thread-pool fan-out writes state it "
        "does not own (closed-over/module-level objects) — a data race; "
        "fold results on the coordinating thread after the join"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        workers = _worker_refs(ctx.tree)
        if not workers:
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in workers
            ):
                yield from self._check_worker(ctx, node)

    def _check_worker(
        self, ctx: FileContext, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        bound = _bound_names(fn)

        def shared(name: str | None) -> bool:
            return name is not None and name not in bound

        for node in ast.walk(fn):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is not fn:
                    continue  # nested defs are separate fan-out units
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for tgt in targets:
                    name = self._written_shared_base(tgt, bound)
                    if name is not None:
                        yield self._finding(ctx, fn, node, name, tgt)
            elif isinstance(node, ast.Call):
                meth = call_method_name(node)
                if meth in _MUTATORS and isinstance(node.func, ast.Attribute):
                    root = base_name(node.func.value)
                    if shared(root):
                        yield ctx.finding(
                            node, self.rule,
                            f"worker {fn.name!r} calls mutating method "
                            f".{meth}() on shared object {root!r} from a "
                            f"thread-pool fan-out — concurrent mutation "
                            f"races; collect per-item results and fold "
                            f"after the join",
                        )

    def _written_shared_base(
        self, target: ast.expr, bound: set[str]
    ) -> str | None:
        """Base name of a store target the worker does not own, or None."""
        if isinstance(target, ast.Name):
            return target.id if target.id not in bound else None
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            root = base_name(target)
            if root is not None and root not in bound:
                return root
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                hit = self._written_shared_base(elt, bound)
                if hit is not None:
                    return hit
        return None

    def _finding(
        self,
        ctx: FileContext,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        node: ast.AST,
        name: str,
        target: ast.expr,
    ) -> Finding:
        kind = (
            "attribute" if isinstance(target, ast.Attribute)
            else "element" if isinstance(target, ast.Subscript)
            else "name"
        )
        return ctx.finding(
            node, self.rule,
            f"worker {fn.name!r} writes shared {kind} through {name!r} "
            f"from a thread-pool fan-out without post-join discipline — "
            f"a data race under thread fan-out parallelism",
        )
