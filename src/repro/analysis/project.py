"""Interprocedural layer of the static analyser: summaries + call graph.

PR 2's checkers saw one function body at a time, which is exactly the
blind spot SPMD bugs hide in: a rank-conditional branch that calls a
*helper* whose body performs the collective looks clean to a per-function
walk, yet deadlocks every bit as hard as a direct ``comm.bcast`` (the
DGDFT-at-millions-of-cores failure mode).  This module gives the engine a
whole-project view without giving up the cheap per-file walks:

* :func:`summarize_file` compresses each function into a
  :class:`FunctionSummary` — the collectives it invokes *directly* on
  comm-like handles, its send/recv counts, the names it calls, and every
  rank-conditional site with the per-branch collective/call sets.
* :class:`ProjectIndex` links summaries into a call graph and answers the
  interprocedural questions — *"which collectives can this function reach,
  transitively?"* — via memoized fixed-point traversal with cycle guards.

Comm-likeness is alias-aware: a handle is comm-like if its name contains
``comm``, its annotation mentions ``Comm``, it was assigned from another
comm-like expression, from a ``.split(...)`` result (the paper's
``MPI_COMM_SPLIT``-per-domain pattern), from an indexed split result, or
from a ``self.comm``-style attribute.  Name resolution for calls is
deliberately conservative: same-module match first, then a *unique*
project-wide match by bare name; ambiguous or external names do not
propagate (a linter must not invent findings it cannot justify).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.analysis.checkers._util import call_method_name, names_in

if TYPE_CHECKING:
    from repro.analysis.engine import FileContext

#: Collective operations on communicator-like receivers (mirrors
#: :class:`repro.parallel.comm.VirtualComm`'s surface).
COLLECTIVES = {
    "barrier", "bcast", "reduce", "allreduce", "gather", "allgather",
    "scatter", "alltoall", "split",
}
_RANK_MARKERS = ("rank", "root")


@dataclass
class RankSite:
    """One rank-conditional ``if`` inside a function.

    ``*_direct`` hold collectives invoked directly in each branch's subtree;
    ``*_calls`` the (bare) names of functions called there, which the
    project pass resolves to pull in *their* collectives.
    """

    line: int
    col: int
    true_direct: list[str] = field(default_factory=list)
    true_calls: list[str] = field(default_factory=list)
    false_direct: list[str] = field(default_factory=list)
    false_calls: list[str] = field(default_factory=list)


@dataclass
class FunctionSummary:
    """Everything the interprocedural pass needs to know about one function."""

    path: str
    module: str
    qualname: str
    name: str
    line: int
    col: int
    #: collectives invoked directly on comm-like receivers
    collectives: list[str] = field(default_factory=list)
    #: direct point-to-point counts on comm-like receivers
    sends: int = 0
    recvs: int = 0
    #: line/col of the first direct send/recv (finding anchor)
    p2p_line: int = 0
    p2p_col: int = 0
    #: bare names of every function this one calls (multiplicity kept —
    #: a helper called twice contributes its sends/recvs twice)
    callees: list[str] = field(default_factory=list)
    rank_sites: list[RankSite] = field(default_factory=list)


# -- comm-alias tracking -------------------------------------------------------


def _annotation_is_comm(node: ast.expr | None) -> bool:
    if node is None:
        return False
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - malformed annotation
        return False
    return "comm" in text.lower()


def comm_aliases(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names bound to communicator handles inside ``fn`` (fixed point).

    Seeds: parameters whose name contains ``comm`` or whose annotation
    mentions ``Comm``.  Propagates through plain assignment, ``split()``
    results, and subscripts of comm-like values.
    """
    aliases: set[str] = set()
    args = fn.args
    for a in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        if "comm" in a.arg.lower() or _annotation_is_comm(a.annotation):
            aliases.add(a.arg)
    # Fixed point over assignments: `sub = comm.split(...)[r]` etc.
    changed = True
    while changed:
        changed = False
        for node in ast.walk(fn):
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None or not _expr_is_comm(value, aliases):
                continue
            for tgt in targets:
                if isinstance(tgt, ast.Name) and tgt.id not in aliases:
                    aliases.add(tgt.id)
                    changed = True
    return aliases


def _expr_is_comm(node: ast.expr, aliases: set[str]) -> bool:
    """Whether an expression evaluates to a communicator handle."""
    if isinstance(node, ast.Name):
        return node.id in aliases or "comm" in node.id.lower()
    if isinstance(node, ast.Attribute):
        # `self.comm`, `engine.domain_comm`, or an attribute *of* a comm
        return "comm" in node.attr.lower() or _expr_is_comm(node.value, aliases)
    if isinstance(node, ast.Subscript):
        # `subcomms[r]` where subcomms came from split()
        return _expr_is_comm(node.value, aliases)
    if isinstance(node, ast.Call):
        # `comm.split(...)` returns sub-communicators
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "split"
            and _expr_is_comm(node.func.value, aliases)
        ):
            return True
    return False


def is_comm_receiver(call: ast.Call, aliases: set[str]) -> bool:
    """Whether ``call``'s receiver is a communicator handle."""
    if not isinstance(call.func, ast.Attribute):
        return False
    return _expr_is_comm(call.func.value, aliases)


# -- summary extraction --------------------------------------------------------


def _callee_name(call: ast.Call) -> str | None:
    """Bare name a call resolves by (``helper`` / ``self._helper`` → both
    keyed by the final segment)."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        # method-ish calls resolve by the attribute name; collective names
        # are never treated as callees (they are the payload, not the graph)
        return func.attr
    return None


def _rank_dependent(test: ast.expr) -> bool:
    return any(
        any(marker in name.lower() for marker in _RANK_MARKERS)
        for name in names_in(test)
    )


def _scan_subtree(
    nodes: Iterable[ast.stmt], aliases: set[str]
) -> tuple[list[str], list[str]]:
    """(direct collectives, callee names) anywhere under ``nodes``."""
    collectives: list[str] = []
    callees: list[str] = []
    for root in nodes:
        for sub in ast.walk(root):
            if not isinstance(sub, ast.Call):
                continue
            meth = call_method_name(sub)
            if is_comm_receiver(sub, aliases):
                # comm-method calls (collectives *and* send/recv) are
                # payload, never call-graph edges
                if meth in COLLECTIVES and meth not in collectives:
                    collectives.append(meth)
                continue
            name = _callee_name(sub)
            if name is not None:
                callees.append(name)
    return collectives, callees


def _function_qualnames(
    tree: ast.Module,
) -> Iterator[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """(qualname, node) for every function, with class/function nesting."""

    def visit(node: ast.AST, prefix: str) -> Iterator:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                yield qual, child
                yield from visit(child, f"{qual}.")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.")
            else:
                yield from visit(child, prefix)

    yield from visit(tree, "")


def module_name(path: str) -> str:
    """Dotted module name from a path (best effort; stem fallback)."""
    norm = path.replace("\\", "/")
    for marker in ("/src/", "src/"):
        idx = norm.find(marker)
        if idx >= 0:
            rel = norm[idx + len(marker):]
            break
    else:
        rel = norm
    rel = rel[:-3] if rel.endswith(".py") else rel
    return rel.strip("/").replace("/", ".")


def summarize_file(ctx: "FileContext") -> list[FunctionSummary]:
    """Compress every function in ``ctx`` into summaries."""
    mod = module_name(ctx.path)
    out: list[FunctionSummary] = []
    for qualname, fn in _function_qualnames(ctx.tree):
        aliases = comm_aliases(fn)
        summary = FunctionSummary(
            path=ctx.path, module=mod, qualname=qualname, name=fn.name,
            line=fn.lineno, col=fn.col_offset,
        )
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                meth = call_method_name(node)
                if is_comm_receiver(node, aliases):
                    if meth in COLLECTIVES and meth not in summary.collectives:
                        summary.collectives.append(meth)
                    elif meth in ("send", "recv"):
                        if summary.sends + summary.recvs == 0:
                            summary.p2p_line = node.lineno
                            summary.p2p_col = node.col_offset
                        if meth == "send":
                            summary.sends += 1
                        else:
                            summary.recvs += 1
                    continue
                name = _callee_name(node)
                if name is not None:
                    summary.callees.append(name)
            elif isinstance(node, ast.If) and _rank_dependent(node.test):
                t_coll, t_calls = _scan_subtree(node.body, aliases)
                f_coll, f_calls = _scan_subtree(node.orelse, aliases)
                summary.rank_sites.append(
                    RankSite(
                        line=node.lineno, col=node.col_offset,
                        true_direct=t_coll, true_calls=t_calls,
                        false_direct=f_coll, false_calls=f_calls,
                    )
                )
        out.append(summary)
    return out


# -- the project index ---------------------------------------------------------


class ProjectIndex:
    """Call-graph view over every summarized function in the analysed tree.

    Resolution policy (conservative by design): a callee name resolves to
    the unique function with that bare name in the *same file*, else to the
    unique function with that bare name anywhere in the project; ambiguous
    and unknown names resolve to nothing.
    """

    def __init__(self) -> None:
        self.summaries: list[FunctionSummary] = []
        #: path → {line → suppressed rule set} (suppression for findings
        #: anchored by project-scope checkers)
        self.noqa: dict[str, dict[int, set[str]]] = {}
        self._by_name: dict[str, list[FunctionSummary]] = {}
        self._by_path_name: dict[tuple[str, str], list[FunctionSummary]] = {}
        self._eff_collectives: dict[int, set[str]] = {}
        self._eff_p2p: dict[int, tuple[int, int]] = {}
        self._callers: dict[int, int] | None = None

    def add_file(
        self,
        path: str,
        summaries: Iterable[FunctionSummary],
        noqa: dict[int, set[str]] | None = None,
    ) -> None:
        for s in summaries:
            self.summaries.append(s)
            self._by_name.setdefault(s.name, []).append(s)
            self._by_path_name.setdefault((s.path, s.name), []).append(s)
        self.noqa[path] = dict(noqa or {})

    # -- resolution ----------------------------------------------------------

    def resolve(
        self, caller: FunctionSummary, callee_name: str
    ) -> FunctionSummary | None:
        local = self._by_path_name.get((caller.path, callee_name), [])
        if len(local) == 1:
            return local[0]
        if local:
            return None  # ambiguous within the file
        everywhere = self._by_name.get(callee_name, [])
        if len(everywhere) == 1:
            return everywhere[0]
        return None

    def callers_of(self, summary: FunctionSummary) -> int:
        """How many resolved call edges point at ``summary``."""
        if self._callers is None:
            counts: dict[int, int] = {}
            for s in self.summaries:
                # rank-site call lists are a *view* into s.callees (the
                # summary walk covers If subtrees too) — don't re-add them
                for name in s.callees:
                    target = self.resolve(s, name)
                    if target is not None and target is not s:
                        counts[id(target)] = counts.get(id(target), 0) + 1
            self._callers = counts
        return self._callers.get(id(summary), 0)

    # -- interprocedural effects --------------------------------------------

    def effective_collectives(
        self, summary: FunctionSummary, _visiting: set[int] | None = None
    ) -> set[str]:
        """Collectives ``summary`` can reach, transitively through callees."""
        key = id(summary)
        if key in self._eff_collectives:
            return self._eff_collectives[key]
        visiting = _visiting if _visiting is not None else set()
        if key in visiting:
            return set(summary.collectives)  # cycle: direct only
        visiting.add(key)
        out = set(summary.collectives)
        for name in summary.callees:
            target = self.resolve(summary, name)
            if target is not None:
                out |= self.effective_collectives(target, visiting)
        visiting.discard(key)
        self._eff_collectives[key] = out
        return out

    def collectives_via_calls(
        self, caller: FunctionSummary, call_names: Iterable[str]
    ) -> dict[str, set[str]]:
        """collective → helper names contributing it (for diagnostics)."""
        out: dict[str, set[str]] = {}
        for name in call_names:
            target = self.resolve(caller, name)
            if target is None:
                continue
            for op in self.effective_collectives(target):
                out.setdefault(op, set()).add(name)
        return out

    def effective_p2p(
        self, summary: FunctionSummary, _visiting: set[int] | None = None
    ) -> tuple[int, int]:
        """(sends, recvs) reachable from ``summary``, with call multiplicity."""
        key = id(summary)
        if key in self._eff_p2p:
            return self._eff_p2p[key]
        visiting = _visiting if _visiting is not None else set()
        if key in visiting:
            return (summary.sends, summary.recvs)  # cycle: direct only
        visiting.add(key)
        sends, recvs = summary.sends, summary.recvs
        # summary.callees already includes calls inside rank-conditional
        # branches (the walk covers If subtrees); adding site.*_calls here
        # would double-count them
        for name in summary.callees:
            target = self.resolve(summary, name)
            if target is not None:
                s, r = self.effective_p2p(target, visiting)
                sends += s
                recvs += r
        visiting.discard(key)
        self._eff_p2p[key] = (sends, recvs)
        return sends, recvs


def build_index(
    entries: Iterable[tuple[str, list[FunctionSummary], dict[int, set[str]]]],
) -> ProjectIndex:
    """Assemble a :class:`ProjectIndex` from per-file (path, summaries, noqa)."""
    index = ProjectIndex()
    for path, summaries, noqa in entries:
        index.add_file(path, summaries, noqa)
    return index
