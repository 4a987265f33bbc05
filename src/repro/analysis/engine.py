"""The static-analysis engine: file contexts, checker registry, suppression.

The engine is a deliberately small AST-visitor framework tuned to *this*
codebase's physics and SPMD idioms (DESIGN.md §9/§13).  A :class:`Checker`
inspects one :class:`FileContext` (source + AST + comment map) and yields
:class:`Finding` records; the engine walks a file tree, runs every
registered checker, and applies per-line suppression comments of the form::

    rho[mask] = 0.0  # repro: noqa[RP002] boundary mask is the contract

``# repro: noqa`` with no rule list suppresses every rule on that line.
Suppressed findings are retained (marked ``suppressed=True``) so reporters
can audit them; only *unsuppressed* findings fail the run.

Checkers register themselves with :func:`register`; the registry maps rule
ids (``RP001``...) to checker classes, and :func:`run_paths` is the one
entry point both the CLI (``python -m repro.analysis``) and the tier-1
self-check test use.  Every rule sees one file at a time; files are
analysed one after another with no result cache (DESIGN.md §13 says why).
"""

from __future__ import annotations

import ast
import io
import pathlib
import re
import tokenize
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

#: Matches the suppression comment — ``repro: noqa`` after a hash, with an
#: optional ``[RP001,RP002]`` rule list (trailing text allowed as a
#: human-readable justification).
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Z0-9,\s]+)\])?", re.IGNORECASE
)

#: Rule id used for files the engine itself cannot parse.
PARSE_ERROR_RULE = "RP000"


@dataclass(frozen=True)
class Finding:
    """One defect reported by a checker."""

    rule: str
    message: str
    path: str
    line: int
    col: int = 0
    suppressed: bool = False

    def format(self) -> str:
        mark = " (suppressed)" if self.suppressed else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}{mark}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "suppressed": self.suppressed,
        }


@dataclass
class FileContext:
    """Everything a checker may inspect about one source file."""

    path: str
    source: str
    tree: ast.Module
    #: line number → set of suppressed rule ids ("*" means all rules)
    noqa: dict[int, set[str]] = field(default_factory=dict)

    @classmethod
    def from_source(cls, path: str, source: str) -> "FileContext":
        tree = ast.parse(source, filename=path)
        return cls(path=path, source=source, tree=tree, noqa=_noqa_map(source))

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        rules = self.noqa.get(line, set())
        suppressed = "*" in rules or rule in rules
        return Finding(
            rule=rule, message=message, path=self.path,
            line=line, col=col, suppressed=suppressed,
        )


def _noqa_map(source: str) -> dict[int, set[str]]:
    """Parse suppression comments via tokenize (robust to strings)."""
    out: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _NOQA_RE.search(tok.string)
            if not m:
                continue
            rules = m.group("rules")
            names = (
                {"*"}
                if rules is None
                else {r.strip().upper() for r in rules.split(",") if r.strip()}
            )
            out.setdefault(tok.start[0], set()).update(names)
    except tokenize.TokenizeError:  # pragma: no cover - parse error path
        pass
    return out


class Checker:
    """Base class for one rule.  Subclasses set ``rule``/``name`` and
    implement :meth:`check` yielding findings for one file."""

    #: rule id, e.g. ``"RP001"``
    rule: str = "RP???"
    #: short kebab-case rule name for ``--list-rules``
    name: str = "unnamed"
    #: one-line description shown by ``--list-rules``
    description: str = ""
    #: path substrings this checker skips (implementation modules whose
    #: internals are the thing the rule protects call-sites *from*)
    exempt_paths: tuple[str, ...] = ()

    def applies_to(self, ctx: FileContext) -> bool:
        norm = ctx.path.replace("\\", "/")
        return not any(part in norm for part in self.exempt_paths)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError


#: rule id → checker class; populated by :func:`register` at import time.
CHECKERS: dict[str, type[Checker]] = {}


def register(cls: type[Checker]) -> type[Checker]:
    """Class decorator adding a checker to the global registry."""
    if cls.rule in CHECKERS:
        raise ValueError(f"duplicate checker rule {cls.rule}")
    CHECKERS[cls.rule] = cls
    return cls


def all_checkers() -> list[Checker]:
    """Instantiate every registered checker (importing the suite first)."""
    # Import for side effect: checker modules self-register on import.
    import repro.analysis.checkers  # noqa: F401

    return [CHECKERS[rule]() for rule in sorted(CHECKERS)]


def iter_python_files(paths: Sequence[str | pathlib.Path]) -> Iterator[pathlib.Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    for raw in paths:
        p = pathlib.Path(raw)
        if p.is_dir():
            yield from sorted(
                f for f in p.rglob("*.py")
                if not any(part.startswith(".") for part in f.parts)
            )
        elif p.suffix == ".py":
            yield p


def _analyse_one(
    path: str, checkers: list[Checker]
) -> tuple[list[Finding], dict[int, set[str]]]:
    """Parse + check one file: its findings and its suppression map; a
    parse failure becomes an RP000 finding."""
    source = pathlib.Path(path).read_text()
    try:
        ctx = FileContext.from_source(path, source)
    except SyntaxError as exc:
        finding = Finding(
            rule=PARSE_ERROR_RULE,
            message=f"could not parse: {exc.msg}",
            path=path,
            line=exc.lineno or 1,
            col=exc.offset or 0,
        )
        return [finding], {}
    findings: list[Finding] = []
    for checker in checkers:
        if checker.applies_to(ctx):
            findings.extend(checker.check(ctx))
    return findings, ctx.noqa


@dataclass
class RunResult:
    """Everything one :func:`run_paths` pass produced.

    ``findings`` is the sorted stream over every file; ``noqa_by_file``
    feeds the stale-suppression audit.
    """

    findings: list[Finding]
    noqa_by_file: dict[str, dict[int, set[str]]] = field(default_factory=dict)


def run_paths(
    paths: Sequence[str | pathlib.Path],
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> list[Finding]:
    """Analyse every python file under ``paths`` with the full suite.

    ``select``/``ignore`` filter by rule id; suppression comments are
    applied per line.  Returns *all* findings (suppressed ones flagged).
    """
    return run_paths_full(paths, select=select, ignore=ignore).findings


def run_paths_full(
    paths: Sequence[str | pathlib.Path],
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> RunResult:
    """Like :func:`run_paths` but returns the full :class:`RunResult`."""
    checkers = all_checkers()
    if select:
        wanted = {r.upper() for r in select}
        checkers = [c for c in checkers if c.rule in wanted]
    if ignore:
        dropped = {r.upper() for r in ignore}
        checkers = [c for c in checkers if c.rule not in dropped]
    run = RunResult(findings=[])
    for p in iter_python_files(paths):
        findings, noqa = _analyse_one(str(p), checkers)
        run.findings.extend(findings)
        run.noqa_by_file[str(p)] = noqa
    run.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return run


def unsuppressed(findings: Iterable[Finding]) -> list[Finding]:
    return [f for f in findings if not f.suppressed]


# -- stale-suppression audit ---------------------------------------------------


@dataclass(frozen=True)
class UnusedNoqa:
    """A ``# repro: noqa[...]`` entry that no longer suppresses anything."""

    path: str
    line: int
    #: the stale rule ids, or ``("*",)`` for a blanket noqa with no finding
    rules: tuple[str, ...]

    def format(self) -> str:
        spec = "" if self.rules == ("*",) else f"[{','.join(self.rules)}]"
        return (
            f"{self.path}:{self.line}: unused suppression "
            f"`# repro: noqa{spec}` — no finding on this line"
        )


def unused_suppressions(
    findings: Iterable[Finding],
    noqa_by_file: dict[str, dict[int, set[str]]],
) -> list[UnusedNoqa]:
    """Suppression comments that suppress nothing (per rule id).

    A blanket ``noqa`` is stale when *no* rule fires on its line; a
    rule-scoped ``noqa[RP00x,...]`` reports each listed rule that no
    finding on that line carries.  Findings include suppressed ones — that
    is exactly what a live suppression produces.
    """
    fired: dict[tuple[str, int], set[str]] = {}
    for f in findings:
        fired.setdefault((f.path, f.line), set()).add(f.rule)
    out: list[UnusedNoqa] = []
    for path, lines in sorted(noqa_by_file.items()):
        for line, rules in sorted(lines.items()):
            present = fired.get((path, line), set())
            if "*" in rules:
                if not present:
                    out.append(UnusedNoqa(path, line, ("*",)))
                continue
            stale = tuple(sorted(r for r in rules if r not in present))
            if stale:
                out.append(UnusedNoqa(path, line, stale))
    return out
