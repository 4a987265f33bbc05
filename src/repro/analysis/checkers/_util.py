"""Shared AST helpers for the checker suite."""

from __future__ import annotations

import ast
from typing import Iterator


def function_defs(tree: ast.Module) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Every function/method definition in the module, outermost first."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def param_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    """Positional/keyword parameter names, excluding self/cls."""
    args = fn.args
    names = [
        a.arg
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        if a.arg not in ("self", "cls")
    ]
    return names


def base_name(node: ast.expr) -> str | None:
    """The root ``Name`` of an attribute/subscript chain (``a.b[0].c`` → a)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def call_method_name(call: ast.Call) -> str | None:
    """For ``recv.meth(...)`` return ``meth``; None for plain calls."""
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def dotted_name(node: ast.expr) -> str:
    """Render ``np.fft.ifftn`` style dotted names (best effort)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def docstring_of(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> str:
    return ast.get_docstring(fn) or ""
