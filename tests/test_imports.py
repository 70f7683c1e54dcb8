"""No ``src/repro`` module imports a name it never reads.

An import nobody reads costs start-up time (``tests/test_startup.py``
counts modules) and misleads a reader about what a module depends on.
The scan is an AST walk, so it needs no linter installed.  A name counts
as read when a ``Name`` node loads it, when a string annotation names it,
or when ``__all__`` lists it (a re-export).  An import line marked
``# noqa: F401`` is kept on purpose: a pre-fork warm import, an optional
dependency probe, or a name another module rebinds.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent
NOQA = "# noqa: F401"


def _annotations(tree) -> list:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            out += [a.annotation for a in args.posonlyargs + args.args + args.kwonlyargs]
            out += [args.vararg and args.vararg.annotation,
                    args.kwarg and args.kwarg.annotation, node.returns]
        elif isinstance(node, ast.AnnAssign):
            out.append(node.annotation)
    return [a for a in out if a is not None]


def _read_names(tree) -> set:
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
            and not isinstance(n.ctx, ast.Store)}
    for annotation in _annotations(tree):
        for const in ast.walk(annotation):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                try:
                    parsed = ast.parse(const.value, mode="eval")
                except SyntaxError:
                    continue
                read |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return read


def unread_imports(text: str) -> list:
    """``(line, name)`` of every name ``text`` imports and never reads."""
    tree = ast.parse(text)
    lines = text.splitlines()
    read = _read_names(tree)
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name == "*" or name in read:
                continue
            if NOQA in lines[node.lineno - 1] or NOQA in lines[alias.lineno - 1]:
                continue
            unread.append((alias.lineno, name))
    return unread


def test_no_module_imports_a_name_it_never_reads():
    found = [
        f"{path.relative_to(SRC).as_posix()}:{line} {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in unread_imports(path.read_text(encoding="utf-8"))
    ]
    assert not found, found


def test_the_scan_finds_a_planted_name_and_honours_the_mark():
    text = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from typing import Iterator, Optional\n"
        "import json  # noqa: F401\n"
        "from a import (\n    b,\n    c,  # noqa: F401\n)\n"
        "from d import e\n"
        "__all__ = ['e']\n"
        "def f(x: 'Optional[int]') -> None:\n    return os.sep\n"
    )
    assert unread_imports(text) == [(2, "osp"), (3, "Iterator"), (6, "b")]
