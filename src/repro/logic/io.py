"""Serialization: knowledge bases, example sets and theories → Prolog text.

ILP systems of the paper's era exchange everything as Prolog source files
(the "distributed file system" of §4.1 holds exactly such files).  These
helpers write that format, and :func:`repro.logic.parser.parse_program`
reads it back — useful for inspecting runs and shipping problems to a
real cluster.
"""

from __future__ import annotations

import pathlib
from typing import Iterable, Sequence

from repro.logic.clause import Clause, Theory
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import term_to_str
from repro.logic.terms import Term

__all__ = [
    "clause_to_prolog",
    "theory_to_prolog",
    "kb_to_prolog",
    "examples_to_prolog",
    "save_problem",
]


def clause_to_prolog(clause: Clause) -> str:
    """Render one clause in re-parseable Prolog syntax."""
    if not clause.body:
        return f"{term_to_str(clause.head)}."
    body = ",\n    ".join(term_to_str(b) for b in clause.body)
    return f"{term_to_str(clause.head)} :-\n    {body}."


def theory_to_prolog(theory: Theory, header: str = "") -> str:
    lines = []
    if header:
        lines.extend(f"% {line}" for line in header.splitlines())
        lines.append("")
    lines.extend(clause_to_prolog(c) for c in theory)
    return "\n".join(lines) + "\n"


def kb_to_prolog(kb: KnowledgeBase) -> str:
    """Dump a knowledge base: facts grouped per predicate, then rules."""
    lines: list[str] = []
    for ind in kb.predicates():
        store = kb.facts_for(ind)
        if len(store):
            lines.append(f"% {ind[0]}/{ind[1]}: {len(store)} facts")
            lines.extend(f"{term_to_str(f)}." for f in store)
            lines.append("")
    for ind in kb.predicates():
        rules = kb.rules_for(ind)
        if rules:
            lines.append(f"% {ind[0]}/{ind[1]}: {len(rules)} rules")
            lines.extend(clause_to_prolog(r) for r in rules)
            lines.append("")
    return "\n".join(lines)


def examples_to_prolog(examples: Sequence[Term]) -> str:
    return "\n".join(f"{term_to_str(e)}." for e in examples) + "\n"


def save_problem(
    directory: str | pathlib.Path,
    kb: KnowledgeBase,
    pos: Sequence[Term],
    neg: Sequence[Term],
    modes: Iterable = (),
) -> None:
    """Write an ILP problem in Aleph-style file layout.

    ``<dir>/bk.pl`` (background), ``<dir>/pos.f`` (positives),
    ``<dir>/neg.n`` (negatives), ``<dir>/modes.pl`` (one declaration per
    line as a comment-friendly term).
    """
    d = pathlib.Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    (d / "bk.pl").write_text(kb_to_prolog(kb))
    (d / "pos.f").write_text(examples_to_prolog(pos))
    (d / "neg.n").write_text(examples_to_prolog(neg))
    (d / "modes.pl").write_text("".join(f"{m}.\n" for m in modes))
