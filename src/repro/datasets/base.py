"""Dataset bundles and the generator registry.

A :class:`Dataset` packages everything one ILP problem needs: background
knowledge, positive/negative examples, mode declarations and a tuned
:class:`~repro.ilp.config.ILPConfig`.  Generators are registered under the
paper's dataset names; each accepts a ``scale``:

* ``"small"`` — seconds-scale problems for tests and default benchmark
  runs (same relational structure, fewer examples);
* ``"paper"`` — Table 1 cardinalities (carcinogenesis 162+/136-, mesh
  2840+/278-, pyrimidines 848+/764-).

The real datasets are not redistributable; these are *synthetic
equivalents* with planted target theories — see DESIGN.md §1 for why that
substitution preserves the paper's measurable behaviour.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.ilp.config import ILPConfig
from repro.ilp.modes import ModeSet
from repro.logic.knowledge import KnowledgeBase
from repro.logic.terms import Term

__all__ = ["Dataset", "DATASETS", "register_dataset", "make_dataset", "SCALES"]

SCALES = ("small", "paper")


@dataclass
class Dataset:
    """One ready-to-learn ILP problem."""

    name: str
    kb: KnowledgeBase
    pos: list[Term]
    neg: list[Term]
    modes: ModeSet
    config: ILPConfig
    #: the generator's hidden target theory, for diagnostics only
    target_description: str = ""

    @property
    def n_pos(self) -> int:
        return len(self.pos)

    @property
    def n_neg(self) -> int:
        return len(self.neg)

    def stats(self) -> dict:
        out = {"name": self.name, "n_pos": self.n_pos, "n_neg": self.n_neg}
        out.update(self.kb.stats())
        return out


# name -> generator(seed=..., scale=...) -> Dataset; a bundled name maps
# to its loader (:func:`_bundled`) until its generator module is imported.
DATASETS: dict[str, Callable[..., Dataset]] = {}


def register_dataset(name: str):
    """Decorator: register a ``generator(seed=..., scale=...) -> Dataset``
    under ``name`` (making it available to ``make_dataset`` and the CLI)."""

    def deco(fn: Callable[..., Dataset]):
        DATASETS[name] = fn
        return fn

    return deco


def _bundled(name: str) -> Callable[..., Dataset]:
    """The entry of bundled dataset ``name`` until its generator module
    ``repro.datasets.<name>`` is loaded: the first call imports it, and
    its ``@register_dataset`` replaces this entry."""

    def load(**kw) -> Dataset:
        importlib.import_module(f"{__package__}.{name}")
        return DATASETS[name](**kw)

    return load


for _name in ("carcinogenesis", "krki", "mesh", "pyrimidines", "trains"):
    DATASETS[_name] = _bundled(_name)
del _name


def make_dataset(name: str, seed: int = 0, scale: str = "small", **kw) -> Dataset:
    """Instantiate a registered dataset generator by name."""
    try:
        fn = DATASETS[name]
    except KeyError:
        raise ValueError(f"unknown dataset {name!r}; known: {sorted(DATASETS)}") from None
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; use one of {SCALES}")
    return fn(seed=seed, scale=scale, **kw)
