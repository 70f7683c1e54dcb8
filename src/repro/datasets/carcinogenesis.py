"""Carcinogenesis-like synthetic dataset (molecular substructure discovery).

The real carcinogenesis dataset [Srinivasan et al. 97] classifies molecules
by rodent-bioassay outcome from atom/bond structure.  This generator
produces the same *shape* of problem: random molecular graphs (atoms with
elements and charges, bonds with types) and an activity label planted as a
small disjunctive substructure theory:

* rule 1 — the molecule contains a double bond to an oxygen atom
  (carbonyl-like);
* rule 2 — the molecule contains a negatively charged chlorine.

Labels are flipped with probability ``label_noise`` to emulate bioassay
noise, and generation continues until the requested |E+|/|E-| quotas are
met exactly (Table 1: 162/136 at paper scale).
"""

from __future__ import annotations

import random

from repro.datasets.base import Dataset, register_dataset
from repro.ilp.config import ILPConfig
from repro.ilp.modes import ModeSet
from repro.logic.knowledge import KnowledgeBase
from repro.logic.terms import Const, atom
from repro.util.rng import make_rng, weighted_draw

__all__ = ["make_carcinogenesis"]

_ELEMENTS = ("c", "o", "n", "cl", "s")
_BOND_TYPES = (1, 2, 7)  # single, double, aromatic
_CHARGES = ("c_neg", "c_zero", "c_pos")
_element = weighted_draw(_ELEMENTS, (0.62, 0.15, 0.10, 0.07, 0.06))
_bond_type = weighted_draw(_BOND_TYPES, (0.78, 0.16, 0.06))
_charge = weighted_draw(_CHARGES, (0.3, 0.55, 0.15))


def _draw_molecule(rng: random.Random) -> tuple[list, list, list]:
    """Draw one molecule's ``(elems, charges, bonds)``: plain Python values,
    no terms — about two molecules in five are drawn only to be thrown
    away by the quota check."""
    n_atoms = rng.randint(5, 10)
    elems = [_element(rng) for _ in range(n_atoms)]
    charges = [_charge(rng) for _ in range(n_atoms)]
    # Connected random tree plus a few extra edges (ring bonds).
    bonds: list[tuple[int, int, int]] = []
    for i in range(1, n_atoms):
        j = rng.randint(0, i - 1)
        bonds.append((i, j, _bond_type(rng)))
    for _ in range(rng.randint(0, 3)):
        i, j = rng.sample(range(n_atoms), 2)
        bonds.append((i, j, _bond_type(rng)))
    return elems, charges, bonds


def _is_active(elems: list, charges: list, bonds: list) -> bool:
    """The planted theory (expressible in the mode language below):

    active(M) :- atom_of(M,A), bond(A,B,2), elem(B,o).
    active(M) :- atom_of(M,A), elem(A,cl), charge(A,c_neg).
    """
    rule1 = any(
        t == 2 and (elems[i] == "o" or elems[j] == "o") for i, j, t in bonds
    )
    rule2 = any(e == "cl" and ch == "c_neg" for e, ch in zip(elems, charges))
    return rule1 or rule2


def _add_molecule(kb: KnowledgeBase, mol: str, elems: list, charges: list, bonds: list, const: dict) -> None:
    """Add the background facts of a molecule that made it into the
    dataset; ``const`` maps a property value to its constant."""
    m = Const(mol)
    atoms = [Const(f"{mol}_a{i}") for i in range(len(elems))]
    kb.add_facts("atom_of", [(m, a) for a in atoms])
    kb.add_facts("elem", [(a, const[e]) for a, e in zip(atoms, elems)])
    kb.add_facts("charge", [(a, const[ch]) for a, ch in zip(atoms, charges)])
    rows = []
    for i, j, t in bonds:
        t = const[t]
        rows.append((atoms[i], atoms[j], t))
        rows.append((atoms[j], atoms[i], t))
    kb.add_facts("bond", rows)


@register_dataset("carcinogenesis")
def make_carcinogenesis(
    seed: int = 0,
    scale: str = "small",
    n_pos: int | None = None,
    n_neg: int | None = None,
    label_noise: float = 0.03,
) -> Dataset:
    """Generate a carcinogenesis-like problem (Table 1: 162+/136- at
    ``scale="paper"``; 56+/48- at ``"small"``)."""
    if n_pos is None or n_neg is None:
        n_pos, n_neg = (162, 136) if scale == "paper" else (56, 48)
    rng = make_rng(seed, "carcinogenesis")
    kb = KnowledgeBase()
    const = {v: Const(v) for v in _ELEMENTS + _CHARGES + _BOND_TYPES}
    pos, neg = [], []
    attempts = 0
    max_attempts = 60 * (n_pos + n_neg)
    m = 0
    while (len(pos) < n_pos or len(neg) < n_neg) and attempts < max_attempts:
        attempts += 1
        mol = f"m{m}"
        molecule = _draw_molecule(rng)
        label = _is_active(*molecule)
        if label_noise > 0 and rng.random() < label_noise:
            label = not label
        target = pos if label else neg
        quota = n_pos if label else n_neg
        if len(target) >= quota:
            continue  # quota filled; discard this molecule
        _add_molecule(kb, mol, *molecule, const)
        target.append(atom("active", mol))
        m += 1
    if len(pos) < n_pos or len(neg) < n_neg:  # pragma: no cover - defensive
        raise RuntimeError("carcinogenesis generator failed to meet quotas")

    modes = ModeSet(
        [
            "modeh(1, active(+mol))",
            "modeb(*, atom_of(+mol, -atm))",
            "modeb(1, elem(+atm, #element))",
            "modeb(*, bond(+atm, -atm, #btype))",
            "modeb(1, charge(+atm, #chargeb))",
        ]
    )
    config = ILPConfig(
        max_clause_length=3,
        var_depth=3,
        recall=12,
        # Planted rules legitimately cover label-flipped negatives (expected
        # ~label_noise * activity-rate * n_neg of them, with real variance
        # across seeds); the allowance needs headroom above that mean or a
        # noisy seed makes the true theory unlearnable.
        noise=max(3, round(0.08 * n_neg)),
        min_pos=2,
        max_nodes=250,
        max_bottom_literals=100,
        engine_max_ops=50_000,
        pipeline_width=10,
    )
    return Dataset(
        name="carcinogenesis",
        kb=kb,
        pos=pos,
        neg=neg,
        modes=modes,
        config=config,
        target_description=(
            "active(M) :- atom_of(M,A), bond(A,B,2), elem(B,o).  ;  "
            "active(M) :- atom_of(M,A), elem(A,cl), charge(A,c_neg)."
        ),
    )
