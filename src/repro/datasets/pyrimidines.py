"""Pyrimidines-like synthetic dataset (pairwise structure–activity ranking).

The real pyrimidines dataset [King et al. 92] learns ``great(D1, D2)`` —
drug D1 binds dihydrofolate reductase more strongly than D2 — from the
substituents at three positions of the pyrimidine ring and their chemical
properties.  This generator mirrors that structure:

* each drug has one substituent per position (p3, p4, p5), drawn from a
  catalogue of groups;
* each group has fixed discrete property levels (polarity, size,
  flexibility, 0..2);
* a hidden activity score weights polarity at p3 most, then size at p4;
* ``great(hi, lo)`` pairs are positives, reversed pairs negatives, with a
  margin so the planted comparative rules
  (``great(D1,D2) :- subst(D1,p3,S), subst(D2,p3,T), polar_gt(S,T)``)
  hold crisply; a small fraction of labels is flipped as noise.

Table 1 cardinality at paper scale: 848+/764-.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

from repro.datasets.base import Dataset, register_dataset
from repro.ilp.config import ILPConfig
from repro.ilp.modes import ModeSet
from repro.logic.knowledge import KnowledgeBase
from repro.logic.terms import Const, atom
from repro.util.rng import make_rng

__all__ = ["make_pyrimidines"]

_POSITIONS = ("p3", "p4", "p5")
# group -> (polar, size, flex) levels in 0..2
_GROUPS = {
    "h": (0, 0, 0),
    "ch3": (0, 1, 1),
    "c2h5": (0, 2, 2),
    "oh": (2, 0, 0),
    "och3": (2, 1, 1),
    "nh2": (2, 0, 1),
    "cl": (1, 1, 0),
    "br": (1, 2, 0),
    "cf3": (1, 2, 1),
    "no2": (2, 1, 0),
}
_WEIGHTS = {"p3": 5.0, "p4": 2.0, "p5": 1.0}  # polarity weights
_SIZE_WEIGHT = 1.5  # size at p4


def _activity(groups: dict[str, str]) -> float:
    score = 0.0
    for pos in _POSITIONS:
        polar, size, flex = _GROUPS[groups[pos]]
        score += _WEIGHTS[pos] * polar
    score += _SIZE_WEIGHT * _GROUPS[groups["p4"]][1]
    return score


@register_dataset("pyrimidines")
def make_pyrimidines(
    seed: int = 0,
    scale: str = "small",
    n_pos: int | None = None,
    n_neg: int | None = None,
    margin: float = 1.5,
    label_noise: float = 0.03,
) -> Dataset:
    """Generate a pyrimidines-like ranking problem (848+/764- at
    ``scale="paper"``, 60+/52- at ``"small"``)."""
    if n_pos is None or n_neg is None:
        n_pos, n_neg = (848, 764) if scale == "paper" else (60, 52)
    rng = make_rng(seed, "pyrimidines")
    kb = KnowledgeBase()

    # Grow the drug pool until the margin-qualifying ordered pairs cover the
    # quotas with slack (the qualifying fraction depends on the random
    # property draws, so we check the actual count rather than estimate it).
    group_names = sorted(_GROUPS)
    drugs: dict[str, dict[str, str]] = {}

    def qualifying_pairs() -> list[tuple[str, str]]:
        names = sorted(drugs)
        return [
            (a, b)
            for a, b in itertools.permutations(names, 2)
            if _activity(drugs[a]) > _activity(drugs[b]) + margin
        ]

    n_drugs = max(8, int((2.5 * (n_pos + n_neg)) ** 0.5) + 1)
    while True:
        for d in range(len(drugs), n_drugs):
            name = f"d{d}"
            drugs[name] = {pos: rng.choice(group_names) for pos in _POSITIONS}
        if len(qualifying_pairs()) >= int(1.2 * (n_pos + n_neg)):
            break
        if n_drugs > 40 * (1 + n_pos + n_neg):  # pragma: no cover - defensive
            raise RuntimeError("pyrimidines generator cannot satisfy quotas")
        n_drugs += max(2, n_drugs // 4)

    const = {v: Const(v) for v in _POSITIONS + tuple(_GROUPS) + (0, 1, 2)}
    # (substituent constant, its group's property levels) per drug and position.
    subs: list[tuple[Const, tuple]] = []
    # functor -> rows, in the order each functor first appears (the order
    # the KB creates its stores in).
    rows: defaultdict[str, list] = defaultdict(list)
    for name, groups in drugs.items():
        drug = Const(name)
        for pos in _POSITIONS:
            sub = Const(f"{name}_{pos}")
            levels = _GROUPS[groups[pos]]
            subs.append((sub, levels))
            rows["subst"].append((drug, const[pos], sub))
            rows["group"].append((sub, const[groups[pos]]))
            polar, size, flex = levels
            rows["polar"].append((sub, const[polar]))
            rows["size"].append((sub, const[size]))
            rows["flex"].append((sub, const[flex]))

    # Comparative background relations over substituent instances.
    for (s1, (pol1, sz1, fl1)), (s2, (pol2, sz2, fl2)) in itertools.permutations(subs, 2):
        if pol1 > pol2:
            rows["polar_gt"].append((s1, s2))
        if sz1 > sz2:
            rows["size_gt"].append((s1, s2))
        if fl1 > fl2:
            rows["flex_gt"].append((s1, s2))
    for functor, functor_rows in rows.items():
        kb.add_facts(functor, functor_rows)

    # Pairwise examples with a decision margin.
    pairs = qualifying_pairs()
    rng.shuffle(pairs)
    pos, neg = [], []
    for hi, lo in pairs:
        flip = label_noise > 0 and rng.random() < label_noise
        if not flip and len(pos) < n_pos:
            pos.append(atom("great", hi, lo))
        elif len(neg) < n_neg:
            neg.append(atom("great", lo, hi))
        if len(pos) >= n_pos and len(neg) >= n_neg:
            break
    if len(pos) < n_pos or len(neg) < n_neg:  # pragma: no cover - defensive
        raise RuntimeError(
            f"pyrimidines generator met only {len(pos)}+/{len(neg)}- of "
            f"{n_pos}+/{n_neg}-; increase n_drugs or lower margin"
        )

    modes = ModeSet(
        [
            "modeh(1, great(+drug, +drug))",
            "modeb(*, subst(+drug, #pos, -sub))",
            "modeb(1, polar(+sub, #lvl))",
            "modeb(1, size(+sub, #lvl))",
            "modeb(1, flex(+sub, #lvl))",
            "modeb(1, group(+sub, #grp))",
            "modeb(1, polar_gt(+sub, +sub))",
            "modeb(1, size_gt(+sub, +sub))",
            "modeb(1, flex_gt(+sub, +sub))",
        ]
    )
    config = ILPConfig(
        max_clause_length=3,
        var_depth=2,
        recall=3,
        noise=max(1, round(0.04 * n_neg)),
        min_pos=2,
        max_nodes=350,
        max_bottom_literals=45,
        pipeline_width=10,
    )
    return Dataset(
        name="pyrimidines",
        kb=kb,
        pos=pos,
        neg=neg,
        modes=modes,
        config=config,
        target_description=(
            "great(D1,D2) :- subst(D1,p3,S), subst(D2,p3,T), polar_gt(S,T).  (and "
            "weaker variants at p4/size)"
        ),
    )
