"""Mesh-design-like synthetic dataset (finite-element mesh resolution).

The real mesh dataset [Dolšak & Bratko] learns how many finite elements
each edge of a CAD structure should be partitioned into, from edge
attributes (type, support, loading) and the neighbourhood topology.  This
generator produces rings of edges ("structures") with those attribute
families and plants the element-count rules:

* short edges → 1 element, or 2 when loaded;
* long edges → 6 when fixed, 4 otherwise;
* circuit edges → 7 when some neighbour is fixed, else 5;
* half-circuit edges → 3, or 8 when continuously loaded.

Positives are ``mesh(Edge, TrueCount)``; negatives are ``mesh(Edge,
WrongCount)`` samples.  Table 1 cardinality at paper scale: 2840+/278-.
The neighbour rule forces genuinely relational learning (depth-2
saturation through ``neighbor/2``).
"""

from __future__ import annotations

from repro.datasets.base import Dataset, register_dataset
from repro.ilp.config import ILPConfig
from repro.ilp.modes import ModeSet
from repro.logic.knowledge import KnowledgeBase
from repro.logic.terms import Const, atom
from repro.util.rng import make_rng, weighted_draw

__all__ = ["make_mesh"]

_ETYPES = ("short", "long", "circuit", "half_circuit")
_SUPPORTS = ("fixed", "free", "one_side_fixed")
_LOADS = ("loaded", "not_loaded", "cont_loaded")
_etype = weighted_draw(_ETYPES, (0.38, 0.3, 0.18, 0.14))
_support = weighted_draw(_SUPPORTS, (0.35, 0.45, 0.2))
_load = weighted_draw(_LOADS, (0.3, 0.55, 0.15))

_ALL_CLASSES = (1, 2, 3, 4, 5, 6, 7, 8)


def _true_class(etype: str, support: str, load: str, any_fixed_neighbor: bool) -> int:
    if etype == "short":
        return 2 if load == "loaded" else 1
    if etype == "long":
        return 6 if support == "fixed" else 4
    if etype == "circuit":
        return 7 if any_fixed_neighbor else 5
    # half_circuit
    return 8 if load == "cont_loaded" else 3


@register_dataset("mesh")
def make_mesh(
    seed: int = 0,
    scale: str = "small",
    n_pos: int | None = None,
    n_neg: int | None = None,
    edges_per_structure: int = 20,
    label_noise: float = 0.03,
) -> Dataset:
    """Generate a mesh-like problem (2840+/278- at ``scale="paper"``,
    160+/24- at ``"small"``)."""
    if n_pos is None or n_neg is None:
        n_pos, n_neg = (2840, 278) if scale == "paper" else (160, 24)
    rng = make_rng(seed, "mesh")
    kb = KnowledgeBase()

    n_structures = (n_pos + edges_per_structure - 1) // edges_per_structure
    edges: list[str] = []
    true_class: dict[str, int] = {}

    const = {v: Const(v) for v in _ETYPES + _SUPPORTS + _LOADS}
    for s in range(n_structures):
        ring = [f"e{s}_{i}" for i in range(edges_per_structure)]
        ring_c = [Const(e) for e in ring]
        attrs = {}
        for e in ring:
            attrs[e] = (_etype(rng), _support(rng), _load(rng))
        for k, functor in enumerate(("etype", "support", "load")):
            kb.add_facts(functor, [(c, const[attrs[e][k]]) for c, e in zip(ring_c, ring)])
        rows = []
        for i, c in enumerate(ring_c):
            nxt = ring_c[(i + 1) % len(ring_c)]
            rows.append((c, nxt))
            rows.append((nxt, c))
        kb.add_facts("neighbor", rows)
        for i, e in enumerate(ring):
            left = ring[(i - 1) % len(ring)]
            right = ring[(i + 1) % len(ring)]
            any_fixed = attrs[left][1] == "fixed" or attrs[right][1] == "fixed"
            etype, support, load = attrs[e]
            c = _true_class(etype, support, load, any_fixed)
            if label_noise > 0 and rng.random() < label_noise:
                c = rng.choice([k for k in _ALL_CLASSES if k != c])
            true_class[e] = c
            edges.append(e)

    pos = [atom("mesh", e, true_class[e]) for e in edges[:n_pos]]
    # Negatives: wrong element counts for randomly chosen edges.
    neg = []
    seen = set()
    while len(neg) < n_neg:
        e = rng.choice(edges)
        wrong = rng.choice([k for k in _ALL_CLASSES if k != true_class[e]])
        if (e, wrong) in seen:
            continue
        seen.add((e, wrong))
        neg.append(atom("mesh", e, wrong))

    modes = ModeSet(
        [
            "modeh(1, mesh(+edge, #int))",
            "modeb(1, etype(+edge, #etype))",
            "modeb(1, support(+edge, #sup))",
            "modeb(1, load(+edge, #ld))",
            "modeb(*, neighbor(+edge, -edge))",
        ]
    )
    config = ILPConfig(
        max_clause_length=3,
        var_depth=2,
        recall=4,
        # Label noise relocates some edges' true class, so planted-rule
        # bodies cover a few sampled negatives; give the allowance headroom
        # above the expected count (see carcinogenesis.py for the same
        # reasoning).
        noise=max(2, round(0.08 * n_neg)),
        min_pos=2,
        max_nodes=350,
        max_bottom_literals=40,
        pipeline_width=10,
    )
    return Dataset(
        name="mesh",
        kb=kb,
        pos=pos,
        neg=neg,
        modes=modes,
        config=config,
        target_description=(
            "mesh(E,1):-etype(E,short),load(E,not_loaded). mesh(E,2):-etype(E,short),load(E,loaded). "
            "mesh(E,6):-etype(E,long),support(E,fixed). mesh(E,4):-etype(E,long),... "
            "mesh(E,7):-etype(E,circuit),neighbor(E,F),support(F,fixed). ..."
        ),
    )
