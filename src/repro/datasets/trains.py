"""Michalski's east/west trains — the classic ILP toy problem.

Used by the related work the paper compares against (Matsui et al. evaluate
on "the trains dataset [21]") and as this library's quickstart example.
Each train has 2-5 cars with shape/length/roof/wheels/load attributes; a
train is eastbound iff it has a short closed car (the classic target), with
optional label noise.
"""

from __future__ import annotations

from collections import defaultdict

from repro.datasets.base import Dataset, register_dataset
from repro.ilp.config import ILPConfig
from repro.ilp.modes import ModeSet
from repro.logic.knowledge import KnowledgeBase
from repro.logic.terms import Const, atom
from repro.util.rng import make_rng

__all__ = ["make_trains"]

_CAR_SHAPES = ("rectangle", "bucket", "ellipse", "hexagon", "u_shaped")
_LOAD_SHAPES = ("circle", "triangle", "rectangle", "diamond")
_ROOFS = ("none", "flat", "peaked", "jagged")


@register_dataset("trains")
def make_trains(seed: int = 0, scale: str = "small", n_trains: int | None = None, label_noise: float = 0.0) -> Dataset:
    """Generate an east/west trains problem.

    ``scale="small"`` ⇒ 24 trains, ``"paper"`` ⇒ 120 (the trains problem is
    not in Table 1; "paper" just means a bigger instance).
    """
    if n_trains is None:
        n_trains = 24 if scale == "small" else 120
    rng = make_rng(seed, "trains")
    kb = KnowledgeBase()
    pos, neg = [], []

    const = {v: Const(v) for v in _CAR_SHAPES + _LOAD_SHAPES + _ROOFS + (0, 1, 2, 3)}
    for t in range(n_trains):
        train = Const(f"t{t}")
        n_cars = rng.randint(2, 5)
        eastbound = False
        # functor -> rows, in the order each functor first appears (the
        # order the KB creates its stores in).
        rows: defaultdict[str, list] = defaultdict(list)
        for c in range(n_cars):
            car = Const(f"c{t}_{c}")
            rows["has_car"].append((train, car))
            shape = rng.choice(_CAR_SHAPES)
            length = rng.choice(("short", "long"))
            roof = rng.choice(_ROOFS)
            wheels = rng.choice((2, 3))
            load_shape = rng.choice(_LOAD_SHAPES)
            load_count = rng.randint(0, 3)
            rows["shape"].append((car, const[shape]))
            rows[length].append((car,))
            rows["roof"].append((car, const[roof]))
            rows["open_car" if roof == "none" else "closed"].append((car,))
            rows["wheels"].append((car, const[wheels]))
            rows["load"].append((car, const[load_shape], const[load_count]))
            if length == "short" and roof != "none":
                eastbound = True
        for functor, functor_rows in rows.items():
            kb.add_facts(functor, functor_rows)
        if label_noise > 0 and rng.random() < label_noise:
            eastbound = not eastbound
        (pos if eastbound else neg).append(atom("eastbound", train))

    modes = ModeSet(
        [
            "modeh(1, eastbound(+train))",
            "modeb(*, has_car(+train, -car))",
            "modeb(1, short(+car))",
            "modeb(1, long(+car))",
            "modeb(1, closed(+car))",
            "modeb(1, open_car(+car))",
            "modeb(1, shape(+car, #carshape))",
            "modeb(1, roof(+car, #rooftype))",
            "modeb(1, wheels(+car, #int))",
            "modeb(1, load(+car, #loadshape, #int))",
        ]
    )
    config = ILPConfig(
        max_clause_length=3,
        var_depth=2,
        recall=10,
        noise=max(0, int(label_noise * n_trains * 0.5)),
        min_pos=2,
        max_nodes=300,
        pipeline_width=10,
    )
    return Dataset(
        name="trains",
        kb=kb,
        pos=pos,
        neg=neg,
        modes=modes,
        config=config,
        target_description="eastbound(T) :- has_car(T, C), short(C), closed(C).",
    )
