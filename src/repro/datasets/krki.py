"""KRK-illegal: chess endgame position legality (extra dataset).

The classic King-Rook-King illegality task (Muggleton et al.) — not in the
paper's Table 1, but squarely in the "variety of other applications" its
future-work section names, and a staple of the ILP systems the paper
builds on.  A position (white king, white rook, black king) is *illegal*
iff, with white to move:

* the two kings are on adjacent or identical squares, or
* the rook shares a file or rank with the black king (it attacks the
  king; the simplification ignores the white king blocking), or
* two pieces occupy one square.

Background knowledge: piece positions per position id, plus coordinate
relations ``adj/2`` and ``eq/2`` over 0..7 — exactly the vocabulary the
target rules need.
"""

from __future__ import annotations

from repro.datasets.base import Dataset, register_dataset
from repro.ilp.config import ILPConfig
from repro.ilp.modes import ModeSet
from repro.logic.knowledge import KnowledgeBase
from repro.logic.terms import Const, atom
from repro.util.rng import make_rng

__all__ = ["make_krki"]


def _is_illegal(wkf, wkr, wrf, wrr, bkf, bkr) -> bool:
    if (wkf, wkr) == (bkf, bkr) or (wkf, wkr) == (wrf, wrr) or (wrf, wrr) == (bkf, bkr):
        return True
    if abs(wkf - bkf) <= 1 and abs(wkr - bkr) <= 1:
        return True
    if wrf == bkf or wrr == bkr:
        return True
    return False


@register_dataset("krki")
def make_krki(
    seed: int = 0,
    scale: str = "small",
    n_pos: int | None = None,
    n_neg: int | None = None,
    label_noise: float = 0.0,
) -> Dataset:
    """Generate a KRK-illegal problem (60+/60- small, 342+/324- 'paper')."""
    if n_pos is None or n_neg is None:
        n_pos, n_neg = (342, 324) if scale == "paper" else (60, 60)
    rng = make_rng(seed, "krki")
    kb = KnowledgeBase()

    # Coordinate background relations (shared by all positions).
    coord = [Const(i) for i in range(8)]
    kb.add_facts("adj", [(coord[a], coord[b]) for a in range(8) for b in range(8) if abs(a - b) <= 1])
    kb.add_facts("eq", [(c, c) for c in coord])

    pieces: dict[str, list] = {"wk": [], "wr": [], "bk": []}
    pos, neg = [], []
    pid = 0
    attempts = 0
    while (len(pos) < n_pos or len(neg) < n_neg) and attempts < 200 * (n_pos + n_neg):
        attempts += 1
        coords = [rng.randint(0, 7) for _ in range(6)]
        label = _is_illegal(*coords)
        if label_noise > 0 and rng.random() < label_noise:
            label = not label
        target, quota = (pos, n_pos) if label else (neg, n_neg)
        if len(target) >= quota:
            continue
        name = f"pos{pid}"
        pid += 1
        position = Const(name)
        wkf, wkr, wrf, wrr, bkf, bkr = coords
        pieces["wk"].append((position, coord[wkf], coord[wkr]))
        pieces["wr"].append((position, coord[wrf], coord[wrr]))
        pieces["bk"].append((position, coord[bkf], coord[bkr]))
        target.append(atom("illegal", name))
    if len(pos) < n_pos or len(neg) < n_neg:  # pragma: no cover - defensive
        raise RuntimeError("krki generator failed to meet quotas")
    for functor, rows in pieces.items():
        kb.add_facts(functor, rows)

    modes = ModeSet(
        [
            "modeh(1, illegal(+pos))",
            "modeb(1, wk(+pos, -coord, -coord))",
            "modeb(1, wr(+pos, -coord, -coord))",
            "modeb(1, bk(+pos, -coord, -coord))",
            "modeb(*, adj(+coord, +coord))",
            "modeb(*, eq(+coord, +coord))",
        ]
    )
    config = ILPConfig(
        max_clause_length=4,
        var_depth=2,
        recall=4,
        noise=max(0, round(label_noise * n_neg)),
        min_pos=2,
        max_nodes=500,
        max_bottom_literals=40,
        pipeline_width=10,
    )
    return Dataset(
        name="krki",
        kb=kb,
        pos=pos,
        neg=neg,
        modes=modes,
        config=config,
        target_description=(
            "illegal(P) :- wk(P,F1,R1), bk(P,F2,R2), adj(F1,F2), adj(R1,R2).  ;  "
            "illegal(P) :- wr(P,F,R), bk(P,F2,R2), eq(F,F2).  ;  "
            "illegal(P) :- wr(P,F,R), bk(P,F2,R2), eq(R,R2)."
        ),
    )
