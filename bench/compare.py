#!/usr/bin/env python3
"""Compare two reports of ``bench/run.py --out``: A is the base, B the
candidate (or a second run of the same commit).

    python3 bench/compare.py A.json B.json

One row per workload x end-to-end metric: both values, how much worse B
is as a share of A (negative = better), the metric's bound from
``BENCHMARK.json`` and a verdict:

``ok``          B is no worse than A by more than the bound;
``unresolved``  the values differ by more than the bound, but the
                quartile ranges of the two runs' samples still allow a
                difference inside it — run more before believing it;
``worse``       even B's best quartile against A's worst is beyond the bound.

Exits 1 when any row is ``worse``, 0 otherwise.
"""

from __future__ import annotations

import sys

import harness


def worsening(base: float, cand: float, better: str) -> float:
    """How much worse ``cand`` is than ``base``, as a share of ``base``."""
    delta = (cand - base) / base
    return delta if better == "lower" else -delta


def compare(a: dict, b: dict, spec: dict) -> list:
    rows = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        sa, sb = a["workloads"][workload]["samples"], b["workloads"][workload]["samples"]
        for metric in spec["end_to_end"]:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            if name not in sa or name not in sb:
                continue
            ma, mb = sa[name], sb[name]
            worse = worsening(ma["level"], mb["level"], better)
            # The most favourable reading the quartiles allow: B's good
            # quartile against A's bad one.
            good_b, bad_a = ("q1", "q3") if better == "lower" else ("q3", "q1")
            least = worsening(ma[bad_a], mb[good_b], better)
            verdict = "ok" if worse <= bound else "unresolved" if least <= bound else "worse"
            rows.append((workload, name, ma["level"], mb["level"], worse, bound, verdict))
    return rows


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (harness.load_json(path) for path in argv)
    spec = harness.load_json(harness.ROOT / "BENCHMARK.json")
    rows = compare(a, b, spec)
    print(f"{'workload':16s} {'metric':16s} {'A':>12s} {'B':>12s} {'worse by':>9s} {'bound':>6s}  verdict")
    for workload, name, ma, mb, worse, bound, verdict in rows:
        print(f"{workload:16s} {name:16s} {ma:12.4f} {mb:12.4f} {worse:+9.1%} {bound:6.0%}  {verdict}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
