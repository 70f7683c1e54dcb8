"""Sampled-coverage benchmark: exact search vs stratified-sample screening.

Drives the sequential MDIE covering loop by hand (seed -> bottom ->
``learn_rule`` -> kill) so the **search phase** — the only phase the
sampling mode touches — is timed in isolation: bottom-clause saturation
costs the same in both variants and would otherwise dilute the measured
speedup.

Two variants per dataset:

* ``exact``   — ``coverage_sampling=False``: every candidate clause is
  evaluated on the full example bitsets (the reference path);
* ``sampled`` — ``coverage_sampling=True``: candidates are screened on a
  stratified pos/neg sample with Hoeffding bounds; survivors (and every
  accepted clause) are re-evaluated exactly, and the run emits a
  :class:`~repro.ilp.sampling.CoverageCertificate` whose per-clause
  exact recheck must pass.

The report records per-dataset search wall/ops, theory sizes, the
certificate summary, and the search-phase speedup.  The ``check`` gate
asserts every certificate is exact-good; in non-smoke runs it also
asserts the carcinogenesis search-phase speedup is >= 1.5x.

Knobs:

* ``REPRO_SCALE``         — ``small`` (default) or ``paper``;
* ``REPRO_SEED``          — RNG seed (default 0);
* ``REPRO_BENCH_SMOKE=1`` — CI smoke mode: tiny example counts, no
  speedup gate (certificate exactness is always asserted).

Writes ``BENCH_sampled_coverage.json`` at the repo root.

Standalone: ``PYTHONPATH=src python benchmarks/bench_sampled_coverage.py``.
Under the bench suite it runs as an ordinary test.
"""

from __future__ import annotations

import os
import pathlib
import time

DATASETS = ("carcinogenesis", "mesh")
SCALE = os.environ.get("REPRO_SCALE", "small")
SEED = int(os.environ.get("REPRO_SEED", "0"))
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_PATH = ROOT / "BENCH_sampled_coverage.json"


def _dataset_kwargs(name: str) -> dict:
    if SMOKE:
        if name == "carcinogenesis":
            return dict(seed=SEED, n_pos=24, n_neg=20)
        return dict(seed=SEED, n_pos=24, n_neg=24)
    return dict(seed=SEED, scale=SCALE)


def run_variant(name: str, sampling: bool) -> dict:
    """One covering run; only ``learn_rule`` calls are timed/op-counted."""
    from repro.datasets import make_dataset
    from repro.ilp.bottom import SaturationError, build_bottom_cached
    from repro.ilp.mdie import select_seed
    from repro.ilp.sampling import CoverageCertificate, clause_certificate, sampler_for
    from repro.ilp.search import learn_rule
    from repro.ilp.store import ExampleStore
    from repro.logic.clause import Clause, Theory
    from repro.logic.engine import Engine
    from repro.util.rng import make_rng

    ds = make_dataset(name, **_dataset_kwargs(name))
    config = ds.config.replace(coverage_sampling=sampling)
    engine = Engine(ds.kb, config.engine_budget(), kernel=config.coverage_kernel)
    store = ExampleStore(ds.pos, ds.neg, reorder_body=config.reorder_body)
    rng = make_rng(SEED, "mdie")
    sampler = None
    if sampling:
        sampler = sampler_for(config, store.n_pos, store.n_neg, SEED, labels=("mdie",))
    theory = Theory()
    cert_entries: list = []
    failed_mask = 0
    epochs = 0
    search_s = 0.0
    search_ops = 0
    while True:
        candidates = store.alive & ~failed_mask
        i = select_seed(store, candidates, rng, config.select_seed_randomly)
        if i is None:
            break
        example = store.pos[i]
        try:
            bottom = build_bottom_cached(example, engine, ds.modes, config)
        except SaturationError:
            failed_mask |= 1 << i
            continue
        ops0 = engine.total_ops
        t0 = time.perf_counter()
        result = learn_rule(
            engine, bottom, store, config, seeds=None, width=1, sampler=sampler
        )
        search_s += time.perf_counter() - t0
        search_ops += engine.total_ops - ops0
        epochs += 1
        best = result.best
        if best is None:
            if config.on_uncoverable == "memorize":
                theory.add(Clause(example, ()))
                store.kill(1 << i)
            else:
                failed_mask |= 1 << i
            continue
        theory.add(best.clause)
        if sampler is not None:
            cert_entries.append(
                clause_certificate(
                    best.clause, best.sampled, best.stats.pos, best.stats.neg, config
                )
            )
        store.kill(best.stats.pos_bits)
    out = {
        "search_s": round(search_s, 4),
        "search_ops": search_ops,
        "epochs": epochs,
        "uncovered": store.remaining,
        "theory_size": len(theory),
        "theory": sorted(str(c) for c in theory),
        "n_pos": ds.n_pos,
        "n_neg": ds.n_neg,
    }
    if sampler is not None:
        cert = CoverageCertificate(
            seed=SEED,
            fraction=config.sample_fraction,
            delta=config.sample_delta,
            min_stratum=config.sample_min,
            strata=sampler.strata(),
            entries=tuple(cert_entries),
        )
        out["certificate"] = cert.to_dict()
        out["certificate_ok"] = cert.ok
        out["certificate_summary"] = cert.summary()
    return out


def run_benchmark() -> dict:
    report: dict = {"scale": SCALE, "seed": SEED, "smoke": SMOKE, "datasets": {}}
    for name in DATASETS:
        exact = run_variant(name, sampling=False)
        sampled = run_variant(name, sampling=True)
        speedup = (
            round(exact["search_s"] / sampled["search_s"], 3)
            if sampled["search_s"]
            else float("inf")
        )
        ops_ratio = (
            round(exact["search_ops"] / sampled["search_ops"], 3)
            if sampled["search_ops"]
            else float("inf")
        )
        report["datasets"][name] = {
            "exact": exact,
            "sampled": sampled,
            "speedup_search_wall": speedup,
            "speedup_search_ops": ops_ratio,
        }
    return report


def render(report: dict) -> str:
    lines = [
        f"Sampled coverage — search phase only (scale {report['scale']}, "
        f"seed {report['seed']}{', smoke' if report['smoke'] else ''})",
        f"{'dataset':>16}  {'variant':>8}  {'search s':>9}  {'search ops':>12}  "
        f"{'clauses':>7}  {'cert':>5}",
    ]
    for name, d in report["datasets"].items():
        for variant in ("exact", "sampled"):
            r = d[variant]
            cert = "-" if variant == "exact" else ("ok" if r["certificate_ok"] else "FAIL")
            lines.append(
                f"{name:>16}  {variant:>8}  {r['search_s']:>9.3f}  "
                f"{r['search_ops']:>12}  {r['theory_size']:>7}  {cert:>5}"
            )
        lines.append(
            f"{name:>16}  speedup: {d['speedup_search_wall']:.2f}x wall, "
            f"{d['speedup_search_ops']:.2f}x engine ops"
        )
    return "\n".join(lines)


def write_report(report: dict, duration_s: float) -> pathlib.Path:
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    from bench_meta import write_bench_json

    return write_bench_json(OUT_PATH, report, SMOKE, duration_s=duration_s)


def check(report: dict) -> None:
    for name, d in report["datasets"].items():
        assert d["sampled"]["certificate_ok"], (
            f"{name}: a sampled-run certificate entry failed its exact recheck"
        )
    if not SMOKE and SCALE == "paper":
        sp = report["datasets"]["carcinogenesis"]["speedup_search_wall"]
        assert sp >= 1.5, f"carcinogenesis search-phase speedup below 1.5x: {sp}"


def test_sampled_coverage():
    t0 = time.perf_counter()
    report = run_benchmark()
    duration = time.perf_counter() - t0
    print("\n" + render(report) + "\n")
    write_report(report, duration)
    check(report)


if __name__ == "__main__":
    t0 = time.perf_counter()
    report = run_benchmark()
    duration = time.perf_counter() - t0
    print(render(report))
    path = write_report(report, duration)
    print(f"wrote {path}")
    check(report)
