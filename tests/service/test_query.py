"""QueryEngine: batched coverage must be bit-identical to one-shot eval."""

import os
import pathlib
import subprocess
import sys
import time

import pytest

from repro.ilp import coverage, predicts
from repro.ilp.coverage import coverage_eval, theory_covered_bits
from repro.logic import parse_term
from repro.service import QueryEngine, Service
from repro.service.query import PREPARED_CACHE_CAP

REPO = pathlib.Path(__file__).resolve().parents[2]


def fresh_engine(ds):
    return ds.config.make_engine(ds.kb)


@pytest.fixture
def published(registry, trains_theory):
    registry.publish(
        "trains-th",
        trains_theory.theory,
        config_sig=trains_theory.config_sig,
        provenance={"dataset": "trains", "seed": "0", "scale": "small"},
    )
    return registry


class TestBatchedParity:
    def test_batch_equals_oneshot_coverage_eval(self, published, trains, trains_theory):
        qe = QueryEngine(registry=published)
        examples = trains.pos + trains.neg
        result = qe.query("trains-th", examples)
        # One-shot ground truth: full-candidate coverage_eval per clause, OR-ed.
        expected = 0
        for clause in trains_theory.theory:
            bits, _ = coverage_eval(fresh_engine(trains), clause, examples)
            expected |= bits
        assert result.covered == expected
        assert result.n == len(examples)

    def test_batch_equals_per_example_predicts(self, published, trains, trains_theory):
        qe = QueryEngine(registry=published)
        examples = trains.pos + trains.neg
        decisions = qe.query("trains-th", examples).decisions()
        engine = fresh_engine(trains)
        assert decisions == [
            predicts(engine, trains_theory.theory, e) for e in examples
        ]

    def test_micro_batch_invariance(self, published, trains, monkeypatch):
        qe = QueryEngine(registry=published)
        examples = trains.pos + trains.neg
        full = qe.query("trains-th", examples)
        for micro in (1, 3, 7):
            monkeypatch.setattr(coverage, "_MICRO_BATCH", micro)
            assert qe.query("trains-th", examples).covered == full.covered

    def test_empty_batch(self, published):
        result = QueryEngine(registry=published).query("trains-th", [])
        assert result.covered == 0 and result.n == 0 and result.n_covered == 0


class TestPreparedCache:
    def test_prepare_once_reuse_after(self, published, trains):
        qe = QueryEngine(registry=published)
        qe.query("trains-th", trains.pos[:4])
        qe.query("trains-th", trains.pos[4:8])
        qe.query("trains-th", trains.neg)
        stats = qe.stats()
        assert stats["prepared_misses"] == 1
        assert stats["prepared_hits"] == 2
        assert stats["prepared_entries"] == 1
        assert stats["batches"] == 3

    def test_versions_prepare_separately(self, published, trains_theory, trains):
        published.publish(
            "trains-th", trains_theory.theory,
            provenance={"dataset": "trains", "seed": "0"},
        )
        qe = QueryEngine(registry=published)
        qe.query("trains-th", trains.pos[:2], version=1)
        qe.query("trains-th", trains.pos[:2], version=2)
        assert qe.stats()["prepared_entries"] == 2

    def test_least_recently_used_entries_go_past_the_cap(self, published, trains_theory, trains):
        for _ in range(19):
            published.publish(
                "trains-th", trains_theory.theory,
                provenance={"dataset": "trains", "seed": "0"},
            )
        qe = QueryEngine(registry=published)
        for v in range(1, 21):
            qe.query("trains-th", trains.pos[:2], version=v)
            assert qe.stats()["prepared_entries"] <= PREPARED_CACHE_CAP == 8
        stats = qe.stats()
        assert stats["prepared_entries"] == 8
        assert stats["prepared_misses"] == 20 and stats["batches"] == 20
        # v13 is the least recently used entry until it is read again:
        # then v1's miss evicts v14 instead, and v13 stays a hit.
        for v, hits in ((13, 1), (1, 1), (13, 2), (14, 2)):
            qe.query("trains-th", trains.pos[:2], version=v)
            assert qe.stats()["prepared_hits"] == hits, v
        assert qe.stats()["batches"] == 24

    def test_a_gc_in_another_process_leaves_removed_versions_refused(
        self, tmp_path, trains_theory, trains
    ):
        """The server holds no registry front end: a gc runs in another
        process (``repro registry gc``).  A query naming a version it
        removed is refused by the registry, cached entry or not, and the
        prepared cache stays within its cap."""
        root = tmp_path / "registry"
        latest = PREPARED_CACHE_CAP + 2
        svc = Service(slots=1, registry_dir=str(root))
        try:
            for _ in range(latest):
                svc.registry.publish(
                    "t", trains_theory.theory,
                    provenance={"dataset": "trains", "seed": "0", "scale": "small"},
                )
            past = time.time() - 60
            os.utime(root / "t", (past, past))  # settled: the listing is cached
            examples = [str(e) for e in trains.pos[:2]]
            for v in range(1, latest + 1):
                query = {"op": "query", "theory": "t", "version": v, "examples": examples}
                assert svc.handle(query)["ok"]
            assert svc.query_engine.stats()["prepared_entries"] == PREPARED_CACHE_CAP
            subprocess.run(
                [sys.executable, "-m", "repro", "registry", "--registry-dir", str(root),
                 "gc", "t", "--keep", "1"],
                env=dict(os.environ, PYTHONPATH=str(REPO / "src")), check=True,
                capture_output=True, timeout=60,
            )
            for v in range(1, latest):
                query = {"op": "query", "theory": "t", "version": v, "examples": examples}
                refused = svc.handle(query)
                assert not refused["ok"] and f"'t' has no version {v}" in refused["error"]
            assert svc.handle({"op": "query", "theory": "t", "examples": examples})["ok"]
            stats = svc.query_engine.stats()
            assert stats["prepared_entries"] <= PREPARED_CACHE_CAP
            assert stats["batches"] == latest + 1
        finally:
            svc.close()


class TestValidation:
    def test_non_ground_example_rejected(self, published):
        qe = QueryEngine(registry=published)
        with pytest.raises(ValueError, match="ground"):
            qe.query("trains-th", [parse_term("eastbound(X)")])

    def test_no_registry(self):
        with pytest.raises(ValueError, match="no registry"):
            QueryEngine().prepare("anything")

    def test_dataset_for_fails_like_prepare(self, registry, trains_theory):
        # Regression: dataset_for on a registry-less engine died with
        # AttributeError, and worded the missing-provenance case differently.
        with pytest.raises(ValueError, match="no registry"):
            QueryEngine().dataset_for("anything")
        registry.publish("orphan", trains_theory.theory)
        qe = QueryEngine(registry=registry)
        messages = []
        for call in (qe.prepare, qe.dataset_for):
            with pytest.raises(ValueError, match="dataset provenance") as err:
                call("orphan")
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_record_without_dataset_provenance(self, registry, trains_theory):
        registry.publish("orphan", trains_theory.theory)
        qe = QueryEngine(registry=registry)
        with pytest.raises(ValueError, match="dataset provenance"):
            qe.prepare("orphan")

    def test_prepare_theory_without_registry(self, trains, trains_theory):
        qe = QueryEngine()
        prepared = qe.prepare_theory(trains_theory.theory, trains.kb, trains.config)
        covered = theory_covered_bits(prepared.engine, tuple(prepared.theory), trains.pos)
        assert covered == (1 << len(trains.pos)) - 1


class TestShardedQuery:
    """``shards=k`` cuts a batch into k spans evaluated in sequence on the
    one prepared engine; deeper coverage in test_streaming.py."""

    @pytest.fixture
    def published(self, registry, trains_theory):
        registry.publish(
            "trains-th",
            trains_theory.theory,
            config_sig=trains_theory.config_sig,
            provenance={"dataset": "trains", "seed": "0", "scale": "small"},
        )
        return registry

    def test_result_records_shard_count(self, published, trains, drained):
        qe = QueryEngine(registry=published)
        examples = trains.pos + trains.neg
        assert qe.query("trains-th", examples).shards == 1
        assert drained(qe, "trains-th", examples, shards=4).shards == 4
        # More shards than examples collapses to one span per example.
        assert drained(qe, "trains-th", examples[:3], shards=50).shards == 3

    def test_sharded_equals_sequential(self, published, trains, drained):
        qe = QueryEngine(registry=published)
        examples = trains.pos + trains.neg
        seq = qe.query("trains-th", examples)
        shd = drained(qe, "trains-th", examples, shards=4)
        assert (shd.covered, shd.n) == (seq.covered, seq.n)

    def test_single_example_stays_sequential(self, published, trains, drained):
        qe = QueryEngine(registry=published)
        result = drained(qe, "trains-th", trains.pos[:1], shards=8)
        assert result.shards == 1
        # A plain one-span query is not counted as a stream.
        assert qe.query("trains-th", trains.pos[:1]).shards == 1
        assert qe.stats()["streams_started"] == 1
