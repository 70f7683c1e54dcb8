"""Unit-level tests of worker/master behaviour observed through runs."""

import pytest

from repro.cluster.message import Tag, payload_nbytes
from repro.parallel.master import P2Master
from repro.parallel.messages import LoadExamples
from repro.parallel.p2mdie import SharedProblem, run_p2mdie
from repro.parallel.partition import partition_examples
from repro.parallel.worker import stage_logical
from repro.util.rng import make_rng


class TestSharedProblem:
    def test_worker_problem_by_rank(self, kb, pos, neg, modes, config):
        parts = partition_examples(pos, neg, 3, make_rng(0))
        shared = SharedProblem(kb, parts, modes, config)
        for rank in (1, 2, 3):
            wp = shared.worker_problem(rank)
            assert wp.pos == parts[rank - 1].pos
            assert wp.kb is kb
            assert wp.config is config

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_worker_problems_split_every_example_once(self, kb, pos, neg, modes, config, p):
        shared = SharedProblem.partitioned(kb, pos, neg, modes, config, p=p, seed=3)
        problems = [shared.worker_problem(rank) for rank in range(1, p + 1)]
        assert sorted(map(str, (e for wp in problems for e in wp.pos))) == sorted(map(str, pos))
        assert sorted(map(str, (e for wp in problems for e in wp.neg))) == sorted(map(str, neg))
        assert all(wp.kb is kb and wp.modes is modes for wp in problems)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_load_examples_ships_only_partition_ids(self, kb, pos, neg, modes, config, p):
        """§4.1: workers read their subsets from the shared filesystem, so
        the startup traffic is one id-only message per worker."""
        res = run_p2mdie(kb, pos, neg, modes, config, p=p, seed=3, max_epochs=1)
        ids_only = sum(payload_nbytes(LoadExamples(partition_id=r)) for r in range(1, p + 1))
        assert res.comm.bytes_by_tag[Tag.LOAD_EXAMPLES] == ids_only

    @pytest.mark.parametrize("p", [2, 3])
    def test_load_examples_ships_only_partition_ids_on_local_processes(
        self, kb, pos, neg, modes, config, p
    ):
        from repro.backend import LocalProcessBackend

        res = run_p2mdie(
            kb, pos, neg, modes, config, p=p, seed=3, max_epochs=1,
            backend=LocalProcessBackend(),
        )
        ids_only = sum(payload_nbytes(LoadExamples(partition_id=r)) for r in range(1, p + 1))
        assert res.comm.bytes_by_tag[Tag.LOAD_EXAMPLES] == ids_only


class TestWorkerRing:
    """The ring ``1 -> 2 -> ... -> p -> 1`` is ``stage_logical``: stage
    ``step`` of the pipeline rooted at ``origin`` is served by that logical
    worker, wherever it is hosted."""

    def test_next_worker_wraps(self):
        # the successor of rank r is the owner of stage 2 of r's pipeline
        assert stage_logical(1, 2, 3) == 2
        assert stage_logical(3, 2, 3) == 1
        # a full lap visits every worker once, starting at the origin
        assert [stage_logical(2, step, 3) for step in (1, 2, 3)] == [2, 3, 1]

    def test_single_worker_ring_is_self(self):
        assert stage_logical(1, 1, 1) == 1
        assert stage_logical(1, 2, 1) == 1


class TestPipelineFlow:
    def test_every_pipeline_visits_all_stages(self, kb, pos, neg, modes, config):
        """learn_rule' messages must number p*(p-1) per epoch: each of the p
        pipelines crosses p-1 inter-worker hops."""
        p = 3
        res = run_p2mdie(kb, pos, neg, modes, config, p=p, seed=3, max_epochs=1)
        # messages tagged learn_rule' in the first epoch
        # (bytes_by_tag counts all epochs; max_epochs=1 isolates one)
        assert res.comm.bytes_by_tag.get(Tag.LEARN_RULE, 0) > 0
        # p RULES messages reach the master
        assert res.comm.bytes_by_tag.get(Tag.RULES, 0) > 0

    def test_rules_bag_deduplicated(self, kb, pos, neg, modes, config):
        # every accepted clause is unique
        res = run_p2mdie(kb, pos, neg, modes, config, p=3, seed=3)
        accepted = [str(c) for log in res.epoch_logs for c in log.accepted]
        assert len(accepted) == len(set(accepted))

    def test_remaining_never_negative(self, kb, pos, neg, modes, config):
        res = run_p2mdie(kb, pos, neg, modes, config, p=4, seed=1)
        assert res.uncovered >= 0


class TestMessages:
    def test_master_width_defaults_to_config(self, config):
        m = P2Master(n_workers=2, total_pos=10, config=config)
        assert m.width == config.pipeline_width
        m2 = P2Master(n_workers=2, total_pos=10, config=config, width=None)
        assert m2.width is None
