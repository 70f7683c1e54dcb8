"""Unit + property tests for network/cost models and message accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.costmodel import OpsCostModel
from repro.cluster.message import Message, Tag, payload_nbytes
from repro.cluster.network import FAST_ETHERNET, GIGABIT, INFINIBAND_LIKE, NetworkModel
from repro.logic.parser import parse_clause
from repro.parallel import wire
from repro.parallel.messages import EvaluateRequest, EvaluateResult, RuleStats


def rules(n, round=None):
    return EvaluateRequest(
        rules=tuple(parse_clause(f"p(X) :- q{i}(X).") for i in range(n)), round=round
    )


class TestNetworkModel:
    def test_sender_busy_time_monotone(self):
        n = FAST_ETHERNET
        assert n.sender_busy_time(1000) < n.sender_busy_time(100_000)

    def test_zero_bytes_costs_overhead(self):
        n = NetworkModel(latency_s=0.1, bandwidth_bps=1e6, send_overhead_s=0.01)
        assert n.sender_busy_time(0) == 0.01

    def test_arrival_delay_is_latency(self):
        assert FAST_ETHERNET.arrival_delay() == FAST_ETHERNET.latency_s

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkModel(latency_s=-1)
        with pytest.raises(ValueError):
            NetworkModel(bandwidth_bps=0)

    def test_preset_ordering(self):
        # faster fabrics have lower latency and higher bandwidth
        assert INFINIBAND_LIKE.latency_s < GIGABIT.latency_s < FAST_ETHERNET.latency_s
        assert INFINIBAND_LIKE.bandwidth_bps > GIGABIT.bandwidth_bps > FAST_ETHERNET.bandwidth_bps


class TestCostModel:
    def test_linear(self):
        cm = OpsCostModel(sec_per_op=2.0)
        assert cm.seconds_for_ops(3) == 6.0

    def test_validation(self):
        with pytest.raises(ValueError):
            OpsCostModel(sec_per_op=0)

    @given(st.integers(0, 10**9))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative(self, ops):
        assert OpsCostModel().seconds_for_ops(ops) >= 0


class TestPayloadSize:
    def test_bigger_payload_bigger_size(self):
        assert payload_nbytes(rules(100)) > payload_nbytes(rules(1))

    def test_deterministic(self):
        p = rules(2, round=3)
        assert payload_nbytes(p) == payload_nbytes(p)

    @given(st.lists(st.integers(0, 255), max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_size_is_wire_bytes(self, xs):
        p = EvaluateResult(rank=1, stats=tuple(RuleStats(pos=x, neg=x) for x in xs))
        assert payload_nbytes(p) == len(wire.encode_always(p)) > 0

    def test_unregistered_payload_refused(self):
        with pytest.raises(wire.WireError, match="no wire codec for payload type builtins.list"):
            payload_nbytes([1])


class TestMessage:
    def test_fields(self):
        m = Message(src=0, dst=1, tag=Tag.RULES, payload="x", nbytes=10, send_time=1.0, arrival_time=2.0, seq=1)
        assert m.arrival_time > m.send_time
        assert "rules" in str(m)

    def test_tags_are_distinct(self):
        tags = [getattr(Tag, a) for a in dir(Tag) if not a.startswith("_")]
        assert len(tags) == len(set(tags))
