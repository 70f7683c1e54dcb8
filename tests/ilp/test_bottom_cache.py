"""Saturation cache: hits return the cached bottom, replay the recorded
op cost, and invalidate on KB mutation / bias change."""

import dataclasses
import sys
import threading
import weakref

import pytest

from repro.ilp import bottom
from repro.ilp.bottom import SaturationError, build_bottom, build_bottom_cached
from repro.ilp.config import ILPConfig
from repro.ilp.mdie import mdie
from repro.ilp.modes import ModeSet
from repro.logic.engine import Engine
from repro.logic.knowledge import KnowledgeBase
from repro.logic.parser import parse_term


@pytest.fixture
def kb():
    kb = KnowledgeBase()
    kb.add_program("q(a, b). q(b, c). r(b). r(c).")
    return kb


@pytest.fixture
def modes():
    return ModeSet(["modeh(1, p(+t))", "modeb(*, q(+t, -t))", "modeb(1, r(+t))"])


CONFIG = ILPConfig(min_pos=1, var_depth=2)
EX = parse_term("p(a)")


class TestCache:
    def test_hit_returns_same_object(self, kb, modes):
        e = Engine(kb, CONFIG.engine_budget())
        b1 = build_bottom_cached(EX, e, modes, CONFIG)
        b2 = build_bottom_cached(EX, e, modes, CONFIG)
        assert b2 is b1
        assert str(b1) == str(build_bottom(EX, e, modes, CONFIG))

    def test_hit_replays_op_cost(self, kb, modes):
        e = Engine(kb, CONFIG.engine_budget())
        ops0 = e.total_ops
        build_bottom_cached(EX, e, modes, CONFIG)
        first = e.total_ops - ops0
        assert first > 0
        ops1 = e.total_ops
        build_bottom_cached(EX, e, modes, CONFIG)
        # the virtual cost model is unchanged by caching
        assert e.total_ops - ops1 == first

    def test_shared_across_engines_same_kb(self, kb, modes):
        e1 = Engine(kb, CONFIG.engine_budget())
        e2 = Engine(kb, CONFIG.engine_budget())
        assert build_bottom_cached(EX, e1, modes, CONFIG) is build_bottom_cached(
            EX, e2, modes, CONFIG
        )

    def test_kb_mutation_invalidates(self, kb, modes):
        e = Engine(kb, CONFIG.engine_budget())
        b1 = build_bottom_cached(EX, e, modes, CONFIG)
        kb.add_program("q(a, z). r(z).")
        b2 = build_bottom_cached(EX, e, modes, CONFIG)
        assert b2 is not b1
        assert len(b2.literals) > len(b1.literals)

    def test_bias_key_sensitivity(self, kb, modes):
        e = Engine(kb, CONFIG.engine_budget())
        b1 = build_bottom_cached(EX, e, modes, CONFIG)
        b2 = build_bottom_cached(EX, e, modes, dataclasses.replace(CONFIG, var_depth=1))
        assert b2 is not b1

    def test_saturation_error_cached(self, kb, modes):
        e = Engine(kb, CONFIG.engine_budget())
        bad = parse_term("unknown(a)")
        with pytest.raises(SaturationError):
            build_bottom_cached(bad, e, modes, CONFIG)
        with pytest.raises(SaturationError):
            build_bottom_cached(bad, e, modes, CONFIG)


class _MeetAfterLookup(weakref.WeakKeyDictionary):
    """A cache whose lookups return in pairs, once two threads have looked
    (until the barrier is aborted): both threads find the KB missing."""

    def __init__(self):
        super().__init__()
        self.arrived = threading.Barrier(2, timeout=30)

    def get(self, key, default=None):
        found = super().get(key, default)
        if not self.arrived.broken:
            self.arrived.wait()
        return found


def test_threads_saturating_on_one_kb_install_one_map(kb, modes, monkeypatch):
    """Two threads miss on a KB at once; ``setdefault`` keeps the map that was
    installed first at both levels, so neither thread's entry is lost."""
    cache = _MeetAfterLookup()
    monkeypatch.setattr(bottom, "_BOTTOM_CACHE", cache)
    examples = [EX, parse_term("p(b)")]
    bottoms = [None, None]

    def saturate(i):
        engine = Engine(kb, CONFIG.engine_budget())
        bottoms[i] = build_bottom_cached(examples[i], engine, modes, CONFIG)

    threads = [threading.Thread(target=saturate, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    cache.arrived.abort()
    assert len(cache) == 1 and len(cache[kb]) == 1
    assert len(cache[kb][modes]) == 2
    for example, got in zip(examples, bottoms):
        engine = Engine(kb, CONFIG.engine_budget())
        assert str(got) == str(build_bottom(example, engine, modes, CONFIG))
        assert build_bottom_cached(example, engine, modes, CONFIG) is got


class TestMDIEParity:
    def test_same_theory_and_log_with_and_without_cache(
        self, family_kb, family_pos, family_neg, family_modes, family_config, monkeypatch
    ):
        args = (family_kb, family_pos, family_neg, family_modes, family_config)
        a = mdie(*args, seed=0)
        # without: the learner saturates through the uncached reference
        monkeypatch.setattr(sys.modules["repro.ilp.mdie"], "build_bottom_cached", build_bottom)
        b = mdie(*args, seed=0)
        assert [str(c) for c in a.theory] == [str(c) for c in b.theory]
        assert a.epochs == b.epochs and a.uncovered == b.uncovered
        assert [(str(s), str(r), c) for s, r, c, _ in a.log] == [
            (str(s), str(r), c) for s, r, c, _ in b.log
        ]

    def test_repeated_run_is_deterministic(self, family_kb, family_pos, family_neg, family_modes, family_config):
        a = mdie(family_kb, family_pos, family_neg, family_modes, family_config, seed=0)
        b = mdie(family_kb, family_pos, family_neg, family_modes, family_config, seed=0)
        assert [str(c) for c in a.theory] == [str(c) for c in b.theory]
        # op accounting identical too: cache hits replay recorded cost
        assert a.ops == b.ops
