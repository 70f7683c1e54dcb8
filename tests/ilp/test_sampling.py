"""Unit tests for the sampled-coverage layer: samplers, bounds,
certificates, and the sequential sampled run.

The property-based parity suite lives in ``test_sampling_properties.py``;
this module pins the concrete behaviours those properties build on.
"""

import pytest

from repro.ilp.config import SAMPLING_ENV, ILPConfig
from repro.ilp.coverage import popcount
from repro.ilp.heuristics import is_good
from repro.ilp.mdie import mdie
from repro.ilp.sampling import (
    ClauseCertificate,
    CoverageCertificate,
    SampledStats,
    certificate_from_bytes,
    certificate_to_bytes,
    clause_certificate,
    hoeffding_eps,
    make_sampler,
    sampler_for,
    stratum_size,
)
from repro.ilp.store import ExampleStore
from repro.ilp.theory import accuracy
from repro.logic.engine import Engine
from repro.logic.parser import parse_clause


def _sampler(n_pos=10, n_neg=8, seed=0, fraction=0.5, min_stratum=2, delta=0.05):
    return make_sampler(
        n_pos, n_neg, seed, fraction=fraction, delta=delta, min_stratum=min_stratum
    )


class TestStratumSize:
    def test_fraction_of_stratum(self):
        assert stratum_size(100, 0.25, 4) == 25

    def test_min_stratum_floor(self):
        assert stratum_size(100, 0.01, 16) == 16

    def test_never_exceeds_stratum(self):
        assert stratum_size(10, 0.25, 16) == 10
        assert stratum_size(3, 1.0, 1) == 3

    def test_empty_stratum(self):
        assert stratum_size(0, 0.5, 16) == 0


class TestHoeffding:
    def test_shrinks_with_n(self):
        assert hoeffding_eps(400, 0.05) < hoeffding_eps(100, 0.05) < hoeffding_eps(25, 0.05)

    def test_empty_sample_is_vacuous(self):
        assert hoeffding_eps(0, 0.05) == 1.0

    def test_tighter_delta_wider_radius(self):
        assert hoeffding_eps(100, 0.01) > hoeffding_eps(100, 0.10)


class TestSampler:
    def test_deterministic(self):
        a, b = _sampler(seed=7), _sampler(seed=7)
        assert a == b

    def test_mask_popcounts_match_sizes(self):
        s = _sampler()
        assert popcount(s.pos_mask) == s.pos_n == stratum_size(10, 0.5, 2)
        assert popcount(s.neg_mask) == s.neg_n == stratum_size(8, 0.5, 2)

    def test_masks_within_range(self):
        s = _sampler()
        assert s.pos_mask < (1 << s.n_pos)
        assert s.neg_mask < (1 << s.n_neg)

    def test_labels_extend_derivation_path(self):
        base = _sampler(n_pos=200, n_neg=200, fraction=0.25)
        shard = make_sampler(
            200, 200, 0, fraction=0.25, delta=0.05, min_stratum=2, labels=("worker", 1)
        )
        assert (base.pos_mask, base.neg_mask) != (shard.pos_mask, shard.neg_mask)

    def test_full_fraction_selects_everything(self):
        s = _sampler(fraction=1.0)
        assert s.pos_mask == (1 << 10) - 1
        assert s.neg_mask == (1 << 8) - 1

    def test_strata_rows(self):
        s = _sampler()
        assert s.strata() == (("pos", s.pos_n, 10), ("neg", s.neg_n, 8))


class TestConfigGate:
    def test_default_off(self, monkeypatch):
        monkeypatch.delenv(SAMPLING_ENV, raising=False)
        assert not ILPConfig().sampling_enabled()

    def test_env_enables(self, monkeypatch):
        monkeypatch.setenv(SAMPLING_ENV, "1")
        assert ILPConfig().sampling_enabled()

    def test_explicit_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv(SAMPLING_ENV, "1")
        assert not ILPConfig(coverage_sampling=False).sampling_enabled()
        monkeypatch.delenv(SAMPLING_ENV, raising=False)
        assert ILPConfig(coverage_sampling=True).sampling_enabled()

    def test_env_does_not_change_config_sig(self, monkeypatch):
        monkeypatch.delenv(SAMPLING_ENV, raising=False)
        off = ILPConfig().signature()
        monkeypatch.setenv(SAMPLING_ENV, "1")
        assert ILPConfig().signature() == off

    def test_sampler_for_none_when_off(self):
        config = ILPConfig(coverage_sampling=False)
        assert sampler_for(config, 10, 10, 0) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            ILPConfig(sample_fraction=0.0)
        with pytest.raises(ValueError):
            ILPConfig(sample_fraction=1.5)
        with pytest.raises(ValueError):
            ILPConfig(sample_min=0)
        with pytest.raises(ValueError):
            ILPConfig(sample_delta=1.0)


class TestSampledStats:
    def test_merged_sums_fields(self):
        a = SampledStats(3, 5, 20, 1, 4, 10)
        b = SampledStats(2, 5, 20, 0, 4, 10)
        m = a.merged(b)
        assert m == SampledStats(5, 10, 40, 1, 8, 20)

    def test_estimates_scale(self):
        s = SampledStats(pos_hits=3, pos_n=5, pos_total=20, neg_hits=1, neg_n=4, neg_total=10)
        assert s.est_pos() == 12
        assert s.est_neg() == round(1 / 4 * 10)

    def test_bounds_exact_when_sample_is_stratum(self):
        s = SampledStats(pos_hits=7, pos_n=20, pos_total=20, neg_hits=2, neg_n=10, neg_total=10)
        assert s.pos_upper(0.05) == 7
        assert s.neg_lower(0.05) == 2

    def test_bounds_bracket_estimate(self):
        s = SampledStats(pos_hits=3, pos_n=8, pos_total=40, neg_hits=2, neg_n=8, neg_total=30)
        assert s.pos_upper(0.05) >= s.est_pos()
        assert s.neg_lower(0.05) <= s.est_neg()
        assert 0 <= s.pos_upper(0.05) <= 40
        assert 0 <= s.neg_lower(0.05) <= 30

    def test_maybe_good_full_sample_equals_is_good(self):
        config = ILPConfig(min_pos=3, noise=1)
        good = SampledStats(pos_hits=5, pos_n=10, pos_total=10, neg_hits=1, neg_n=6, neg_total=6)
        bad_pos = SampledStats(pos_hits=2, pos_n=10, pos_total=10, neg_hits=0, neg_n=6, neg_total=6)
        bad_neg = SampledStats(pos_hits=5, pos_n=10, pos_total=10, neg_hits=2, neg_n=6, neg_total=6)
        assert good.maybe_good(config)
        assert not bad_pos.maybe_good(config)
        assert not bad_neg.maybe_good(config)

    def test_screen_is_optimistic_on_partial_samples(self):
        # 0/2 positive hits in a sample of 2-of-40 cannot *confidently*
        # rule the rule out — the upper bound stays above min_pos.
        config = ILPConfig(min_pos=2, noise=0)
        s = SampledStats(pos_hits=0, pos_n=2, pos_total=40, neg_hits=0, neg_n=2, neg_total=2)
        assert s.maybe_good(config)


class TestEvaluateSampled:
    def test_hits_match_exact_bits_restricted_to_sample(
        self, family_kb, family_pos, family_neg, family_config
    ):
        engine = Engine(family_kb, family_config.engine_budget())
        store = ExampleStore(family_pos, family_neg)
        sampler = make_sampler(
            store.n_pos, store.n_neg, 3, fraction=0.5, delta=0.05, min_stratum=2
        )
        rule = parse_clause("daughter(A, B) :- parent(B, A), female(A).")
        exact = store.evaluate(engine, rule)
        ss = store.evaluate_sampled(engine, rule, sampler)
        assert ss.pos_hits == popcount(exact.pos_bits & sampler.pos_mask & store.alive)
        assert ss.neg_hits == popcount(exact.neg_bits & sampler.neg_mask)
        assert ss.pos_total == store.remaining
        assert ss.neg_total == store.n_neg

    def test_sample_cache_cleared_with_exact(self, family_kb, family_pos, family_neg, family_config):
        engine = Engine(family_kb, family_config.engine_budget())
        store = ExampleStore(family_pos, family_neg)
        sampler = make_sampler(store.n_pos, store.n_neg, 0, fraction=1.0, delta=0.05, min_stratum=1)
        rule = parse_clause("daughter(A, B) :- parent(B, A).")
        store.evaluate_sampled(engine, rule, sampler)
        assert store._sample_cache
        store.clear_cache()
        assert not store._sample_cache


class TestCertificates:
    ENTRY = ClauseCertificate(
        clause="daughter(A, B) :- parent(B, A), female(A).",
        est_pos=4,
        est_neg=0,
        sample_pos_n=3,
        sample_neg_n=2,
        exact_pos=5,
        exact_neg=0,
        exact_good=True,
    )
    CERT = CoverageCertificate(
        seed=7,
        fraction=0.25,
        delta=0.05,
        min_stratum=16,
        strata=(("pos", 3, 5), ("neg", 2, 4)),
        entries=(ENTRY, ClauseCertificate("p.", 0, 0, 0, 0, 1, 0, True, deferred=True)),
    )

    def test_ok_requires_every_recheck(self):
        assert self.CERT.ok
        failed = self.CERT.replace(
            entries=self.CERT.entries + (ClauseCertificate("q.", 1, 1, 1, 1, 0, 9, False),)
        )
        assert not failed.ok

    def test_summary_mentions_deferred_and_outcome(self):
        s = self.CERT.summary()
        assert "2 accepted clauses" in s and "ok" in s and "1 deferred" in s

    def test_dict_roundtrip(self):
        assert CoverageCertificate.from_dict(self.CERT.to_dict()) == self.CERT

    def test_wire_roundtrip(self):
        data = certificate_to_bytes(self.CERT)
        assert certificate_from_bytes(data) == self.CERT

    def test_foreign_payload_rejected(self):
        from repro.parallel.messages import Stop
        from repro.parallel.wire import WireError, encode_always

        with pytest.raises(WireError):
            certificate_from_bytes(encode_always(Stop()))

    def test_truncated_payload_rejected(self):
        data = certificate_to_bytes(self.CERT)
        from repro.parallel.wire import WireError

        with pytest.raises((WireError, ValueError)):
            certificate_from_bytes(data[: len(data) // 2])

    def test_clause_certificate_deferred_when_no_screen_ran(self):
        config = ILPConfig(min_pos=1, noise=0)
        ent = clause_certificate("p.", None, 3, 0, config)
        assert ent.deferred and ent.exact_good
        assert ent.sample_pos_n == 0


class TestSampledMdie:
    def test_certificate_issued_and_ok(
        self, family_kb, family_pos, family_neg, family_modes, family_config
    ):
        config = family_config.replace(
            coverage_sampling=True, sample_fraction=0.5, sample_min=2
        )
        res = mdie(family_kb, family_pos, family_neg, family_modes, config, seed=1)
        assert res.certificate is not None
        assert res.certificate.ok
        assert res.certificate.seed == 1
        assert len(res.certificate.entries) == len(res.theory)
        for entry in res.certificate.entries:
            assert is_good(entry.exact_pos, entry.exact_neg, config)
        eng = Engine(family_kb, config.engine_budget())
        assert accuracy(eng, res.theory, family_pos, family_neg) == 100.0

    def test_reference_path_has_no_certificate(
        self, family_kb, family_pos, family_neg, family_modes, family_config
    ):
        res = mdie(family_kb, family_pos, family_neg, family_modes, family_config, seed=1)
        assert res.certificate is None
