"""Tests for cross-validation and the paired t-test machinery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.crossval import kfold
from repro.experiments.stats import mean_std, paired_ttest
from repro.logic.terms import atom


def _ex(n, pred="p"):
    return [atom(pred, i) for i in range(n)]


class TestKfold:
    def test_counts(self):
        folds = list(kfold(_ex(20), _ex(15, "n"), k=5, seed=0))
        assert len(folds) == 5
        for f in folds:
            assert len(f.train_pos) + len(f.test_pos) == 20
            assert len(f.train_neg) + len(f.test_neg) == 15

    def test_test_sets_partition_data(self):
        folds = list(kfold(_ex(20), _ex(15, "n"), k=5, seed=0))
        all_test_pos = [str(e) for f in folds for e in f.test_pos]
        assert sorted(all_test_pos) == sorted(str(e) for e in _ex(20))
        assert len(all_test_pos) == len(set(all_test_pos))

    def test_train_test_disjoint(self):
        for f in kfold(_ex(20), _ex(15, "n"), k=5, seed=0):
            assert not set(map(str, f.train_pos)) & set(map(str, f.test_pos))
            assert not set(map(str, f.train_neg)) & set(map(str, f.test_neg))

    def test_stratified_balance(self):
        folds = list(kfold(_ex(20), _ex(10, "n"), k=5, seed=0))
        for f in folds:
            assert len(f.test_pos) == 4
            assert len(f.test_neg) == 2

    def test_deterministic(self):
        a = [f.test_pos for f in kfold(_ex(20), _ex(10, "n"), k=5, seed=7)]
        b = [f.test_pos for f in kfold(_ex(20), _ex(10, "n"), k=5, seed=7)]
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            list(kfold(_ex(20), _ex(10, "n"), k=1))
        with pytest.raises(ValueError):
            list(kfold(_ex(3), _ex(10, "n"), k=5))

    @given(st.integers(5, 40), st.integers(5, 40), st.integers(2, 5), st.integers(0, 50))
    @settings(max_examples=50, deadline=None)
    def test_partition_property(self, npos, nneg, k, seed):
        folds = list(kfold(_ex(npos), _ex(nneg, "n"), k=k, seed=seed))
        sizes = [len(f.test_pos) for f in folds]
        assert sum(sizes) == npos
        assert max(sizes) - min(sizes) <= 1


class TestMeanStd:
    def test_basic(self):
        m, s = mean_std([2.0, 4.0, 4.0, 4.0, 6.0])
        assert m == 4.0
        assert s == pytest.approx(1.4142, abs=1e-3)

    def test_single_value(self):
        assert mean_std([5.0]) == (5.0, 0.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean_std([])


class TestPairedTtest:
    def test_clear_difference_significant(self):
        r = paired_ttest([60, 61, 59, 60, 61], [70, 71, 69, 70, 71])
        assert r.significant and r.improved
        assert r.star == "*"

    def test_identical_not_significant(self):
        r = paired_ttest([60.0] * 5, [60.0] * 5)
        assert not r.significant
        assert r.star == ""

    def test_noise_not_significant(self):
        r = paired_ttest([60, 62, 58, 61, 59], [61, 60, 59, 62, 58])
        assert not r.significant

    def test_decline_not_improved(self):
        r = paired_ttest([70, 71, 69, 70, 71], [60, 61, 59, 60, 61])
        assert r.significant and not r.improved

    def test_validation(self):
        with pytest.raises(ValueError):
            paired_ttest([1.0], [2.0])
        with pytest.raises(ValueError):
            paired_ttest([1.0, 2.0], [2.0])

    def test_confidence_threshold(self):
        # borderline case: strict confidence flips significance
        a = [60, 61, 59, 60, 61]
        b = [61, 62, 60, 61, 63]
        loose = paired_ttest(a, b, confidence=0.5)
        strict = paired_ttest(a, b, confidence=0.9999)
        assert loose.significant and not strict.significant


def _pair(n, effect, scale):
    """Fold-accuracy vectors whose every value is exact in binary."""
    a = [60.0 + (7 * i) % 11 for i in range(n)]
    b = [x + effect + ((5 * i) % 7 - 3) * scale for i, x in enumerate(a)]
    return a, b


# (n, effect, scale, t, pvalue): scipy.stats.ttest_rel(b, a) of _pair(...),
# computed once with scipy 1.17.1 — tiny, moderate and huge effects at
# n = 2..30, plus two cells straddling the paper's p = 0.02 threshold.
SCIPY_TTEST_REL = [
    (2, 0.0009765625, 1.0, -0.199609375, 0.8745732165731004),
    (2, 0.5, 1.0, 0.0, 1.0),
    (2, 25.0, 0.125, 79.8, 0.007977273832293443),
    (3, 0.0009765625, 1.0, -0.22874361746273783, 0.8403289942497185),
    (3, 0.5, 1.0, 0.11470786693528087, 0.9191547916545557),
    (3, 25.0, 0.125, 137.4200245884665, 5.294993865698864e-05),
    (5, 0.0009765625, 1.0, 0.0008565019719795207, 0.9993576236191913),
    (5, 0.5, 1.0, 0.4385290096535146, 0.6836476016634073),
    (5, 25.0, 0.125, 175.41160386140584, 6.3361271092529114e-09),
    (10, 0.0009765625, 1.0, -0.14689181569459772, 0.8864552494649646),
    (10, 0.5, 1.0, 0.5933618117209786, 0.5675493828278708),
    (10, 25.0, 0.125, 296.53256540755905, 2.8710280908759175e-19),
    (30, 0.0009765625, 1.0, -0.08537440824859559, 0.9325504380184653),
    (30, 0.5, 1.0, 1.2313154091065055, 0.22809740839576947),
    (30, 25.0, 0.125, 527.6186528021375, 2.6536886116231667e-59),
    (5, 4.25, 1.0, 3.727496582054874, 0.020341176232340916),
    (5, 4.375, 1.0, 3.8371288344682526, 0.01850489983002076),
]

_diff = st.floats(-50, 50, allow_nan=False)
_diffs = st.lists(_diff, min_size=2, max_size=30)


class TestPairedTtestAgainstScipy:
    """The t-test is pure Python (the package has no runtime dependency);
    scipy's ``ttest_rel`` is its reference, as committed literals and —
    where scipy is installed — live."""

    @pytest.mark.parametrize("n, effect, scale, t, pvalue", SCIPY_TTEST_REL)
    def test_committed_literals(self, n, effect, scale, t, pvalue):
        r = paired_ttest(*_pair(n, effect, scale))
        assert r.t == pytest.approx(t, rel=1e-9)
        assert r.pvalue == pytest.approx(pvalue, rel=1e-9)

    def test_straddles_the_papers_threshold(self):
        assert not paired_ttest(*_pair(5, 4.25, 1.0)).significant  # p = 0.0203
        assert paired_ttest(*_pair(5, 4.375, 1.0)).significant  # p = 0.0185

    def test_live_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        for n, effect, scale, _, _ in SCIPY_TTEST_REL:
            a, b = _pair(n, effect, scale)
            ref = stats.ttest_rel(b, a)
            r = paired_ttest(a, b)
            assert r.t == pytest.approx(float(ref.statistic), rel=1e-9)
            assert r.pvalue == pytest.approx(float(ref.pvalue), rel=1e-9)

    def test_constant_nonzero_difference(self):
        # Zero variance: scipy answers (±inf, 0.0) too.
        r = paired_ttest([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
        assert (r.t, r.pvalue, r.significant, r.improved) == (float("-inf"), 0.0, True, False)

    @given(_diffs)
    @settings(max_examples=200, deadline=None)
    def test_pvalue_is_a_probability(self, diffs):
        assert 0.0 <= paired_ttest([0.0] * len(diffs), diffs).pvalue <= 1.0

    @given(_diffs)
    @settings(max_examples=200, deadline=None)
    def test_swapping_the_samples_negates_t(self, diffs):
        zeros = [0.0] * len(diffs)
        ab, ba = paired_ttest(zeros, diffs), paired_ttest(diffs, zeros)
        assert ab.t == -ba.t
        assert ab.pvalue == ba.pvalue

    @given(st.integers(2, 30).flatmap(lambda n: st.tuples(*[st.lists(_diff, min_size=n, max_size=n)] * 2)))
    @settings(max_examples=200, deadline=None)
    def test_pvalue_falls_as_abs_t_grows(self, two):
        zeros = [0.0] * len(two[0])
        lo, hi = sorted((paired_ttest(zeros, d) for d in two), key=lambda r: abs(r.t))
        assert hi.pvalue <= lo.pvalue * (1 + 1e-12)
