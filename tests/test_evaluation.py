import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from comet.errors import MetricError, ShapeError
from comet.evaluation import (auc_pr, auc_roc, best_f1, evaluate, label_segments,
                              point_adjust)


def pairwise_auc_oracle(scores, labels):
    """O(n^2) comparison count: wins + half-credit ties over pos/neg pairs."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def f1_score(preds, labels):
    p = np.asarray(preds).astype(bool)
    y = np.asarray(labels).astype(bool)
    tp = int(np.sum(p & y))
    fp = int(np.sum(p & ~y))
    fn = int(np.sum(~p & y))
    denom = 2 * tp + fp + fn
    return 2.0 * tp / denom if denom else 0.0


def best_f1_oracle(scores, labels, k_percent):
    """Point-adjust and score every unique threshold, lowest first."""
    candidates = np.unique(scores)
    best, best_theta = -1.0, candidates[0]
    for theta in candidates:
        f1 = f1_score(point_adjust(scores >= theta, labels, k_percent), labels)
        if f1 > best:
            best, best_theta = f1, float(theta)
    return best, best_theta


def auc_roc_oracle(scores, labels):
    """Rank statistic with tie groups averaged by a scan of the ascending sort."""
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@st.composite
def scored_series(draw, all_positive=True):
    """Short series with heavy ties or integer-valued scores, segments of any
    length (single points, touching either end) and, optionally, all labels 1."""
    n = draw(st.integers(1, 40))
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    if all_positive and draw(st.booleans()):
        labels[:] = 1
    elif labels.sum() == 0:
        labels[draw(st.integers(0, n - 1))] = 1
    values = draw(st.sampled_from([
        st.integers(-3, 3).map(float),
        st.sampled_from([0.1, 0.2, 0.7]),
        # +0.0 maps -0.0 to 0.0: the zeros compare equal, so which one a
        # sort reports as the threshold is arbitrary
        st.floats(-1e3, 1e3, allow_nan=False).map(lambda v: v + 0.0),
    ]))
    scores = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    return scores, labels


K_VALUES = st.sampled_from([0.0, 100.0, 50.0, 100.0 / 3.0]) | st.floats(0.0, 100.0)


class TestPointAdjust:
    def test_single_detection_adjusts_whole_segment(self):
        got = point_adjust([0, 1, 0, 0], [0, 1, 1, 0], k_percent=0)
        assert got.tolist() == [0, 1, 1, 0]

    def test_k100_never_adjusts(self):
        got = point_adjust([0, 1, 0, 0], [0, 1, 1, 0], k_percent=100)
        assert got.tolist() == [0, 1, 0, 0]

    def test_no_segments_identity(self):
        preds = [1, 0, 1, 0]
        for k in (0, 50, 100):
            assert point_adjust(preds, [0, 0, 0, 0], k).tolist() == preds

    def test_threshold_is_strict(self):
        # exactly 50% detected does not exceed K=50
        labels = [1, 1, 0]
        assert point_adjust([1, 0, 0], labels, 50).tolist() == [1, 0, 0]
        assert point_adjust([1, 0, 0], labels, 49).tolist() == [1, 1, 0]

    def test_idempotent_and_monotone(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            labels = (rng.random(30) < 0.3).astype(int)
            preds = (rng.random(30) < 0.4).astype(int)
            once = point_adjust(preds, labels, 0)
            twice = point_adjust(once, labels, 0)
            assert np.array_equal(once, twice)
            assert np.all(once >= preds)  # adding detections only

    def test_segments(self):
        assert label_segments(np.array([0, 1, 1, 0, 1])) == [(1, 3), (4, 5)]


class TestBestF1:
    def test_perfect_separation(self):
        scores = np.array([0.1, 0.2, 0.9, 0.8])
        labels = np.array([0, 0, 1, 1])
        for k in (0, 100):
            f1, theta = best_f1(scores, labels, k)
            assert f1 == 1.0
            assert 0.2 < theta <= 0.8

    def test_fixture_k0(self):
        # thresholds in (.2, .9] give preds [0,1,0,0]; adjustment completes
        # the segment and F1 reaches 1.0
        scores = np.array([0.1, 0.9, 0.2, 0.1])
        labels = np.array([0, 1, 1, 0])
        f1, theta = best_f1(scores, labels, 0)
        assert f1 == 1.0
        assert theta == 0.2  # ties resolve to the lowest threshold

    def test_fixture_k100(self):
        # at threshold .2 the predictions equal the labels exactly, so the
        # exact sweep attains 1.0 without adjustment as well
        scores = np.array([0.1, 0.9, 0.2, 0.1])
        labels = np.array([0, 1, 1, 0])
        f1, theta = best_f1(scores, labels, 100)
        assert f1 == 1.0
        assert theta == 0.2

    def test_binary_score_fixture(self):
        # scores carry one detection inside the two-point segment: adjustment
        # lifts K=0 to a perfect score while the raw K=100 metric caps at 2/3
        scores = np.array([0.0, 1.0, 0.0, 0.0])
        labels = np.array([0, 1, 1, 0])
        f1_0, theta_0 = best_f1(scores, labels, 0)
        assert f1_0 == 1.0
        assert theta_0 == 1.0
        f1_100, _ = best_f1(scores, labels, 100)
        assert f1_100 == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_adjusted_never_below_raw(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            labels = (rng.random(40) < 0.25).astype(int)
            if labels.sum() == 0:
                labels[3] = 1
            scores = rng.random(40)
            f1_0, _ = best_f1(scores, labels, 0)
            f1_100, _ = best_f1(scores, labels, 100)
            assert f1_0 >= f1_100 - 1e-12

    def test_all_negative_labels_rejected(self):
        with pytest.raises(MetricError):
            best_f1(np.array([0.1, 0.2]), np.array([0, 0]), 0)

    @pytest.mark.parametrize("k", [-5.0, -1e-9, 100.5, math.nan, math.inf])
    def test_k_outside_0_100_rejected(self, k):
        # K=-5 would adjust every segment and a NaN K none
        with pytest.raises(MetricError, match="k_percent"):
            best_f1(np.array([0.1, 0.9, 0.2]), np.array([0, 1, 1]), k)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(scored_series(), K_VALUES)
    @example((np.array([0.5, 0.1, 0.9, 0.3, 0.2]), np.array([1, 0, 1, 1, 1])), 0.0)
    @example((np.array([2.0, 2.0, 1.0, 2.0]), np.array([1, 1, 1, 1])), 50.0)
    @example((np.array([3.0, 1.0, 1.0, 2.0, 1.0, 3.0]), np.array([1, 0, 1, 1, 0, 1])),
             100.0 / 3.0)
    def test_matches_per_threshold_oracle(self, series, k):
        scores, labels = series
        got = best_f1(scores, labels, k)
        want = best_f1_oracle(scores, labels, k)
        assert type(got[0]) is float and type(got[1]) is float
        assert [v.hex() for v in got] == [v.hex() for v in want]


class TestAuc:
    def test_perfect_ranking(self):
        assert auc_roc([0.1, 0.9, 0.8, 0.2], [0, 1, 1, 0]) == 1.0

    def test_perfect_anti_ranking(self):
        assert auc_roc([0.9, 0.1, 0.2, 0.8], [0, 1, 1, 0]) == 0.0

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=50)
        labels = (rng.random(50) < 0.4).astype(int)
        labels[0], labels[1] = 1, 0
        got = auc_roc(scores, labels)
        want = pairwise_auc_oracle(scores, labels)
        assert abs(got - want) <= 1e-12

    def test_ties_averaged(self):
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        labels = np.array([0, 1, 0, 1])
        assert auc_roc(scores, labels) == 0.5

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=60)
        labels = (rng.random(60) < 0.3).astype(int)
        labels[0], labels[1] = 1, 0
        a = auc_roc(scores, labels)
        b = auc_roc(np.exp(2.0 * scores) + 5.0, labels)
        assert a == b

    def test_single_class_rejected(self):
        with pytest.raises(MetricError):
            auc_roc([0.1, 0.2], [1, 1])
        with pytest.raises(MetricError):
            auc_pr([0.1, 0.2], [0, 0])

    def test_auc_pr_perfect(self):
        assert auc_pr([0.1, 0.9, 0.8, 0.2], [0, 1, 1, 0]) == 1.0

    def test_auc_pr_hand_value(self):
        # descending: (.9, pos), (.8, neg), (.2, pos), (.1, neg)
        # points: R=.5 P=1; R=.5 P=.5; R=1 P=2/3; R=1 P=.5
        # step area = .5*1 + 0 + .5*(2/3) + 0 = 5/6
        got = auc_pr([0.1, 0.9, 0.2, 0.8], [0, 1, 1, 0])
        assert got == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            auc_roc([0.1, 0.2, 0.3], [0, 1])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(scored_series(all_positive=False))
    def test_matches_scanned_tie_ranks(self, series):
        scores, labels = series
        assume(labels.sum() < labels.size)
        assert auc_roc(scores, labels).hex() == auc_roc_oracle(scores, labels).hex()


class TestEvaluate:
    def test_report_fields_in_range(self):
        rng = np.random.default_rng(5)
        scores = rng.random(100)
        labels = (rng.random(100) < 0.2).astype(int)
        labels[0], labels[1] = 1, 0
        report = evaluate(scores, labels)
        for v in (report.f1_k0, report.f1_k100, report.auc_roc, report.auc_pr):
            assert 0.0 <= v <= 1.0
        assert report.f1_k0 >= report.f1_k100 - 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_rejected(self, bad):
        # unchecked, the NaN ranks silently and auc_roc reads 1.0 here
        scores = [0.1, bad, 0.9, 0.2, 0.3, 0.5]
        with pytest.raises(MetricError, match="index 1"):
            evaluate(scores, [0, 1, 1, 0, 0, 1])
