from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slicedp.learners
from slicedp import (
    Hypothesis,
    LabeledSample,
    Universe,
    boundary_window_size,
    learn_rectangles,
    learn_threshold_realizable,
    load_labeled_csv,
    regime_threshold,
    threshold_sample_size,
)
from support import planted_box


class TestLabeledSample:
    def test_validation(self):
        u = Universe(8)
        with pytest.raises(ValueError):
            LabeledSample(np.array([1, 2]), np.array([1]), u)
        with pytest.raises(ValueError):
            LabeledSample(np.array([1, 2]), np.array([1, 2]), u)
        with pytest.raises(ValueError):
            LabeledSample(np.array([1, 300]), np.array([1, 0]), u)
        sample = LabeledSample(np.array([1, 2]), np.array([1, 0]), u)
        assert len(sample) == 2

    @pytest.mark.parametrize("labels", [[0.5, 1], [1.9, 0], [1.0, np.nan], [np.inf, 0],
                                        np.array([1, -0.25]), [1, 0.999999]])
    def test_non_whole_labels_are_rejected(self, labels):
        # the int64 cast would truncate them to 0 or 1
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            LabeledSample(np.array([1, 2]), labels, Universe(8))

    @pytest.mark.parametrize("labels", [[1.0, 0.0], [True, False], np.array([1, 0], np.uint8),
                                        np.array([1, 0], dtype=object)])
    def test_whole_and_boolean_labels_load(self, labels):
        sample = LabeledSample(np.array([1, 2]), labels, Universe(8))
        assert sample.labels.dtype == np.int64
        assert sample.labels.tolist() == [1, 0]

    @pytest.mark.parametrize("labels", [[2, 0], [0, -1], np.array([1, 2], np.uint64),
                                        [1, 1 << 40]])
    def test_integer_labels_outside_zero_one_are_rejected(self, labels):
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            LabeledSample(np.array([1, 2]), labels, Universe(8))


TOP = (1 << 64) - 1
# rectangle endpoints at the domain's edges, around 2^63, and anywhere
_ENDPOINT = st.one_of(st.sampled_from([0, 1, (1 << 63) - 1, 1 << 63, TOP - 1, TOP]),
                      st.integers(0, TOP))


def _two_compare_predict(rectangle, points):
    """`Hypothesis.predict` on a rectangle as it was: a <= c and c <= b per axis."""
    inside = np.ones(points.shape[0], dtype=bool)
    for axis, (a, b) in enumerate(rectangle):
        inside &= (points[:, axis] >= np.uint64(a)) & (points[:, axis] <= np.uint64(b))
    return inside.astype(np.int64)


class TestHypothesis:
    def test_exactly_one_form(self):
        with pytest.raises(ValueError):
            Hypothesis()
        with pytest.raises(ValueError):
            Hypothesis(threshold=3, zero=True)
        with pytest.raises(ValueError):
            Hypothesis(rectangle=[(5, 3)])

    def test_predict_threshold(self):
        h = Hypothesis(threshold=10)
        assert h.predict([5, 10, 11]).tolist() == [1, 1, 0]

    def test_predict_rectangle_and_zero(self):
        h = Hypothesis(rectangle=[(2, 4), (10, 20)])
        pts = np.array([[3, 15], [1, 15], [3, 21]])
        assert h.predict(pts).tolist() == [1, 0, 0]
        assert Hypothesis(zero=True).predict(pts).tolist() == [0, 0, 0]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_ENDPOINT, _ENDPOINT).map(sorted), min_size=1, max_size=4),
           st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_one_compare_predict_matches_two_compares(self, rectangle, flat, seed):
        # every coordinate sits at a - 1, a, b, b + 1 or 2^64 - 1 of some axis,
        # inside the domain; a 1-axis rectangle also predicts on 1-D points
        near = sorted({min(max(v, 0), TOP) for a, b in rectangle
                       for v in (a - 1, a, b, b + 1, TOP)})
        rng = np.random.default_rng(seed)
        d = len(rectangle)
        points = rng.choice(np.array(near, dtype=np.uint64), size=(60, d))
        h = Hypothesis(rectangle=[tuple(interval) for interval in rectangle])
        got = h.predict(points[:, 0] if flat and d == 1 else points)
        assert got.dtype == np.int64
        assert got.tolist() == _two_compare_predict(rectangle, points).tolist()

    @pytest.mark.parametrize("points", [[1.7], [-1], np.array([2.5])])
    def test_predict_rejects_points_outside_the_domain(self, points):
        with pytest.raises(ValueError):
            Hypothesis(threshold=10).predict(points)


class TestThresholdSizes:
    def test_documented_values(self):
        u = Universe(20)
        assert boundary_window_size(u, 1.0, 0.1) == 5775
        assert threshold_sample_size(u, 0.1, 0.1, 1.0, 0.1) == 462120

    def test_parameter_validation(self):
        sample = LabeledSample(np.array([1]), np.array([1]), Universe(8))
        with pytest.raises(ValueError):
            learn_threshold_realizable(sample, 0.0, 0.1, 1.0, 0.1,
                                       np.random.default_rng(0))


class TestThresholdLearner:
    def test_degenerate_sides(self):
        u = Universe(12)
        rng = np.random.default_rng(50)
        ones = LabeledSample(np.arange(50), np.ones(50), u)
        assert learn_threshold_realizable(ones, 0.1, 0.1, 1.0, 0.1, rng) == \
            Hypothesis(threshold=u.size - 1)
        zeros = LabeledSample(np.arange(50), np.zeros(50), u)
        assert learn_threshold_realizable(zeros, 0.1, 0.1, 1.0, 0.1, rng) == \
            Hypothesis(threshold=0)

    def test_non_realizable_rejected(self):
        u = Universe(12)
        sample = LabeledSample(np.array([10, 20]), np.array([0, 1]), u)
        with pytest.raises(ValueError):
            learn_threshold_realizable(sample, 0.1, 0.1, 1.0, 0.1,
                                       np.random.default_rng(0))

    def test_output_stays_in_the_boundary_window(self):
        u = Universe(16)
        epsilon, delta = 1.0, 0.5
        rng = np.random.default_rng(51)
        boundary_cut = 30000
        points = rng.integers(0, u.size, size=60000)
        labels = (points <= boundary_cut).astype(int)
        sample = LabeledSample(points, labels, u)
        w = boundary_window_size(u, epsilon, delta)
        positives = np.sort(points[labels == 1])
        negatives = np.sort(points[labels == 0])
        window = np.concatenate([positives[-w:], negatives[:w]])
        for _ in range(10):
            h = learn_threshold_realizable(sample, 0.1, 0.1, epsilon, delta, rng)
            assert window.min() <= h.threshold <= window.max()

    def test_midpoint_boundary_accuracy(self):
        u = Universe(20)
        xi, beta, epsilon, delta = 0.1, 0.1, 1.0, 0.1
        n = threshold_sample_size(u, xi, beta, epsilon, delta)
        cut = u.size // 2
        rng = np.random.default_rng(52)
        good = 0
        for _ in range(20):
            points = rng.integers(0, u.size, size=n)
            labels = (points <= cut).astype(int)
            sample = LabeledSample(points, labels, u)
            h = learn_threshold_realizable(sample, xi, beta, epsilon, delta, rng)
            err = np.mean(h.predict(points) != labels)
            good += int(err <= xi)
        assert good >= 18

    def test_fixed_seed_reproduces(self):
        u = Universe(16)
        rng = np.random.default_rng(53)
        points = rng.integers(0, u.size, size=30000)
        labels = (points <= 40000).astype(int)
        sample = LabeledSample(points, labels, u)
        a = learn_threshold_realizable(sample, 0.1, 0.1, 1.0, 0.5,
                                       np.random.default_rng(9))
        b = learn_threshold_realizable(sample, 0.1, 0.1, 1.0, 0.5,
                                       np.random.default_rng(9))
        assert a == b


class TestRectangleLearner:
    def test_too_few_positives_returns_zero_hypothesis(self):
        u = Universe(16)
        rng = np.random.default_rng(54)
        points = rng.integers(0, u.size, size=(200, 2))
        labels = np.zeros(200, dtype=int)
        labels[:10] = 1
        sample = LabeledSample(points, labels, u)
        h = learn_rectangles(sample, 1.0, 0.5, rng)
        assert h.zero
        assert h.predict(points).sum() == 0

    def test_one_dimension_brackets_the_positives(self):
        u = Universe(16)
        epsilon, delta = 1.0, 0.5
        m = regime_threshold(u, epsilon, delta)
        rng = np.random.default_rng(55)
        n_pos = 24 * m
        positives = rng.integers(10000, 50001, size=n_pos)
        points = np.concatenate([positives, rng.integers(55000, u.size, size=3000)])
        labels = np.concatenate([np.ones(n_pos, int), np.zeros(3000, int)])
        sample = LabeledSample(points, labels, u)
        h = learn_rectangles(sample, epsilon, delta, rng)
        assert h.rectangle is not None and len(h.rectangle) == 1
        a, b = h.rectangle[0]
        assert 10000 <= a <= b <= 50000
        fresh = rng.integers(10000, 50001, size=20000)
        assert np.mean(h.predict(fresh.reshape(-1, 1))) >= 0.85

    def test_planted_box_two_dimensions(self):
        u = Universe(16)
        epsilon, delta = 1.0, 0.5
        m = regime_threshold(u, epsilon, delta)
        rng = np.random.default_rng(56)
        points, labels, box = planted_box(rng, n_pos=24 * 2 * m, n_neg=4000,
                                          dims=2, bits=16)
        sample = LabeledSample(points, labels, u)
        h = learn_rectangles(sample, epsilon, delta, rng)
        assert h.rectangle is not None and len(h.rectangle) == 2
        for (a, b), (lo, hi) in zip(h.rectangle, box):
            assert lo <= a <= b <= hi
        fresh_pos, fresh_labels, _ = planted_box(rng, n_pos=5000, n_neg=5000,
                                                 dims=2, bits=16, box=box)
        predictions = h.predict(fresh_pos)
        coverage = np.mean(predictions[fresh_labels == 1])
        exclusion = np.mean(1 - predictions[fresh_labels == 0])
        assert coverage >= 0.8
        assert exclusion >= 0.99

    def test_slices_stay_disjoint_inside_the_positives(self, monkeypatch):
        u = Universe(16)
        sessions = []
        real = slicedp.learners.RscSession

        def spy(*args, **kwargs):
            session = real(*args, **kwargs)
            sessions.append(session)
            return session

        monkeypatch.setattr(slicedp.learners, "RscSession", spy)
        epsilon, delta = 1.0, 0.5
        m = regime_threshold(u, epsilon, delta)
        rng = np.random.default_rng(57)
        points, labels, _ = planted_box(rng, n_pos=24 * 2 * m, n_neg=500,
                                        dims=2, bits=16)
        learn_rectangles(LabeledSample(points, labels, u), epsilon, delta, rng)
        assert len(sessions) == 1
        session = sessions[0]
        pieces = [session.remaining] + list(session.stored_slices.values())
        seen = Counter(tuple(int(v) for v in row)
                       for piece in pieces for row in piece)
        expected = Counter(tuple(int(v) for v in row)
                           for row in points[labels == 1])
        assert seen == expected

    def test_dimension_bounds(self):
        u = Universe(8)
        points = np.zeros((4, 17), dtype=np.uint64)
        sample = LabeledSample(points, np.ones(4, int), u)
        with pytest.raises(ValueError):
            learn_rectangles(sample, 1.0, 0.5, np.random.default_rng(0))


class TestLabeledCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x,y,label\n1,2,1\n3,4,0\n")
        sample = load_labeled_csv(path, bit_length=8)
        assert sample.points.tolist() == [[1, 2], [3, 4]]
        assert sample.labels.tolist() == [1, 0]

    def test_single_coordinate_flattens(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("5,1\n7,0\n")
        sample = load_labeled_csv(path, bit_length=8)
        assert sample.points.ndim == 1
        assert sample.points.tolist() == [5, 7]

    def test_errors(self, tmp_path):
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("1,2,1\n3,0\n")
        with pytest.raises(ValueError):
            load_labeled_csv(ragged, 8)
        badlabel = tmp_path / "badlabel.csv"
        badlabel.write_text("1,2\n")
        with pytest.raises(ValueError):
            load_labeled_csv(badlabel, 8)
        short = tmp_path / "short.csv"
        short.write_text("1\n")
        with pytest.raises(ValueError):
            load_labeled_csv(short, 8)
        empty = tmp_path / "empty.csv"
        empty.write_text("x,label\n")
        with pytest.raises(ValueError):
            load_labeled_csv(empty, 8)
        nonint = tmp_path / "nonint.csv"
        nonint.write_text("1,1\nfoo,0\n")
        with pytest.raises(ValueError):
            load_labeled_csv(nonint, 8)
