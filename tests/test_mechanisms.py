import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from slicedp import (
    PrivacyBudget,
    QualityFunction,
    choosing_error_bound,
    choosing_mechanism,
    exponential_mechanism,
    geometric_pmf,
    sample_geometric,
    sample_laplace,
)
from slicedp.treelog import TreeVertex, Universe, _depth_vertex_quality

from support import chi_squared_critical


class TestPrivacyBudget:
    def test_valid(self):
        b = PrivacyBudget(0.5, 1e-6)
        assert b.epsilon == 0.5 and b.delta == 1e-6
        assert PrivacyBudget(0.0).delta == 0.0

    @pytest.mark.parametrize("eps,delta", [(-0.1, 0.0), (math.inf, 0.0), (0.5, 1.0), (0.5, -0.1)])
    def test_invalid(self, eps, delta):
        with pytest.raises(ValueError):
            PrivacyBudget(eps, delta)


class TestGeometricSampler:
    def test_pmf_at_zero_for_unit_epsilon(self):
        assert geometric_pmf(1.0, 0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_pmf_closed_form(self):
        for eps in (0.1, 0.5, 1.0):
            for k in range(6):
                expect = math.exp(-eps) ** k * (1.0 - math.exp(-eps))
                assert geometric_pmf(eps, k) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-12])
    def test_pmf_keeps_its_precision_at_small_epsilon(self, eps):
        # 1 - e^-eps cancels at small eps; its series to the cubic term is
        # exact to a relative 1e-19 here
        assert geometric_pmf(eps, 0) == pytest.approx(eps - eps ** 2 / 2 + eps ** 3 / 6,
                                                      rel=1e-15, abs=0.0)

    def test_rejects_epsilon_out_of_range(self):
        rng = np.random.default_rng(0)
        for eps in (0.0, -1.0, 1.5):
            with pytest.raises(ValueError):
                sample_geometric(eps, rng)

    def test_mean_matches_closed_form(self):
        rng = np.random.default_rng(7)
        draws = np.array([sample_geometric(0.5, rng) for _ in range(10**6)])
        expect = math.exp(-0.5) / (1.0 - math.exp(-0.5))
        assert abs(draws.mean() - expect) < 0.01

    def test_frequencies_match_pmf(self):
        rng = np.random.default_rng(11)
        n = 10**6
        draws = np.array([sample_geometric(0.3, rng) for _ in range(n)])
        for k in range(31):
            p = geometric_pmf(0.3, k)
            se = math.sqrt(p * (1 - p) / n)
            assert abs(np.mean(draws == k) - p) <= 4 * se, f"k={k}"

    def test_deterministic_given_seed(self):
        a = [sample_geometric(0.4, np.random.default_rng(3)) for _ in range(10)]
        b = [sample_geometric(0.4, np.random.default_rng(3)) for _ in range(10)]
        assert a == b


class TestLaplaceSampler:
    def test_rejects_nonpositive_scale(self):
        rng = np.random.default_rng(0)
        for scale in (0.0, -2.0):
            with pytest.raises(ValueError):
                sample_laplace(scale, rng)

    def test_tail_mass(self):
        rng = np.random.default_rng(5)
        draws = np.array([sample_laplace(1.0, rng) for _ in range(10**6)])
        assert abs(np.mean(np.abs(draws) > 2.0) - math.exp(-2.0)) < 0.005

    def test_median_near_zero(self):
        rng = np.random.default_rng(6)
        draws = np.array([sample_laplace(3.0, rng) for _ in range(10**5)])
        assert abs(np.median(draws)) < 0.02 * 3.0


def _table_quality(table):
    return QualityFunction(evaluate=lambda data, z: table[z])


class TestExponentialMechanism:
    def test_single_candidate(self):
        rng = np.random.default_rng(1)
        out = exponential_mechanism(["only"], _table_quality({"only": 0.0}), None, 1.0, rng)
        assert out == "only"

    def test_empty_candidates_error(self):
        with pytest.raises(ValueError):
            exponential_mechanism([], _table_quality({}), None, 1.0, np.random.default_rng(0))

    def test_two_candidate_exact_weights(self):
        # scores 0 and 2 at eps 1: p(high) = e / (1 + e)
        rng = np.random.default_rng(2)
        q = _table_quality({"a": 0.0, "b": 2.0})
        n = 20000
        wins = sum(exponential_mechanism(["a", "b"], q, None, 1.0, rng) == "b" for _ in range(n))
        p = math.e / (1.0 + math.e)
        assert abs(wins / n - p) < 4 * math.sqrt(p * (1 - p) / n)

    def test_distribution_matches_weights(self):
        rng = np.random.default_rng(3)
        scores = {z: float(z % 5) for z in range(8)}
        q = _table_quality(scores)
        n = 10**5
        counts = np.zeros(8)
        for _ in range(n):
            counts[exponential_mechanism(list(range(8)), q, None, 0.8, rng)] += 1
        weights = np.exp(0.4 * np.array([scores[z] for z in range(8)]))
        stat, _ = stats.chisquare(counts, n * weights / weights.sum())
        assert stat < chi_squared_critical(len(counts) - 1)

    def test_accuracy_bound(self):
        # with 8 candidates the returned score beats OPT - (2/eps) ln(|Z|/beta)
        rng = np.random.default_rng(4)
        scores = {z: 10.0 * z for z in range(8)}
        q = _table_quality(scores)
        slack = 2.0 * math.log(8 / 0.1)
        hits = sum(
            scores[exponential_mechanism(list(range(8)), q, None, 1.0, rng)] >= 70.0 - slack
            for _ in range(10**4)
        )
        assert hits >= 0.9 * 10**4


def _prefix_count_quality(bound_k=1):
    # candidate z scored by the number of dataset elements equal to z
    def evaluate(data, z):
        return float(sum(1 for v in data if v == z))

    def touched(data):
        return sorted(set(data))

    return QualityFunction(evaluate=evaluate, bound_k=bound_k, touched=touched)


class TestChoosingMechanism:
    def test_error_bound_formula(self):
        got = choosing_error_bound(1.0, 1e-6, 0.1, 1, 200)
        assert got == pytest.approx(16.0 * math.log(4 * 200 / (0.1 * 1e-6)), rel=1e-12)

    @pytest.mark.parametrize("delta", [1e-300, 2.2250738585072014e-308, 5e-324])
    def test_error_bound_where_the_product_underflows(self, delta):
        # beta * eps * delta underflows, or 4kn over it overflows; the bound
        # is the same formula summed in log space
        got = choosing_error_bound(0.5, delta, delta, 2, 300)
        expected = 32.0 * (math.log(2400) - 2 * math.log(delta) - math.log(0.5))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_requires_k_bounded(self):
        q = QualityFunction(evaluate=lambda d, z: 0.0)
        with pytest.raises(ValueError):
            choosing_mechanism(q, [1], 1.0, 1e-6, 0.1, np.random.default_rng(0), fallback=None)

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            choosing_mechanism(_prefix_count_quality(), [1], 2.5, 1e-6, 0.1,
                               np.random.default_rng(0), fallback=None)

    def test_empty_dataset_returns_fallback(self):
        out = choosing_mechanism(_prefix_count_quality(), [], 1.0, 1e-6, 0.1,
                                 np.random.default_rng(0), fallback="zero")
        assert out == "zero"

    def test_utility_on_counting_scores(self):
        rng = np.random.default_rng(8)
        q = _prefix_count_quality()
        data = [7] * 120 + [3] * 60 + [9] * 20
        bound = choosing_error_bound(1.0, 1e-6, 0.1, 1, len(data))
        ok = 0
        for _ in range(1000):
            z = choosing_mechanism(q, data, 1.0, 1e-6, 0.1, rng, fallback=0)
            ok += q.evaluate(data, z) >= 120 - bound
        assert ok >= 900

    def test_dominant_candidate_wins(self):
        rng = np.random.default_rng(9)
        q = _prefix_count_quality()
        data = [5] * 200
        wins = sum(
            choosing_mechanism(q, data, 1.0, 1e-3, 0.1, rng, fallback=0) == 5
            for _ in range(200)
        )
        assert wins >= 198


def _choosing_by_definition(q, data, epsilon, delta, beta, rng, fallback):
    """The choosing mechanism as Beimel, Nissim and Stemmer define it: the
    noisy gate, then the exponential mechanism at eps/2 over the candidates
    of positive score. Returns (choice, whether the gate passed)."""
    candidates = list(q.touched(data))
    scores = [float(q.evaluate(data, z)) for z in candidates]
    bound = choosing_error_bound(epsilon, delta, beta, q.bound_k, len(data))
    if max(scores, default=0.0) + sample_laplace(4.0 / epsilon, rng) < bound / 2.0:
        return fallback, False
    positive = [z for z, s in zip(candidates, scores) if s > 0.0]
    if not positive:
        return fallback, True
    return exponential_mechanism(positive, q, data, epsilon / 2.0, rng), True


def _digit_count_quality():
    # every digit is touched, so the digits the data lacks score 0
    return QualityFunction(evaluate=lambda data, z: float(np.count_nonzero(data == z)),
                           bound_k=1, touched=lambda data: range(10))


_CLUSTERS = np.repeat(np.array([7, 3, 5, 1], dtype=np.uint64), [150, 148, 145, 2])


@pytest.mark.parametrize("quality, data, epsilon, delta, beta, fallback, chosen", [
    (_digit_count_quality(), _CLUSTERS, 1.0, 1e-3, 0.1, -1, {3, 5, 7}),
    # ipp's depth-3 vertex weights on an 8-bit domain, the clusters spread
    # over the top three bits
    (_depth_vertex_quality(Universe(8), 3, _CLUSTERS << np.uint64(5)), _CLUSTERS << np.uint64(5),
     1.0, 1e-3, 0.1, None, {TreeVertex(3, 3), TreeVertex(3, 5), TreeVertex(3, 7)}),
    # one point and a loose bound: the gate passes on noise in about one
    # trial in eight, and the nine digits of score 0 would take most draws
    (_digit_count_quality(), np.array([3], dtype=np.uint64), 1.9, 0.9, 0.9, -1, {3}),
], ids=["counting", "depth-vertex", "counting-one-point"])
def test_choosing_draws_through_the_exponential_mechanism(quality, data, epsilon, delta,
                                                          beta, fallback, chosen):
    # seed by seed, the same choice and the same next draw as the definition
    choices = set()
    for seed in range(200):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        got = choosing_mechanism(quality, data, epsilon, delta, beta, rng, fallback)
        expected, passed = _choosing_by_definition(quality, data, epsilon, delta, beta,
                                                   reference, fallback)
        assert got == expected and rng.random() == reference.random(), seed
        if passed:
            choices.add(expected)
    # the gate passed, and the draws covered every candidate of high score
    assert choices == chosen


def test_choosing_on_an_empty_embed_slice_returns_the_fallback():
    # an empty slice touches no vertex and scores every one 0; under the
    # loose bound the gate still passes on noise in some seeds
    empty = np.array([], dtype=np.uint64)
    quality = _depth_vertex_quality(Universe(8), 3, empty)
    assert list(quality.touched(empty)) == []
    assert all(quality.evaluate(empty, TreeVertex(3, p)) == 0 for p in range(8))
    for seed in range(50):
        got = choosing_mechanism(quality, empty, 1.9, 0.9, 0.9, np.random.default_rng(seed),
                                 fallback=TreeVertex(3, 0))
        assert got == TreeVertex(3, 0)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.05, max_value=1.0), st.integers(min_value=0, max_value=40))
def test_geometric_pmf_normalized_prefix(eps, k):
    # partial sums of the pmf match 1 - (e^-eps)^(k+1)
    total = sum(geometric_pmf(eps, i) for i in range(k + 1))
    assert total == pytest.approx(1.0 - math.exp(-eps) ** (k + 1), rel=1e-9)
