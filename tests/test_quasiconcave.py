import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicedp import (
    PrivacyBudget,
    QcInstance,
    RegimeError,
    Universe,
    build_increment_dataset,
    chain_size,
    cumulative_distance,
    cumulative_ipp,
    cumulative_regime_threshold,
    decode_hard_point,
    encode_hard_instance,
    gamma,
    hardness_reduction,
    ipp,
    is_quasi_concave,
    load_qc_csv,
    qc_optimize,
    sample_code,
    scaled_budget,
)
from support import (embedding, is_quasi_concave_oracle, positionwise_relabel_labels,
                     random_quasi_concave)


def _scan_distance(a, b):
    # exhaustive threshold sweep, independent of the production bisect
    lo, hi = min(a + b), max(a + b)
    return max(abs(sum(v <= y for v in a) - sum(v <= y for v in b))
               for y in range(lo, hi + 1))


class TestCumulativeDistance:
    def test_examples(self):
        assert cumulative_distance([1, 3], [1, 3]) == 0
        assert cumulative_distance([1, 3], [2, 3]) == 1
        assert cumulative_distance([1, 1, 1], [5, 5, 5]) == 3

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            cumulative_distance([1], [1, 2])

    @given(st.integers(1, 8).flatmap(
        lambda n: st.tuples(st.lists(st.integers(0, 30), min_size=n, max_size=n),
                            st.lists(st.integers(0, 30), min_size=n, max_size=n),
                            st.lists(st.integers(0, 30), min_size=n, max_size=n))))
    @settings(max_examples=150, deadline=None)
    def test_metric_properties(self, triple):
        a, b, c = triple
        dab = cumulative_distance(a, b)
        assert dab == _scan_distance(a, b)
        assert dab == cumulative_distance(b, a)
        assert (dab == 0) == (sorted(a) == sorted(b))
        assert dab <= cumulative_distance(a, c) + cumulative_distance(c, b)

    def test_works_on_tuples(self):
        assert cumulative_distance([(1, 2), (3, 1)], [(1, 2), (3, 2)]) == 1


class TestQuasiConcaveCheck:
    def test_shapes(self):
        assert is_quasi_concave([0, 1, 2, 3, 2, 1, 0])
        assert is_quasi_concave([5, 5, 5])
        assert is_quasi_concave([1, 2, 3])
        assert is_quasi_concave([3, 2, 1])
        assert not is_quasi_concave([3, 1, 2])
        assert not is_quasi_concave([0, 2, 1, 1, 2])
        assert is_quasi_concave([])
        assert is_quasi_concave([7])

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(
        st.lists(st.integers(0, 3), max_size=12).map(lambda v: np.array(v, dtype=np.int64)),
        st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), max_size=6).map(
            lambda v: np.array(v, dtype=np.int64)),
        st.lists(st.sampled_from([0, 1, 2 ** 63, 2 ** 64 - 1]), max_size=10).map(
            lambda v: np.array(v, dtype=np.uint64)),
        st.lists(st.floats(allow_nan=True, width=64), max_size=8).map(
            lambda v: np.array(v, dtype=np.float64)),
        st.lists(st.sampled_from([-1.5, 0.0, 2.0]), max_size=10).map(
            lambda v: np.array(v, dtype=np.float64))))
    def test_matches_the_scan(self, scores):
        assert is_quasi_concave(scores) == is_quasi_concave_oracle(scores)


def _perturb_same_peak(rng, scores, n):
    # adjacent table: pointwise within 1, still unimodal, same peak
    for _ in range(50):
        lo = int(rng.integers(0, scores.size))
        hi = int(rng.integers(lo + 1, scores.size + 1))
        bump = int(rng.choice([-1, 1]))
        trial = scores.copy()
        trial[lo:hi] = np.clip(trial[lo:hi] + bump, 0, None)
        if is_quasi_concave(trial) and trial.max() == n:
            return trial
    return np.minimum(scores + 1, n)


class TestIncrementDataset:
    def test_tent_example(self):
        out = build_increment_dataset([0, 1, 2, 3, 2, 1, 0], 3)
        assert out.tolist() == [1, 2, 3]

    def test_single_rise(self):
        table = [0, 0, 0, 0, 1, 0]
        assert build_increment_dataset(table, 1).tolist() == [4]

    def test_size_always_matches_peak(self):
        rng = np.random.default_rng(40)
        for _ in range(300):
            size = int(rng.integers(2, 200))
            table = random_quasi_concave(rng, size)
            n = int(np.max(table))
            out = build_increment_dataset(table, n)
            assert out.size == n

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-3, 40), min_size=1, max_size=60))
    def test_increments_match_the_difference_formula(self, values):
        # the gathered rises against the full difference of the table, on
        # any int64 table, quasi-concave or not, and bitwise
        module = importlib.import_module("slicedp.quasiconcave")
        arr = np.array(values, dtype=np.int64)
        diff = arr - np.concatenate(([0], arr[:-1]))
        rising = diff > 0
        expected = np.repeat(np.arange(arr.size, dtype=np.uint64)[rising], diff[rising])
        out = module._increments(arr)
        assert out.dtype == expected.dtype == np.uint64
        np.testing.assert_array_equal(out, expected)
        if is_quasi_concave(arr) and arr.min() >= 0:
            np.testing.assert_array_equal(
                build_increment_dataset(arr, int(arr.max())), expected)

    def test_rejects_bad_tables(self):
        with pytest.raises(ValueError):
            build_increment_dataset([1, 0, 1], 1)
        with pytest.raises(ValueError):
            build_increment_dataset([0, 2, 0], 1)
        with pytest.raises(ValueError):
            build_increment_dataset([0, -1, 0], 0)
        with pytest.raises(ValueError):
            build_increment_dataset([], 0)

    def test_adjacent_tables_give_nearby_datasets(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            size = int(rng.integers(3, 120))
            peak = int(rng.integers(2, 60))
            table = random_quasi_concave(rng, size, peak_value=peak)
            other = _perturb_same_peak(rng, table, peak)
            assert np.abs(other - table).max() <= 1
            s1 = build_increment_dataset(table, peak)
            s2 = build_increment_dataset(other, peak)
            assert cumulative_distance(s1.tolist(), s2.tolist()) <= 2


class TestScaledBudget:
    def test_explicit_values(self):
        eps_p, delta_p = scaled_budget(Universe(16), 4.0, 0.25, constant_c=4)
        assert eps_p == pytest.approx(0.0625, rel=1e-12)
        assert delta_p == pytest.approx(0.000244140625, rel=1e-12)

    def test_regime_threshold(self):
        assert cumulative_regime_threshold(Universe(16), 4.0, 0.25, 4) == 532360

    def test_oversized_epsilon_rejected(self):
        with pytest.raises(ValueError):
            scaled_budget(Universe(1), 100.0, 0.5, constant_c=1)
        with pytest.raises(ValueError):
            scaled_budget(Universe(4), 1.0, 0.5, constant_c=0)

    def test_underflowing_step_delta_names_the_parameters(self):
        # 0.25^100000 is 0.0 in floating point
        with pytest.raises(ValueError, match="constant_c=100000") as err:
            scaled_budget(Universe(4), 1.0, 0.25, constant_c=100000)
        assert "delta=0.25" in str(err.value)


class TestCumulativeInteriorPoint:
    def test_all_equal_returns_the_point(self):
        u = Universe(4)
        epsilon, delta, c = 8.0, 0.5, 1
        n = cumulative_regime_threshold(u, epsilon, delta, c)
        rng = np.random.default_rng(42)
        hits = sum(cumulative_ipp(u, [11] * n, epsilon, delta, rng, c) == 11
                   for _ in range(10))
        assert hits >= 9

    def test_session_sizes_are_exact_and_the_budget_scaled(self, monkeypatch):
        module = importlib.import_module("slicedp.treelog")
        original, sessions = module.RscSession, []

        def spy(*args, **kwargs):
            sessions.append(original(*args, **kwargs))
            return sessions[-1]

        monkeypatch.setattr(module, "RscSession", spy)
        u = Universe(4)
        epsilon, delta, c = 8.0, 0.5, 1
        n = cumulative_regime_threshold(u, epsilon, delta, c)
        cumulative_ipp(u, [11] * n, epsilon, delta, np.random.default_rng(1), c)
        ipp(u, [11] * 1000, 1.0, 0.5, np.random.default_rng(1), enforce_regime=False)
        assert [s.noisy_sizes for s in sessions] == [False, True]
        assert sessions[0].budget == PrivacyBudget(*scaled_budget(u, epsilon, delta, c))

    def test_regime_error(self):
        u = Universe(16)
        with pytest.raises(RegimeError) as err:
            cumulative_ipp(u, [1] * 100, 4.0, 0.25, np.random.default_rng(0))
        assert err.value.required == 532360
        assert err.value.provided == 100

    def test_front_relabel_doubles_distance_at_most(self):
        # equal-size inputs at cumulative distance d: copying the first-2t
        # labels positionwise keeps the label multisets within distance 2d
        rng = np.random.default_rng(43)
        u = Universe(16)
        for _ in range(100):
            size = int(rng.integers(10, 150))
            base = [int(v) for v in rng.integers(0, u.size, size=size)]
            moved = list(base)
            for _ in range(int(rng.integers(1, 6))):
                moved[int(rng.integers(0, size))] = int(rng.integers(0, u.size))
            d = cumulative_distance(base, moved)
            if d == 0:
                continue
            ea, eb = embedding(base, u), embedding(moved, u)
            t = max(ea.gamma, eb.gamma) + 2 * d + 1
            labels = positionwise_relabel_labels(ea.pairs, eb.pairs, 2 * t)
            assert cumulative_distance(labels, [y for y, _ in eb.pairs]) <= 2 * d


class TestOptimizer:
    def test_instance_validation(self):
        with pytest.raises(ValueError):
            QcInstance(np.array([3, 1, 2]))
        with pytest.raises(ValueError):
            QcInstance(np.array([0, -1, 0]))
        with pytest.raises(ValueError):
            QcInstance(np.array([], dtype=np.int64))

    def test_constant_scores_take_the_flat_branch(self):
        rng = np.random.default_rng(44)
        instance = QcInstance(np.full(100, 7))
        n = cumulative_regime_threshold(Universe(7), 4.0, 0.25, 4)
        for _ in range(5):
            out = qc_optimize(instance, 4.0, 0.25, rng)
            assert out.branch == "small-gap"
            assert out.solution == 0
            assert out.score == 7
            assert out.error_bound == 2 * n

    def test_tent_instance_lands_near_the_peak(self):
        size = 1 << 16
        epsilon, delta, c = 4.0, 0.25, 4
        n = cumulative_regime_threshold(Universe(16), epsilon, delta, c)
        y0 = size // 3
        slope = math.ceil(4 * n / (size // 3))
        ys = np.arange(size, dtype=np.int64)
        scores = np.maximum(4 * n - slope * np.abs(ys - y0), 0)
        instance = QcInstance(scores)
        opt = int(scores.max())
        rng = np.random.default_rng(45)
        good = 0
        for _ in range(5):
            out = qc_optimize(instance, epsilon, delta, rng)
            assert out.branch == "interior"
            assert out.error_bound == n
            good += int(opt - out.score <= n)
        assert good >= 4


def _uniform_interior_oracle(rng):
    b1, b2 = chain_size(1), chain_size(2)

    def to_int(tup):
        v = 0
        for digit in tup:
            v = v * b2 + (digit - 1)
        return v

    def to_tuple(v):
        digits = []
        for _ in range(b1):
            digits.append(int(v % b2) + 1)
            v //= b2
        return tuple(reversed(digits))

    def oracle(encoded):
        lo, hi = to_int(min(encoded)), to_int(max(encoded))
        pick = lo + int(rng.integers(0, hi - lo + 1))
        return to_tuple(pick)

    return oracle


class TestHardnessReduction:
    def test_chain_sizes(self):
        assert chain_size(1) == 10
        assert chain_size(2) == 40
        with pytest.raises(ValueError):
            chain_size(0)

    def test_code_range(self):
        rng = np.random.default_rng(46)
        for _ in range(20):
            z = sample_code(rng)
            assert len(z) == 10
            assert all(2 <= v <= 39 for v in z)

    def test_encoding_agrees_below_and_is_constant_above(self):
        rng = np.random.default_rng(47)
        z = sample_code(rng)
        for x in (1, 4, 10):
            low, high = sorted(encode_hard_instance([x], z))
            assert low == z[:x] + (1,) * (10 - x)
            assert high == z[:x] + (40,) * (10 - x)
            assert decode_hard_point(low, z) == x
            assert decode_hard_point(high, z) == x

    def test_encoding_validation(self):
        z = tuple([5] * 10)
        with pytest.raises(ValueError):
            encode_hard_instance([0], z)
        with pytest.raises(ValueError):
            encode_hard_instance([11], z)
        with pytest.raises(ValueError):
            encode_hard_instance([1], (5, 5))

    @pytest.mark.parametrize("data", [[1.5], [2, 3.25]])
    def test_encoding_rejects_non_elements(self, data):
        with pytest.raises(ValueError):
            encode_hard_instance(data, tuple([5] * 10))

    def test_adjacency_carries_through_encoding(self):
        rng = np.random.default_rng(48)
        for _ in range(200):
            z = sample_code(rng)
            size = int(rng.integers(2, 12))
            base = [int(v) for v in rng.integers(1, 11, size=size)]
            moved = list(base)
            moved[int(rng.integers(0, size))] = int(rng.integers(1, 11))
            d = cumulative_distance(base, moved)
            enc_d = cumulative_distance(encode_hard_instance(base, z),
                                        encode_hard_instance(moved, z))
            assert enc_d <= d

    def test_perfect_oracle_transfers_interiority(self):
        rng = np.random.default_rng(49)
        oracle = _uniform_interior_oracle(rng)
        trials, hits = 300, 0
        for _ in range(trials):
            data = [int(v) for v in rng.integers(1, 11, size=20)]
            ell = hardness_reduction(oracle, data, rng)
            hits += int(min(data) <= ell <= max(data))
        bound = 1.0 / 38.0
        se = math.sqrt(bound * (1 - bound) / trials)
        assert hits / trials >= 1 - bound - 3 * se


class TestScoreCsv:
    def test_round_trip_with_gaps(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("y,score\n2,1\n3,4\n4,2\n")
        instance = load_qc_csv(path)
        assert instance.scores.tolist() == [0, 0, 1, 4, 2]

    def test_rejects_duplicates(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("1,5\n1,6\n")
        with pytest.raises(ValueError):
            load_qc_csv(path)

    def test_rejects_negative_index_and_empty(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("-1,5\n")
        with pytest.raises(ValueError):
            load_qc_csv(path)
        empty = tmp_path / "empty.csv"
        empty.write_text("y,score\n")
        with pytest.raises(ValueError):
            load_qc_csv(empty)

    def test_rejects_non_integer_rows_mid_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\nx,3\n")
        with pytest.raises(ValueError):
            load_qc_csv(path)
