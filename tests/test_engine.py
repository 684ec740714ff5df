import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from slicedp import (
    Dataset,
    OrderMap,
    PrivacyBudget,
    RscSession,
    SliceComputation,
    ascending_map,
    axis_map,
    delayed_compute,
    descending_map,
    geometric_pmf,
    holder_call_cap,
    privacy_cost,
    select_and_compute,
)

from slicedp.engine import as_elements
from support import axis_order_oracle, chi_squared_critical


class TestDataset:
    def test_multiset_semantics(self):
        d = Dataset([5, 1, 5, 3], 8)
        assert sorted(d.elements.tolist()) == [1, 3, 5, 5]

    def test_range_check(self):
        with pytest.raises(ValueError):
            Dataset([256], 8)

    def test_bit_length_bounds(self):
        with pytest.raises(ValueError):
            Dataset([0], 0)
        with pytest.raises(ValueError):
            Dataset([0], 65)
        assert Dataset([2**63], 64).elements[0] == 2**63

    def test_lists_straddling_two_to_the_63_stay_exact(self):
        elements = Dataset([2**63 - 1, 2**63], 64).elements
        assert elements.dtype == np.uint64
        assert elements.tolist() == [2**63 - 1, 2**63]
        rows = Dataset([[1, 2**63], [2**63 - 1, 0]], 64).elements
        assert rows.tolist() == [[1, 2**63], [2**63 - 1, 0]]
        assert as_elements([2**64 - 1, 5]).tolist() == [2**64 - 1, 5]

    def test_negative_elements_are_rejected_at_every_bit_length(self):
        for bits in (1, 8, 63, 64):
            for data in ([-5], [3, -1], [-1, 2**63], np.array([-2, 4])):
                with pytest.raises(ValueError, match="negative"):
                    Dataset(data, bits)

    @pytest.mark.parametrize("data", [[1.5, 2.9], [3.0, 0.5], [float("inf")],
                                      [float("nan")], np.array([2.0, -0.25])])
    def test_non_integer_floats_are_rejected(self, data):
        with pytest.raises(ValueError, match="whole number"):
            Dataset(data, 8)

    def test_whole_floats_load(self):
        elements = Dataset([3.0, 4.0], 8).elements
        assert elements.dtype == np.uint64
        assert elements.tolist() == [3, 4]


def _adjacent_lists(mapped_short, mapped_long):
    # mapped_long must equal mapped_short with one value inserted
    if len(mapped_long) != len(mapped_short) + 1:
        return False
    i = 0
    for v in mapped_long:
        if i < len(mapped_short) and mapped_short[i] == v:
            i += 1
    return i == len(mapped_short)


class TestOrderMaps:
    def test_ascending_permutation(self):
        arr = np.array([5, 1, 3, 1], dtype=np.uint64)
        out = ascending_map().apply(arr)
        assert out.tolist() == [1, 1, 3, 5]

    def test_descending_permutation(self):
        arr = np.array([5, 1, 3], dtype=np.uint64)
        assert descending_map().apply(arr).tolist() == [5, 3, 1]

    def test_axis_map_orders_rows(self):
        rows = np.array([[3, 9], [1, 5], [3, 2]], dtype=np.uint64)
        asc = axis_map(0).apply(rows)
        assert asc[:, 0].tolist() == [1, 3, 3]
        desc = axis_map(1, reverse=True).apply(rows)
        assert desc[:, 1].tolist() == [9, 5, 2]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda d: st.tuples(
        st.just(d), st.integers(0, d - 1), st.integers(0, 40),
        st.sampled_from([(np.uint64, 0, 3), (np.uint64, 0, (1 << 16) - 1),
                         (np.uint64, 0, (1 << 64) - 1), (np.int64, -3, 3),
                         (np.int64, 0, (1 << 40) - 1)]))),
        st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_axis_map_matches_a_lexsort_per_column(self, shape, reverse, seed):
        d, axis, n, (dtype, lo, hi) = shape
        rows = np.random.default_rng(seed).integers(lo, hi, size=(n, d), endpoint=True,
                                                    dtype=dtype)
        out = axis_map(axis, reverse).apply(rows)
        assert out.dtype == rows.dtype
        assert out.tolist() == axis_order_oracle(rows, axis, reverse).tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=30),
           st.integers(min_value=0, max_value=63))
    def test_adjacency_preserving(self, values, extra):
        for order in (ascending_map(), descending_map()):
            short = order.apply(np.array(values, dtype=np.uint64)).tolist()
            long = order.apply(np.array(values + [extra], dtype=np.uint64)).tolist()
            assert _adjacent_lists(short, long)
            assert Counter(short) == Counter(values)


def _session(data, tau=4, k=1, epsilon=1.0, noisy=True):
    return RscSession(np.array(data, dtype=np.uint64), tau=tau,
                      budget=PrivacyBudget(epsilon, 1e-6), k=k, noisy_sizes=noisy)


def _spec(m, order=None, algorithm=None):
    return SliceComputation(m=m, algorithm=algorithm, map=order or ascending_map())


class TestSelectAndCompute:
    def test_hand_run_with_zero_noise(self):
        # seed 1's first geometric draw at eps=1 is 0
        session = _session([5, 1, 3, 9])
        result, m_hat = select_and_compute(
            session, _spec(2, algorithm=lambda s: s.tolist()), np.random.default_rng(1))
        assert m_hat == 2
        assert result == [1, 3]
        assert sorted(session.remaining.tolist()) == [5, 9]

    def test_overshoot_takes_everything(self):
        # seed 82's first geometric draw at eps=1 is 6
        session = _session([5, 1, 3, 9])
        result, m_hat = select_and_compute(
            session, _spec(2, algorithm=lambda s: len(s)), np.random.default_rng(82))
        assert m_hat == 8
        assert result == 4
        assert session.remaining.size == 0

    def test_none_algorithm_still_slices(self):
        session = _session([5, 1, 3, 9])
        result, _ = select_and_compute(session, _spec(2), np.random.default_rng(1))
        assert result is None
        assert session.stored_slices[0].tolist() == [1, 3]

    def test_exhausted_session_errors(self):
        session = _session([1, 2, 3], tau=1)
        select_and_compute(session, _spec(1), np.random.default_rng(1))
        with pytest.raises(RuntimeError):
            select_and_compute(session, _spec(1), np.random.default_rng(1))

    def test_deterministic_slice_sizes(self):
        session = _session([9, 8, 7, 6, 5], noisy=False)
        _, m_hat = select_and_compute(session, _spec(2), np.random.default_rng(82))
        assert m_hat == 2

    def test_noise_marginal_matches_geometric(self):
        rng = np.random.default_rng(17)
        eps = 0.6
        draws = np.empty(10**5, dtype=np.int64)
        data = np.arange(40, dtype=np.uint64)
        for i in range(draws.size):
            session = RscSession(data, tau=1, budget=PrivacyBudget(eps), k=1)
            _, m_hat = select_and_compute(session, _spec(3), rng)
            draws[i] = m_hat - 3
        cap = 25
        observed = np.bincount(np.minimum(draws, cap), minlength=cap + 1).astype(float)
        probs = np.array([geometric_pmf(eps, k) for k in range(cap)])
        expected = np.append(probs, 1.0 - probs.sum()) * draws.size
        stat, _ = stats.chisquare(observed, expected)
        assert stat < chi_squared_critical(cap)


class TestDelayedCompute:
    def test_identity_passthrough(self):
        session = _session([4, 2, 6])
        select_and_compute(session, _spec(2), np.random.default_rng(1))
        got = delayed_compute(session, 0, lambda s: sorted(s.tolist()))
        assert got == [2, 4]

    def test_reuse_errors_at_k_one(self):
        session = _session([4, 2, 6])
        select_and_compute(session, _spec(2), np.random.default_rng(1))
        delayed_compute(session, 0, lambda s: None)
        with pytest.raises(RuntimeError):
            delayed_compute(session, 0, lambda s: None)

    def test_k_three_allows_three_computes(self):
        session = _session([4, 2, 6], k=3)
        select_and_compute(session, _spec(2), np.random.default_rng(1))
        for _ in range(3):
            delayed_compute(session, 0, lambda s: None)
        with pytest.raises(RuntimeError):
            delayed_compute(session, 0, lambda s: None)

    def test_unknown_index_errors(self):
        session = _session([4, 2, 6])
        with pytest.raises(KeyError):
            delayed_compute(session, 0, lambda s: None)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=40),
       st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=4),
       st.integers(min_value=0, max_value=2**31))
def test_slices_partition_the_input(values, sizes, seed):
    session = RscSession(np.array(values, dtype=np.uint64), tau=len(sizes),
                         budget=PrivacyBudget(0.5), k=1)
    rng = np.random.default_rng(seed)
    for step, m in enumerate(sizes):
        order = ascending_map() if step % 2 == 0 else descending_map()
        select_and_compute(session, SliceComputation(m=m, algorithm=None, map=order), rng)
    merged = Counter(session.remaining.tolist())
    for piece in session.stored_slices.values():
        merged.update(piece.tolist())
    assert merged == Counter(values)


class TestPrivacyCost:
    def test_delta_exact_k1(self):
        cost = privacy_cost(0.5, 1e-4, tau=3, k=1, delta_hat=1e-6, applications=1)
        assert cost.delta == pytest.approx(1e-6 + 2 * 3 * 1e-4, rel=1e-12)

    def test_delta_exact_k3(self):
        cost = privacy_cost(0.5, 1e-4, tau=2, k=3, delta_hat=1e-6, applications=1)
        assert cost.delta == pytest.approx(1e-6 + 6 * 2 * 1e-4, rel=1e-12)

    def test_call_cap_values(self):
        assert holder_call_cap(1e-6) == 76
        assert holder_call_cap(1e-3) == 38

    def test_epsilon_structure(self):
        # 3 eps max(apps, cap) + 2 k eps
        cost = privacy_cost(1.0, 0.0, tau=3, k=1, delta_hat=1e-6, applications=1)
        assert cost.epsilon == pytest.approx(3 * 76 + 2)

    def test_vacuous_delta_total_is_reported(self):
        # a total at or above 1 guarantees nothing, but is still the total
        cost = privacy_cost(1.0, 0.1, tau=6, k=1, delta_hat=0.1)
        assert cost.delta == pytest.approx(0.1 + 2 * 6 * 0.1, rel=1e-12)

    def test_zero_epsilon(self):
        assert privacy_cost(0.0, 0.0, tau=5, k=2, delta_hat=0.5, applications=3).epsilon == 0.0
