import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from slicedp import (
    LabeledSample,
    OrderMap,
    PrivacyBudget,
    QcInstance,
    RscSession,
    SliceComputation,
    Universe,
    ascending_map,
    axis_map,
    cumulative_ipp,
    cumulative_regime_threshold,
    delayed_compute,
    descending_map,
    embed_order_map,
    gamma,
    geometric_pmf,
    holder_call_cap,
    ipp,
    learn_rectangles,
    learn_threshold_realizable,
    one_heavy_round,
    privacy_cost,
    qc_optimize,
    select_and_compute,
)

from slicedp.engine import as_elements
from slicedp.treelog import _trim_map
from support import (axis_order_oracle, axis_select_oracle, chi_squared_critical,
                     dataset_oracle, planted_box)


class TestDataset:
    def test_multiset_semantics(self):
        d = as_elements([5, 1, 5, 3], 8)
        assert sorted(d.tolist()) == [1, 3, 5, 5]

    def test_range_check(self):
        with pytest.raises(ValueError):
            as_elements([256], 8)

    def test_bit_length_bounds(self):
        with pytest.raises(ValueError):
            as_elements([0], 0)
        with pytest.raises(ValueError):
            as_elements([0], 65)
        assert as_elements([2**63], 64)[0] == 2**63

    def test_lists_straddling_two_to_the_63_stay_exact(self):
        elements = as_elements([2**63 - 1, 2**63], 64)
        assert elements.dtype == np.uint64
        assert elements.tolist() == [2**63 - 1, 2**63]
        rows = as_elements([[1, 2**63], [2**63 - 1, 0]], 64)
        assert rows.tolist() == [[1, 2**63], [2**63 - 1, 0]]
        assert as_elements([2**64 - 1, 5], 64).tolist() == [2**64 - 1, 5]

    def test_negative_elements_are_rejected_at_every_bit_length(self):
        for bits in (1, 8, 63, 64):
            for data in ([-5], [3, -1], [-1, 2**63], np.array([-2, 4])):
                with pytest.raises(ValueError, match="negative"):
                    as_elements(data, bits)

    @pytest.mark.parametrize("data", [[1.5, 2.9], [3.0, 0.5], [float("inf")],
                                      [float("nan")], np.array([2.0, -0.25])])
    def test_non_integer_floats_are_rejected(self, data):
        with pytest.raises(ValueError, match="whole number"):
            as_elements(data, 8)

    def test_whole_floats_load(self):
        elements = as_elements([3.0, 4.0], 8)
        assert elements.dtype == np.uint64
        assert elements.tolist() == [3, 4]


_VALUES = st.one_of(st.sampled_from([0, 1, 2**63 - 1, 2**63, 2**64 - 1, -1]),
                    st.integers(0, 300), st.integers(0, 2**64 - 1),
                    st.integers(-(2**63), -1))
_DTYPES = {"list": None, "int64": np.int64, "uint64": np.uint64, "float64": np.float64,
           "object": object}


@st.composite
def _element_inputs(draw):
    """Lists or int64, uint64, float64 and object arrays, 1-D or 2-D, maybe
    empty; lists may also hold floats."""
    kind = draw(st.sampled_from(sorted(_DTYPES)))
    rows, cols = draw(st.integers(0, 5)), draw(st.sampled_from([None, 1, 3]))
    values = _VALUES
    if kind == "list":
        values = st.one_of(values, st.sampled_from([0.5, 3.0, -2.0, float(2**63),
                                                    float("nan")]))
    elif kind in ("int64", "uint64"):
        info = np.iinfo(_DTYPES[kind])
        values = values.filter(lambda v: info.min <= v <= info.max)
    flat = draw(st.lists(values, min_size=rows * (cols or 1), max_size=rows * (cols or 1)))
    data = flat if cols is None else [flat[r * cols:(r + 1) * cols] for r in range(rows)]
    if kind != "list":
        data = np.array(data, dtype=_DTYPES[kind])
        if cols is not None and rows == 0:
            data = data.reshape(0, cols)
    return data


def _converted(convert, data, bits):
    try:
        return convert(data, bits)
    except ValueError:
        return ValueError


class TestElementConversion:
    @settings(max_examples=400, deadline=None)
    @given(_element_inputs(), st.one_of(st.just(64), st.integers(1, 64)))
    @example([2**63 - 1, 2**63], 64)
    @example([[5, 2**63], [2**63 - 1, 0]], 64)
    @example(np.array([[1, 2**64 - 1]], dtype=np.uint64), 64)
    @example(np.array([2**63 - 1, 2**63], dtype=object), 64)
    @example([3, 0.5], 8)
    @example(np.array([[2.0, 2.5]]), 64)
    @example([], 1)
    def test_matches_the_dataset_class(self, data, bits):
        new, old = _converted(as_elements, data, bits), _converted(dataset_oracle, data, bits)
        if old is ValueError:
            assert new is ValueError
            return
        assert new is not ValueError
        assert new.dtype == np.uint64 and new.shape == old.shape
        np.testing.assert_array_equal(new, old)
        if isinstance(data, np.ndarray) and data.dtype == np.uint64:
            assert new is data

    def test_uint64_at_64_bits_is_returned_as_is(self):
        data = np.array([[0, 2**64 - 1], [2**63, 5]], dtype=np.uint64)
        assert as_elements(data, 64) is data
        assert as_elements(data[1:, 1], 3).tolist() == [5]
        assert as_elements(data[1:, 1], 3).base is data
        with pytest.raises(ValueError, match="out of range"):
            as_elements(data, 63)

    @pytest.mark.parametrize("z", [0, 7, 2**64 - 1, np.uint64(3)])
    def test_scalars_convert(self, z):
        assert int(as_elements(z, 64)) == int(z)

    def test_fractional_objects_are_rejected(self):
        with pytest.raises(ValueError, match="whole number"):
            as_elements(np.array([2, 1.5], dtype=object), 8)


def _draw_bits(rng, bits, size):
    return rng.integers(0, (1 << bits) - 1, size=size, endpoint=True, dtype=np.uint64)


def _read_only(values, dtype=np.uint64):
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


class TestCallerArrays:
    """A checked uint64 array reaches the algorithms without a copy at every
    bit length, so no public entry point may write into it: each gets a
    read-only array, which raises on a write, and must leave it unchanged."""

    @staticmethod
    def _unchanged(arr, call):
        before = arr.copy()
        call()
        np.testing.assert_array_equal(arr, before)

    @pytest.mark.parametrize("bits", [8, 16, 64])
    def test_interior_point(self, bits):
        u = Universe(bits)
        rng = np.random.default_rng(bits)
        data = _read_only(np.concatenate([np.full(1000, u.size // 3, dtype=np.uint64),
                                          _draw_bits(rng, bits, 300)]))
        self._unchanged(data, lambda: ipp(u, data, 1.0, 0.5, rng, enforce_regime=False))
        self._unchanged(data, lambda: gamma(data, u))
        self._unchanged(data, lambda: one_heavy_round(data, u, 70, 1.0, rng))

    def test_cumulative_interior_point_and_optimizer(self):
        u, epsilon, delta, c = Universe(4), 8.0, 0.5, 1
        n = cumulative_regime_threshold(u, epsilon, delta, c)
        rng = np.random.default_rng(3)
        data = _read_only(np.full(n, 11))
        self._unchanged(data, lambda: cumulative_ipp(u, data, epsilon, delta, rng, c))
        ys = np.arange(u.size)
        scores = _read_only(np.maximum(4 * n - math.ceil(4 * n / 5) * np.abs(ys - 5), 0),
                            np.int64)
        out = []
        self._unchanged(scores, lambda: out.append(
            qc_optimize(QcInstance(scores), epsilon, delta, rng, c)))
        assert out[0].branch == "interior"

    def test_learners(self):
        u, rng = Universe(8), np.random.default_rng(4)
        points, labels, _ = planted_box(rng, 13000, 500, 2, 8)
        points, labels = _read_only(points), _read_only(labels, np.int64)
        hypotheses = []
        self._unchanged(points, lambda: hypotheses.append(learn_rectangles(
            LabeledSample(points, labels, u), 1.0, 0.5, rng)))
        assert hypotheses[0].rectangle is not None
        line = _read_only(np.concatenate([np.arange(0, 100), np.arange(150, 256)]))
        sides = _read_only((line < 100).astype(np.int64), np.int64)
        self._unchanged(line, lambda: learn_threshold_realizable(
            LabeledSample(line, sides, u), 0.1, 0.1, 1.0, 0.5, rng))

    @pytest.mark.parametrize("order", [ascending_map(), descending_map(), axis_map(0),
                                       axis_map(1, reverse=True),
                                       embed_order_map(Universe(16)), _trim_map(False),
                                       pytest.param(_trim_map(True), id="descending-trim")],
                             ids=lambda o: o.name)
    def test_select_and_compute_under_each_map(self, order):
        rng = np.random.default_rng(5)
        data = _read_only(_draw_bits(rng, 16, (200, 2) if order.name.startswith("axis")
                                    else 200))

        def run():
            session = RscSession(data, tau=4, budget=PrivacyBudget(1.0, 1e-6))
            for _ in range(4):
                select_and_compute(session, SliceComputation(20, len, order), rng)
            delayed_compute(session, 0, len)

        self._unchanged(data, run)


# (dtype, low, high, offset): columns drawn in [low, high], and `offset` added
# to a random half of them. Offset 2^62 mixes 2-bit and 63-bit columns, so the
# packed rows need two keys and the first key ties while later columns differ.
MIXED_ROWS = (np.uint64, 0, 3, 1 << 62)
UINT64_ROWS = [(np.uint64, 0, 3, 0), (np.uint64, 0, (1 << 16) - 1, 0),
               (np.uint64, 0, (1 << 64) - 1, 0),
               (np.uint64, (1 << 63) - 2, (1 << 63) + 2, 0), MIXED_ROWS]


def _draw_rows(rng, kind, n, d):
    dtype, lo, hi, offset = kind
    rows = rng.integers(lo, hi, size=(n, d), endpoint=True, dtype=dtype)
    rows[:, rng.random(d) < 0.5] += dtype(offset)
    return rows


def _row_counts(rows):
    return Counter(map(tuple, rows.tolist()))


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
    @given(st.integers(1, 8).flatmap(lambda d: st.tuples(
        st.just(d), st.integers(0, d - 1), st.integers(0, 40),
        st.sampled_from([(np.uint64, 0, 3, 0), (np.uint64, 0, (1 << 16) - 1, 0),
                         (np.uint64, 0, (1 << 64) - 1, 0), (np.int64, -3, 3, 0),
                         (np.int64, 0, (1 << 40) - 1, 0), MIXED_ROWS]))),
        st.booleans(), st.sampled_from(["C", "F", "strided"]), st.integers(0, 2 ** 32 - 1))
    def test_axis_map_matches_a_lexsort_per_column(self, shape, reverse, layout, seed):
        d, axis, n, kind = shape
        rows = _draw_rows(np.random.default_rng(seed), kind, n, d)
        order = axis_map(axis, reverse)
        out = order.apply(rows)
        assert out.dtype == rows.dtype
        assert out.tolist() == axis_order_oracle(rows, axis, reverse).tolist()
        # the selection fast path: the slice in order, the rest as a multiset;
        # split may permute its input, so each call gets its own copy, laid
        # out row-major, column-major, or as the loader's view of a wider table
        for k in range(n + 1):
            work = _laid_out(rows, layout)
            head, rest = order.split(work, k)
            assert head.dtype == rest.dtype == rows.dtype
            assert head.shape == (k, d) and rest.shape == (n - k, d)
            assert head.tolist() == out[:k].tolist()
            assert _row_counts(rest) == _row_counts(out[k:])
            assert _row_counts(work) == _row_counts(rows)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["descending", "projected", "projected-rows"]),
           st.one_of(st.integers(0, 40), st.integers(100, 400)),
           st.sampled_from([(0, 3), (0, (1 << 64) - 1), ((1 << 63) - 2, (1 << 63) + 2)]),
           st.sampled_from(["shuffled", "ascending", "descending"]),
           st.integers(0, 2 ** 32 - 1))
    def test_trim_selects_match_a_full_sort(self, kind, n, bounds, arrangement, seed):
        # ipp's two trim maps: values tie heavily or straddle 2^63, and the
        # projected map also takes embedded (label, element) rows; inputs come
        # shuffled, sorted (a level's remainder) or reversed (an embedding's
        # rows, whose labels do not increase)
        rng = np.random.default_rng(seed)
        a = rng.integers(*bounds, size=n, endpoint=True, dtype=np.uint64)
        if kind == "projected-rows":
            labels = rng.integers(1, 64, size=n, endpoint=True, dtype=np.uint64)
            a = np.column_stack((labels, a))
        if arrangement != "shuffled":
            a = a[np.lexsort(a.T[::-1]) if a.ndim == 2 else np.argsort(a)]
            a = a[::-1] if arrangement == "descending" else a
        order = _trim_map(kind == "descending")
        assert order.select is not None
        out = order.apply(a)
        for k in range(n + 1):
            # select may sort its input in place, so each call gets a copy
            head, rest = order.split(a.copy(), k)
            assert head.dtype == rest.dtype == out.dtype == np.uint64
            assert head.shape == (k,) and rest.shape == (n - k,)
            np.testing.assert_array_equal(head, out[:k])
            np.testing.assert_array_equal(np.sort(rest), np.sort(out[k:]))
            if 0 < k < n:
                # split takes `select` here: the rest is sorted ascending
                assert np.all(rest[:-1] <= rest[1:])
                assert not np.shares_memory(head, rest)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=30),
           st.integers(min_value=0, max_value=63))
    def test_adjacency_preserving(self, values, extra):
        for order in (ascending_map(), descending_map()):
            short = order.apply(np.array(values, dtype=np.uint64)).tolist()
            long = order.apply(np.array(values + [extra], dtype=np.uint64)).tolist()
            assert _adjacent_lists(short, long)
            assert Counter(short) == Counter(values)


def _laid_out(rows, layout):
    """A copy of `rows` that is C-contiguous, Fortran-contiguous, or a
    strided view that leaves out a last column."""
    if layout == "F":
        return np.asfortranarray(rows)
    if layout == "strided":
        wide = np.zeros((rows.shape[0], rows.shape[1] + 1), dtype=rows.dtype)
        wide[:, :-1] = rows
        return wide[:, :-1]
    return rows.copy()


def _session(data, tau=4, k=1, epsilon=1.0, noisy=True):
    return RscSession(np.array(data, dtype=np.uint64), tau=tau,
                      budget=PrivacyBudget(epsilon, 1e-6), k=k, noisy_sizes=noisy)


def _spec(m, order=None, algorithm=None):
    return SliceComputation(m=m, algorithm=algorithm, map=order or ascending_map())


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.one_of(st.integers(0, 40), st.integers(100, 300)),
       st.sampled_from(UINT64_ROWS),
       st.lists(st.tuples(st.integers(0, 7), st.booleans(), st.integers(0, 120)),
                min_size=1, max_size=8),
       st.integers(0, 2 ** 32 - 1))
def test_swap_remove_session_matches_the_gather(d, n, kind, steps, seed):
    # a whole session of axis steps, against the mask-and-compress select the
    # in-place one replaced: equal slices in order, equal remainder multisets
    # after every step, stored slices that later steps leave alone, and the
    # caller's array unchanged
    data = _draw_rows(np.random.default_rng(seed), kind, n, d)
    before = data.copy()
    session = RscSession(data, tau=len(steps), budget=PrivacyBudget(1.0), noisy_sizes=False)
    rest, heads = before, []
    for step, (axis, reverse, m) in enumerate(steps):
        axis %= d
        select_and_compute(session, SliceComputation(m, None, axis_map(axis, reverse)),
                           np.random.default_rng(0))
        k = min(m, len(rest))
        if 0 < k < len(rest):
            head, rest = axis_select_oracle(rest, axis, reverse, k)
        else:
            ordered = axis_order_oracle(rest, axis, reverse)
            head, rest = ordered[:k], ordered[k:]
        heads.append(head)
        got = session.stored_slices[step]
        assert got.dtype == session.remaining.dtype == np.uint64
        assert got.shape == (k, d) and session.remaining.shape == rest.shape
        assert got.tolist() == head.tolist()
        assert _row_counts(session.remaining) == _row_counts(rest)
    for step, head in enumerate(heads):
        assert session.stored_slices[step].tolist() == head.tolist()
    np.testing.assert_array_equal(data, before)


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


    @pytest.mark.parametrize("data", [[-3, 2], [1.5, 2], np.array([-3, 2]),
                                      np.array([1.5, 2.0])])
    def test_session_rejects_non_elements(self, data):
        with pytest.raises(ValueError):
            RscSession(data, tau=1, budget=PrivacyBudget(1.0), k=1)

    def test_session_holds_uint64(self):
        session = RscSession(np.array([3, 1]), tau=1, budget=PrivacyBudget(1.0), k=1)
        assert session.remaining.dtype == np.uint64
        assert session.remaining.tolist() == [3, 1]


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
