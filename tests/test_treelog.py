import importlib
import math
from collections import Counter

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from slicedp import (
    OrderMap,
    RegimeError,
    TreeVertex,
    Universe,
    build_increment_dataset,
    embed_order_map,
    f_ipp,
    gamma,
    ipp,
    left_right_leaf,
    log_star,
    one_heavy_round,
    regime_threshold,
    slice_steps,
    trim_parameter,
    vertex_interval,
)
from slicedp.mechanisms import QualityFunction
from slicedp.treelog import _candidate_leaves, _sorted_ipp_score
from support import (clustered_instance, embed_oracle, embedding, gamma_sensitivity_check,
                     insertion_relabel_check, one_heavy_round_oracle, subtree_weight)


class TestParameters:
    def test_log_star_values(self):
        assert log_star(1) == 0
        assert log_star(2) == 1
        assert log_star(16) == 3
        assert log_star(2 ** 32) == 5
        with pytest.raises(ValueError):
            log_star(0.5)

    def test_trim_parameter(self):
        assert trim_parameter(1.0, 1e-3) == 691
        assert trim_parameter(0.5, 1e-3) == math.ceil(200 * math.log(1000))
        with pytest.raises(ValueError):
            trim_parameter(0.0, 0.5)
        with pytest.raises(ValueError):
            trim_parameter(0.5, 1.0)
        for epsilon, delta in ((1e-310, 1e-3), (1.0, 5e-324)):
            with pytest.raises(ValueError, match="overflows"):
                trim_parameter(epsilon, delta)

    def test_slice_steps_is_the_session_length(self, monkeypatch):
        assert [slice_steps(Universe(b)) for b in (3, 4, 8, 16, 64)] == [0, 3, 3, 6, 6]
        module = importlib.import_module("slicedp.treelog")
        original, taus = module.RscSession, []

        def spy(data, tau, *rest):
            taus.append(tau)
            return original(data, tau, *rest)

        monkeypatch.setattr(module, "RscSession", spy)
        ipp(Universe(16), [7] * 1000, 1.0, 0.5, np.random.default_rng(1),
            enforce_regime=False)
        assert taus == [slice_steps(Universe(16))]

    def test_regime_threshold(self):
        assert regime_threshold(Universe(32), 1.0, 1e-3) == 34550


class TestVertexGeometry:
    def test_validation(self):
        with pytest.raises(ValueError):
            TreeVertex(-1, 0)
        with pytest.raises(ValueError):
            TreeVertex(2, 4)
        with pytest.raises(ValueError):
            vertex_interval(TreeVertex(5, 0), Universe(4))
        with pytest.raises(ValueError):
            left_right_leaf(TreeVertex(4, 3), Universe(4))

    def test_interval_and_leaves(self):
        u = Universe(4)
        assert vertex_interval(TreeVertex(0, 0), u) == (0, 16)
        assert vertex_interval(TreeVertex(2, 3), u) == (12, 16)
        assert vertex_interval(TreeVertex(1, 1), u) == (8, 16)
        assert _candidate_leaves(TreeVertex(1, 1), u) == [8, 11, 15]
        assert left_right_leaf(TreeVertex(0, 0), u) == 7


class TestCountQueries:
    def test_interior_count_examples(self):
        assert f_ipp([1, 5, 9], 5) == 2
        assert f_ipp([1, 5, 9], 1) == 1
        assert f_ipp([1, 5, 9], 0) == 0
        assert f_ipp([1, 5, 9], 10) == 0

    def test_interior_count_is_unimodal(self):
        rng = np.random.default_rng(20)
        u = Universe(8)
        for _ in range(20):
            data = rng.integers(0, u.size, size=rng.integers(1, 60))
            scores = np.array([f_ipp(data, z) for z in range(u.size)])
            peak = int(np.argmax(scores))
            assert np.all(np.diff(scores[: peak + 1]) >= 0)
            assert np.all(np.diff(scores[peak:]) <= 0)

    @pytest.mark.parametrize("data", [[-1, 5], [1.7, 5], np.array([-1, 5])])
    def test_negative_or_fractional_data_is_a_value_error(self, data):
        with pytest.raises(ValueError):
            f_ipp(data, 3)
        with pytest.raises(ValueError):
            gamma(data, Universe(4))
        with pytest.raises(ValueError):
            one_heavy_round(data, Universe(4), 4, 1.0, np.random.default_rng(0))

    @pytest.mark.parametrize("z", [-1, 2.5, 2**64, np.int64(-3)])
    def test_bad_query_point_is_a_value_error(self, z):
        with pytest.raises(ValueError):
            f_ipp([1, 5, 9], z)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 20), st.integers(0, 2**64 - 1),
                              st.sampled_from([2**63 - 1, 2**63, 2**64 - 1])), max_size=40),
           st.one_of(st.integers(0, 21), st.integers(0, 2**64 - 1),
                     st.sampled_from([2**63 - 1, 2**63, 2**64 - 1])))
    def test_sorted_score_matches_f_ipp(self, values, z):
        data = np.array(values, dtype=np.uint64)
        assert _sorted_ipp_score(np.sort(data), z) == f_ipp(data, z)

    def test_subtree_weight_root_and_leaf(self):
        u = Universe(6)
        data = np.sort(np.array([3, 3, 3, 17, 40], dtype=np.uint64))
        assert subtree_weight(data, TreeVertex(0, 0), u) == 5
        assert subtree_weight(data, TreeVertex(6, 3), u) == 3
        assert subtree_weight(data, TreeVertex(6, 5), u) == 0

    def test_subtree_weight_full_enumeration(self):
        # every vertex of the depth-8 tree against a linear-scan count
        u = Universe(8)
        rng = np.random.default_rng(21)
        raw = rng.integers(0, u.size, size=300)
        data = np.sort(raw.astype(np.uint64))
        for depth in range(u.bit_length + 1):
            for prefix in range(1 << depth):
                v = TreeVertex(depth, prefix)
                lo, hi = vertex_interval(v, u)
                expected = int(np.count_nonzero((raw >= lo) & (raw < hi)))
                assert subtree_weight(data, v, u) == expected


class TestEmbedding:
    def test_hand_case(self):
        out = embedding([0, 0, 7], Universe(3))
        assert out.pairs == [(3, 0), (3, 0), (1, 7)]
        assert out.gamma == 1

    def test_all_equal(self):
        u = Universe(10)
        out = embedding([77] * 9, u)
        assert out.gamma == 0
        assert all(y == u.bit_length for y, _ in out.pairs)

    def test_shape_and_order(self):
        rng = np.random.default_rng(22)
        u = Universe(12)
        data = rng.integers(0, u.size, size=150)
        out = embedding(data, u)
        assert len(out.pairs) == 150
        assert all(1 <= y <= u.bit_length for y, _ in out.pairs)
        assert out.pairs == sorted(out.pairs, reverse=True)
        assert Counter(x for _, x in out.pairs) == Counter(int(v) for v in data)
        assert out.gamma == gamma(data, u)

    def test_label_counts_match_off_path_weights(self):
        rng = np.random.default_rng(23)
        u = Universe(10)
        for _ in range(30):
            raw = rng.integers(0, u.size, size=rng.integers(1, 120))
            data = np.sort(raw.astype(np.uint64))
            out = embedding(raw, u)
            counts = Counter(y for y, _ in out.pairs)
            leaf = out.path[-1]
            for q in range(1, u.bit_length + 1):
                heavy = out.path[q]
                sibling = TreeVertex(q, heavy.prefix ^ 1)
                expected = subtree_weight(data, sibling, u)
                if q == u.bit_length:
                    expected += subtree_weight(data, leaf, u)
                assert counts.get(q, 0) == expected

    def test_empty_rejected(self):
        rows = embed_order_map(Universe(4)).apply(np.array([], dtype=np.uint64))
        assert rows.shape == (0, 2)
        assert rows.dtype == np.uint64

    def test_order_map_rows(self):
        u = Universe(6)
        rows = embed_order_map(u).apply(np.array([9, 2, 9], dtype=np.uint64))
        assert rows.shape == (3, 2)
        assert rows.dtype == np.uint64
        listed = [(int(y), int(x)) for y, x in rows]
        assert listed == sorted(listed, reverse=True)

    def test_rows_project_to_sorted_labels(self):
        # a child level projects the embedding's rest read last row first, so
        # its trims find the labels in order and sort nothing
        module = importlib.import_module("slicedp.treelog")
        rng = np.random.default_rng(27)
        for bits in (4, 16, 64):
            u = Universe(bits)
            data = np.concatenate([np.full(50, u.size // 3, dtype=np.uint64),
                                   rng.integers(0, u.size - 1, size=50, dtype=np.uint64,
                                                endpoint=True)])
            rows = embed_order_map(u).apply(data)
            for k in (0, 1, 60):
                labels = module._project_labels(rows[k:])
                assert np.all(labels[:-1] <= labels[1:])
                assert sorted(labels.tolist()) == sorted((rows[k:, 0] - 1).tolist())


class TestBalanceStatistic:
    def test_sensitivity_on_random_pairs(self):
        rng = np.random.default_rng(24)
        u = Universe(16)
        for _ in range(2000):
            data = rng.integers(0, u.size, size=200)
            x = int(rng.integers(0, u.size))
            assert gamma_sensitivity_check(data, x, u) == 1

    def test_relabeling_fixes_the_front(self):
        rng = np.random.default_rng(25)
        u = Universe(16)
        checked = 0
        for trial in range(200):
            if trial % 4 == 0:
                # near-tie masses make the greedy paths actually diverge
                a, b = rng.integers(0, u.size, size=2)
                k = int(rng.integers(3, 40))
                data = [int(a)] * k + [int(b)] * (k + int(rng.integers(-1, 2)))
                data += [int(v) for v in rng.integers(0, u.size, size=4)]
            else:
                data = [int(v) for v in rng.integers(0, u.size,
                                                     size=rng.integers(2, 120))]
            x = int(rng.integers(0, u.size))
            ea = embedding(data, u)
            eb = embedding(data + [x], u)
            t = max(ea.gamma, eb.gamma) + 1
            zone = insertion_relabel_check(ea, eb, x, 2 * t)
            assert zone <= 2 * t
            checked += 1
        assert checked == 200


@st.composite
def heavy_path_cases(draw):
    """(bits, data): uniform, all-equal, clustered, or split across the
    root's midpoint 2^(L-1) with exact and near ties."""
    bits = draw(st.integers(1, 64))
    value = st.integers(0, (1 << bits) - 1)
    kind = draw(st.sampled_from(["uniform", "equal", "clustered", "boundary"]))
    n = draw(st.integers(1, 40))
    if kind == "uniform":
        return bits, draw(st.lists(value, min_size=n, max_size=n))
    if kind == "equal":
        return bits, [draw(value)] * n
    if kind == "clustered":
        return bits, [draw(value)] * n + draw(st.lists(value, max_size=4))
    half = 1 << (bits - 1)
    ties = st.sampled_from([half - 1, half])
    return bits, [half - 1] * n + [half] * n + draw(st.lists(ties, max_size=2))


def _assert_walk_matches_oracle(data, u, seed, t, epsilon):
    """gamma, the order map's rows and one heavy round (with the generator
    state after it) agree with the per-vertex descent; returns the oracle's
    (pairs, gamma, path)."""
    pairs, gamma_value, path = embed_oracle(data, u)
    assert gamma(data, u) == gamma_value
    assert [tuple(r) for r in embed_order_map(u).apply(data).tolist()] == pairs
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert one_heavy_round(data, u, t, epsilon, rng) == \
        one_heavy_round_oracle(data, u, t, epsilon, oracle_rng)
    assert rng.random() == oracle_rng.random()
    return pairs, gamma_value, path


class TestHeavyPathWalk:
    @settings(max_examples=400, deadline=None)
    @given(heavy_path_cases(), st.integers(0, 2 ** 32 - 1), st.integers(1, 60),
           st.sampled_from([0.1, 1.0]))
    def test_matches_the_per_vertex_descent(self, case, seed, t, epsilon):
        bits, values = case
        # a list mixing values on both sides of 2^63 would pass through float64
        data = np.array(values, dtype=np.uint64)
        u = Universe(bits)
        pairs, gamma_value, path = _assert_walk_matches_oracle(data, u, seed, t, epsilon)
        assert embedding(data, u) == (pairs, gamma_value, path)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 63).flatmap(lambda bits: st.tuples(
        st.just(bits), st.lists(st.integers(0, (2 << bits) - 1), min_size=1, max_size=30))),
        st.integers(0, 2 ** 32 - 1))
    def test_values_beyond_the_domain_weigh_nothing(self, case, seed):
        bits, values = case
        _assert_walk_matches_oracle(np.array(values, dtype=np.uint64), Universe(bits),
                                    seed, 4, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(heavy_path_cases(), st.integers(0, 2 ** 32 - 1), st.integers(1, 60))
    def test_input_order_changes_no_result_or_draw(self, case, seed, t):
        # sorted input (a level's remainder) is read without a copy; shuffled
        # and non-increasing input, ties included, is sorted first
        bits, values = case
        u = Universe(bits)
        ordered = np.sort(np.array(values, dtype=np.uint64))
        shuffled = np.random.default_rng(seed).permutation(ordered)
        module = importlib.import_module("slicedp.treelog")
        assert module._ascending(ordered) is ordered
        results = []
        for data in (ordered, shuffled, ordered[::-1]):
            data.flags.writeable = False
            rng = np.random.default_rng(seed)
            results.append((gamma(data, u), one_heavy_round(data, u, t, 1.0, rng),
                            rng.random()))
        assert results[0] == results[1] == results[2]


class TestOneHeavyRound:
    def test_balanced_split_triggers_at_root(self):
        u = Universe(16)
        t = 300
        rng = np.random.default_rng(26)
        data = [5] * t + [40000] * t
        outs = [one_heavy_round(data, u, t, 1.0, rng) for _ in range(200)]
        assert all(5 <= z <= 40000 for z in outs)
        assert sum(z == 32767 for z in outs) >= 195

    def test_all_equal_walks_to_the_leaf(self):
        u = Universe(16)
        rng = np.random.default_rng(27)
        for _ in range(50):
            assert one_heavy_round([123] * 40, u, 300, 1.0, rng) == 123

    def test_success_rate_on_promised_instances(self):
        u = Universe(16)
        epsilon, delta = 1.0, 0.05
        t = trim_parameter(epsilon, delta)
        rng = np.random.default_rng(28)
        trials, hits = 1000, 0
        for _ in range(trials):
            a, b = sorted(rng.integers(0, u.size, size=2))
            while a == b:
                a, b = sorted(rng.integers(0, u.size, size=2))
            k1 = int(rng.integers(t // 2 + 1, t + 1))
            k2 = int(rng.integers(t // 2 + 1, t + 1))
            data = [int(a)] * k1 + [int(b)] * k2 + \
                [int(v) for v in rng.integers(a, b + 1, size=10)]
            z = one_heavy_round(data, u, t, epsilon, rng)
            hits += int(a <= z <= b)
        assert hits / trials >= 1 - 2 * delta

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            one_heavy_round([], Universe(4), 10, 1.0, np.random.default_rng(0))



_IPP_SHAPES = [(3, "uniform"), (8, "all-equal"), (16, "all-equal"), (16, "clustered"),
               (64, "all-equal")]


def _ipp_instance(bits: int, shape: str):
    data_rng = np.random.default_rng(bits)
    u = Universe(bits)
    if shape == "uniform":
        return [int(v) for v in data_rng.integers(0, u.size, size=40)]
    if shape == "all-equal":
        return [u.size // 3] * 1000
    if shape == "clustered":
        return clustered_instance(data_rng, 1000, bits, outliers=30)
    # qc_optimize's solver input on a tent over 2^12 points rising to 4n: the
    # increments of its top n = 3,000, about 8 copies of each point below
    # the peak
    n, ys = 3000, np.arange(1 << 12)
    tent = np.minimum(4 * n * ys // 1500, 4 * n * (ys.size - 1 - ys) // (ys.size - 1 - 1500))
    return build_increment_dataset(np.maximum(tent - 3 * n, 0), n)


class TestInteriorPoint:
    def test_tiny_domain_matches_exponential_weights(self):
        u = Universe(3)
        data = [1, 1, 2, 5, 5, 6, 7]
        epsilon = 1.0
        weights = np.exp([epsilon * f_ipp(data, z) / 2.0 for z in range(u.size)])
        probs = weights / weights.sum()
        rng = np.random.default_rng(29)
        n = 20000
        counts = np.bincount(
            [ipp(u, data, epsilon, 0.1, rng, enforce_regime=False) for _ in range(n)],
            minlength=u.size)
        stat, _ = scipy.stats.chisquare(counts, n * probs)
        assert stat < scipy.stats.chi2.ppf(0.99, df=u.size - 1)

    def test_all_equal_returns_the_point(self):
        u = Universe(16)
        rng = np.random.default_rng(30)
        v = 12345
        hits = sum(ipp(u, [v] * 600, 1.0, 0.5, rng, enforce_regime=False) == v
                   for _ in range(50))
        assert hits >= 45

    def test_interior_on_clustered_data(self):
        u = Universe(16)
        epsilon, delta = 1.0, 0.05
        n = regime_threshold(u, epsilon, delta)
        rng = np.random.default_rng(31)
        hits = 0
        for _ in range(20):
            data = clustered_instance(rng, n, u.bit_length, outliers=25)
            z = ipp(u, data, epsilon, delta, rng)
            hits += int(min(data) <= z <= max(data))
        assert hits >= 18

    def test_fixed_seed_reproduces(self):
        u = Universe(8)
        rng = np.random.default_rng(32)
        data = [int(v) for v in rng.integers(0, u.size, size=2800)]
        a = ipp(u, data, 1.0, 0.5, np.random.default_rng(7))
        b = ipp(u, data, 1.0, 0.5, np.random.default_rng(7))
        assert a == b

    def test_regime_error_reports_sizes(self):
        u = Universe(32)
        with pytest.raises(RegimeError) as err:
            ipp(u, list(range(100)), 1.0, 1e-3, np.random.default_rng(0))
        assert err.value.required == 34550
        assert err.value.provided == 100

    def test_strict_level_shortfall_is_structured(self, monkeypatch):
        # with the whole-run check out of the way, the per-level check fires:
        # t = 70 at (1, 0.5), and a level needs 4t + 1 points
        monkeypatch.setattr(importlib.import_module("slicedp.treelog"),
                            "regime_threshold", lambda *args: 0)
        with pytest.raises(RegimeError) as err:
            ipp(Universe(16), list(range(40)), 1.0, 0.5, np.random.default_rng(1))
        assert err.value.required == 281
        assert err.value.provided == 40

    def test_every_stored_slice_is_read_once_through_delayed_compute(self, monkeypatch):
        module = importlib.import_module("slicedp.treelog")
        original, reads, sessions = module.delayed_compute, Counter(), []

        def spy(session, step, algorithm):
            reads[step] += 1
            sessions.append(session)
            return original(session, step, algorithm)

        monkeypatch.setattr(module, "delayed_compute", spy)
        # all-equal data has gamma 0, so both levels fail the gate and embed
        ipp(Universe(16), [7] * 1000, 1.0, 0.5, np.random.default_rng(1),
            enforce_regime=False)
        session = sessions[0]
        assert session.step == slice_steps(Universe(16)) == 6
        assert reads == {step: 1 for step in range(session.step)}

    @pytest.mark.parametrize("bits,shape", _IPP_SHAPES)
    def test_sorting_once_keeps_every_draw(self, monkeypatch, bits, shape):
        # the exponential mechanism scoring through f_ipp, which sorts its
        # data on every call, is the oracle of the sort-once scorer
        module = importlib.import_module("slicedp.treelog")
        u = Universe(bits)
        data = _ipp_instance(bits, shape)
        original, scored = module.exponential_mechanism, []

        def spy(candidates, q, dataset, epsilon, rng):
            scored.append(len(candidates))
            assert np.all(dataset[:-1] <= dataset[1:])
            return original(candidates, q, dataset, epsilon, rng)

        monkeypatch.setattr(module, "exponential_mechanism", spy)
        for seed in range(4):
            fast_rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            fast = ipp(u, data, 1.0, 0.5, fast_rng, enforce_regime=False)
            with monkeypatch.context() as patch:
                patch.setattr(module, "_IPP_QUALITY", QualityFunction(evaluate=f_ipp))
                oracle = ipp(u, data, 1.0, 0.5, oracle_rng, enforce_regime=False)
            assert fast == oracle
            assert fast_rng.random() == oracle_rng.random()
        # both users of the scorer ran on sorted data: the base case scores
        # every leaf of its 3-bit domain or less, the border mechanism at
        # most 3 leaves
        assert max(scored) >= 2 and (bits == 3 or min(scored) <= 3)

    @pytest.mark.parametrize("bits,shape", _IPP_SHAPES + [(16, "tent"), (64, "tent")])
    def test_trim_selection_keeps_every_draw(self, monkeypatch, bits, shape):
        # ipp with both trim maps stripped of `select`, so every trim slice
        # and remainder comes from a full stable sort, and the descending
        # trim leaves its remainder reversed, is the oracle of the trims'
        # sorted views and of the readers' fallback sort
        module = importlib.import_module("slicedp.treelog")
        u = Universe(bits)
        data = _ipp_instance(bits, shape)
        trim_map = module._trim_map

        def stripped(descending):
            order = trim_map(descending)
            return OrderMap(order.name, order.apply)

        for seed in range(4):
            fast_rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            fast = ipp(u, data, 1.0, 0.5, fast_rng, enforce_regime=False)
            with monkeypatch.context() as patch:
                patch.setattr(module, "_trim_map", stripped)
                oracle = ipp(u, data, 1.0, 0.5, oracle_rng, enforce_regime=False)
            assert fast == oracle
            assert fast_rng.random() == oracle_rng.random()
