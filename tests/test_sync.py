import math
from collections import Counter

import numpy as np
import pytest

from slicedp import (
    AuditResult,
    DataHolder,
    OrderMap,
    SliceComputation,
    ascending_map,
    audit_call_count,
    descending_map,
    direct_run,
    estimate_tv,
    sample_geometric,
    simulate,
    sync_gamma,
    sync_map,
    sync_map_exact_dist,
    sync_threshold,
)


class TestThresholdSequence:
    def test_values_at_half(self):
        assert sync_threshold(0.5, 0) == pytest.approx(math.exp(-0.5), rel=1e-12)
        assert sync_threshold(0.5, 1) == 0.0

    def test_dominated_by_exponential(self):
        for eps in (0.1, 0.3, 0.9):
            prev = 2.0
            for i in range(12):
                t_i = sync_threshold(eps, i)
                assert t_i <= math.exp(-(i + 1) * eps) + 1e-15
                assert t_i <= prev
                prev = t_i

    def test_gamma_values(self):
        assert sync_gamma(0.5) == 1
        assert sync_gamma(0.1) == 7

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sync_threshold(0.0, 0)
        with pytest.raises(ValueError):
            sync_threshold(0.5, -1)


class TestCouplingMap:
    def test_b1_at_zero_is_fixed(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert sync_map(1, 0, 0.5, rng) == (0, 0)

    def test_b0_at_zero_sync_rate(self):
        rng = np.random.default_rng(1)
        n = 20000
        hits = sum(sync_map(0, 0, 0.5, rng).beta for _ in range(n))
        p = 1.0 - math.exp(-0.5)
        assert abs(hits / n - p) < 4 * math.sqrt(p * (1 - p) / n)

    def test_beyond_gamma_is_deterministic(self):
        rng = np.random.default_rng(2)
        for m in (1, 2, 5):
            for b in (0, 1):
                for _ in range(20):
                    assert sync_map(b, m, 0.5, rng) == (m - b, 1)

    def test_support_pointwise(self):
        # b=0 keeps alpha = m; b=1 has alpha = m - beta
        rng = np.random.default_rng(3)
        eps = 0.3
        for _ in range(500_000):
            m = sample_geometric(eps, rng)
            a0 = sync_map(0, m, eps, rng)
            assert a0.alpha == m and a0.beta in (0, 1)
            a1 = sync_map(1, m, eps, rng)
            assert (a1.alpha, a1.beta) in {(m, 0), (max(m - 1, 0), 1)}
            if m == 0:
                assert a1 == (0, 0)


class TestExactDistribution:
    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.5, 0.9])
    def test_mass_ratio_and_sync_probability(self, eps):
        cutoff = sync_gamma(eps) + 10
        d0 = sync_map_exact_dist(0, eps, cutoff)
        d1 = sync_map_exact_dist(1, eps, cutoff)
        for dist in (d0, d1):
            assert abs(sum(p for _, p in dist.outcomes) + dist.tail - 1.0) < 1e-12
        p0 = dict(d0.outcomes)
        p1 = dict(d1.outcomes)
        lo, hi = math.exp(-eps), math.exp(eps)
        for key in set(p0) | set(p1):
            a, b = p0.get(key, 0.0), p1.get(key, 0.0)
            if a < 1e-15 and b < 1e-15:
                continue
            assert b > 0 and lo - 1e-9 <= a / b <= hi + 1e-9, (key, a, b)
        # aggregated tails sit on synchronized outcomes and stay within ratio
        assert lo - 1e-9 <= d0.tail / d1.tail <= hi + 1e-9
        for dist in (d0, d1):
            sync_mass = sum(p for (alpha, beta), p in dist.outcomes if beta == 1) + dist.tail
            assert sync_mass >= 1.0 / 6.0

    def test_cutoff_below_gamma_rejected(self):
        with pytest.raises(ValueError):
            sync_map_exact_dist(0, 0.1, sync_gamma(0.1))

    def test_matches_sampling(self):
        eps = 0.5
        cutoff = sync_gamma(eps) + 10
        rng = np.random.default_rng(4)
        n = 200_000
        counts = Counter()
        for _ in range(n):
            m = sample_geometric(eps, rng)
            out = sync_map(1, m, eps, rng)
            counts[(min(out.alpha, cutoff + 1), out.beta)] += 1
        dist = dict(sync_map_exact_dist(1, eps, cutoff).outcomes)
        for key, p in dist.items():
            if p < 5e-4:
                continue
            se = math.sqrt(p * (1 - p) / n)
            assert abs(counts.get(key, 0) / n - p) <= 5 * se, key


def _len_algorithm(arr):
    return int(arr.size)


class TestHolderQuery:
    def test_b0_reports_drawn_size(self):
        rng = np.random.default_rng(5)
        data = list(range(1, 40))
        for _ in range(200):
            q_hat, beta, result = DataHolder(0, 0.5, rng).query(
                data, 0, q=3, algorithm=_len_algorithm, order_map=ascending_map())
            assert result == q_hat

    def test_b1_size_is_q_hat_plus_beta(self):
        rng = np.random.default_rng(6)
        data = list(range(1, 40))
        for _ in range(200):
            q_hat, beta, result = DataHolder(1, 0.5, rng).query(
                data, 0, q=3, algorithm=_len_algorithm, order_map=ascending_map())
            assert result == q_hat + beta

    def test_negative_q_rejected(self):
        with pytest.raises(ValueError):
            DataHolder(0, 0.5, np.random.default_rng(0)).query(
                [1], 0, q=-1, algorithm=None, order_map=ascending_map())


def _script(tau=2, m=2):
    specs = []
    for i in range(tau):
        order = ascending_map() if i % 2 == 0 else descending_map()
        algorithm = (lambda s: int(s.min()) if s.size else -1) if i % 2 == 0 \
            else (lambda s: int(s.max()) if s.size else -1)
        specs.append(SliceComputation(m=m, algorithm=algorithm, map=order))
    return specs


def _dedup_ascending():
    def apply(arr):
        return np.unique(np.asarray(arr, dtype=np.uint64))

    return OrderMap("dedup-ascending", apply)


class TestSimulate:
    def test_duplicate_diff_element_synchronizes_without_calls(self):
        # a value-collapsing map makes both versions identical up front
        rng = np.random.default_rng(7)
        script = [SliceComputation(m=1, algorithm=_len_algorithm, map=_dedup_ascending())]
        for _ in range(50):
            out = simulate([3, 5, 9], x=5, b=1, script=script, epsilon=0.5, rng=rng)
            assert out.holder_calls == 0
            assert out.final_status == 1

    def test_diff_element_out_of_reach_never_calls(self):
        # x sorts last under the ascending map and m stays tiny
        rng = np.random.default_rng(8)
        script = [SliceComputation(m=0, algorithm=_len_algorithm, map=ascending_map())]
        for _ in range(100):
            out = simulate(list(range(30)), x=1000, b=0, script=script, epsilon=0.5, rng=rng)
            assert out.holder_calls == 0

    def test_status_never_reverts(self):
        rng = np.random.default_rng(9)
        script = _script(tau=4, m=1)
        for _ in range(300):
            out = simulate(list(range(1, 12)), x=0, b=1, script=script, epsilon=0.5, rng=rng)
            if out.final_status == 1:
                assert out.final_diff is None
            if out.holder_steps:
                assert out.holder_steps == sorted(out.holder_steps)

    @pytest.mark.parametrize("b", [0, 1])
    def test_output_distribution_close_to_direct(self, b):
        rng = np.random.default_rng(10 + b)
        data = [3, 7, 1, 12, 9, 15, 4, 8]
        x = 5
        script = _script()
        trials = 20000
        sim_out, direct_out = [], []
        for _ in range(trials):
            sim_out.append(tuple(simulate(data, x, b, script, 0.5, rng).published))
            target = data + [x] if b == 1 else data
            direct_out.append(tuple(direct_run(target, script, 0.5, rng)))
        assert estimate_tv(sim_out, direct_out) <= 0.02

    def test_delayed_requests_route_to_slice_owner(self):
        rng = np.random.default_rng(12)
        script = _script(tau=2, m=2)
        delayed = [(0, lambda s: sorted(s.tolist())), (1, lambda s: sorted(s.tolist()))]
        for _ in range(100):
            out = simulate([3, 7, 1, 12, 9, 15, 4, 8], 5, 1, script, 0.5, rng, delayed=delayed)
            assert len(out.published) == 4
            first, second = out.published[2], out.published[3]
            assert first == sorted(first) and second == sorted(second)

    def test_delayed_matches_direct_distribution(self):
        rng = np.random.default_rng(13)
        data = [3, 7, 1, 12]
        script = [SliceComputation(m=1, algorithm=None, map=ascending_map()),
                  SliceComputation(m=1, algorithm=None, map=descending_map())]
        delayed = [(0, lambda s: tuple(sorted(s.tolist())))]
        trials = 8000
        sim_out = [tuple(simulate(data, 5, 1, script, 0.5, rng, delayed=delayed).published)
                   for _ in range(trials)]
        direct_out = [tuple(direct_run(data + [5], script, 0.5, rng, delayed=delayed))
                      for _ in range(trials)]
        assert estimate_tv(sim_out, direct_out) <= 0.03


class TestCallCountAudit:
    def test_eliminated_diff_counts_zero(self):
        rng = np.random.default_rng(14)
        script = [SliceComputation(m=1, algorithm=_len_algorithm, map=_dedup_ascending())]
        audit = audit_call_count([2, 4, 6], 4, 1, script, 0.5, trials=200, rng=rng)
        assert audit.histogram == {0: 200}

    def test_adversarial_tail_and_mean(self):
        rng = np.random.default_rng(15)
        n, tau = 48, 16
        script = [SliceComputation(m=1, algorithm=_len_algorithm, map=ascending_map())
                  for _ in range(tau)]
        trials = 20000
        audit = audit_call_count(list(range(1, n + 1)), 0, 1, script, 0.5,
                                 trials=trials, rng=rng)
        assert audit.mean <= 6.0
        for w, prob in audit.tail:
            if w > 12:
                break
            bound = (5.0 / 6.0) ** w
            se = math.sqrt(bound * (1 - bound) / trials)
            assert prob <= bound + 3 * se, (w, prob, bound)

    def test_summary_of_counts(self):
        audit = AuditResult.from_counts(np.array([2, 0, 2, 5], dtype=np.int64))
        assert audit.histogram == {0: 1, 2: 2, 5: 1}
        assert list(audit.histogram) == [0, 2, 5]
        assert audit.tail[:5] == [(1, 0.75), (2, 0.25), (3, 0.25), (4, 0.25), (5, 0.0)]
        assert len(audit.tail) == 20
        assert audit.mean == 2.25 and audit.trials == 4

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            audit_call_count([1], 0, 0, _script(), 0.5, trials=0,
                             rng=np.random.default_rng(0))
