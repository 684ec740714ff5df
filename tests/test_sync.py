import math
import os
import re
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slicedp import (
    AuditResult,
    DataHolder,
    OrderMap,
    Simulation,
    SliceComputation,
    ascending_map,
    audit_call_count,
    descending_map,
    direct_run,
    estimate_tv,
    run_trials,
    sample_geometric,
    simulate,
    sync_gamma,
    sync_map,
    sync_map_exact_dist,
    sync_threshold,
    trial_streams,
)
from slicedp.cli import _audit_instance
from slicedp.sync import _KnownState, _diff_and_rank
from slicedp.treelog import _trim_map
from support import (_diff_and_rank_oracle, chi_squared_critical, chi_squared_goodness_of_fit,
                     direct_outputs_exact, holder_calls_dp, holder_calls_exact, simulate_oracle)


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

    @pytest.mark.parametrize("b", [0, 1])
    @pytest.mark.parametrize("eps", [1e-3, 0.5, 1.0])
    def test_log_outcomes_match_the_probabilities(self, b, eps):
        # one log per listed outcome; it agrees with the probability wherever
        # that is a normal float, is -inf only at mass 0, and stays finite
        # where the probability underflows
        dist, gamma = sync_map_exact_dist(b, eps, 10_000), sync_gamma(eps)
        assert [key for key, _ in dist.log_outcomes] == [key for key, _ in dist.outcomes]
        for (key, p), (_, log_p) in zip(dist.outcomes, dist.log_outcomes):
            if p >= sys.float_info.min:
                assert math.isclose(math.log(p), log_p, rel_tol=1e-12, abs_tol=1e-9), key
            else:
                assert (log_p == -math.inf) == (key[1] == 0 and key[0] >= gamma), key

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


def _arrangements(data, x):
    """The simulator's pair for one step under the ascending map: the map of
    D and of D + {x}."""
    base = np.asarray(data, dtype=np.uint64)
    return ascending_map().apply(base), ascending_map().apply(np.append(base, np.uint64(x)))


class TestHolderQuery:
    def test_b0_reports_drawn_size(self):
        rng = np.random.default_rng(5)
        arrangements = _arrangements(range(1, 40), 0)
        for _ in range(200):
            q_hat, beta, result = DataHolder(0, 0.5, rng).query(
                arrangements, q=3, algorithm=_len_algorithm, step=0)
            assert result == q_hat

    def test_b1_size_is_q_hat_plus_beta(self):
        rng = np.random.default_rng(6)
        arrangements = _arrangements(range(1, 40), 0)
        for _ in range(200):
            q_hat, beta, result = DataHolder(1, 0.5, rng).query(
                arrangements, q=3, algorithm=_len_algorithm, step=0)
            assert result == q_hat + beta

    def test_negative_q_rejected(self):
        with pytest.raises(ValueError):
            DataHolder(0, 0.5, np.random.default_rng(0)).query(
                _arrangements([1], 0), q=-1, algorithm=None, step=0)


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

    @pytest.mark.parametrize("x, order", [(0, ascending_map()), (5, _dedup_ascending())],
                             ids=["holder-slice", "simulator-slice"])
    def test_second_delayed_request_refused_like_direct(self, x, order):
        data = [3, 5, 9]
        script = [SliceComputation(m=1, algorithm=None, map=order)] * 2
        rng = np.random.default_rng(16)
        # x = 0 sorts first, so step 0 is the holder's; x = 5 is collapsed
        # into the data, so the simulator slices step 0 itself
        owner = simulate(data, x, 1, script, 0.5, rng, delayed=[(0, _len_algorithm)])
        assert (owner.holder_steps[:1] == [0]) == (x == 0)
        twice = [(0, _len_algorithm), (0, _len_algorithm)]
        message = re.escape("slice 0 already received 1 delayed compute(s)")
        with pytest.raises(RuntimeError, match=message):
            direct_run(data + [x], script, 0.5, rng, delayed=twice)
        with pytest.raises(RuntimeError, match=message):
            simulate(data, x, 1, script, 0.5, rng, delayed=twice)

    @pytest.mark.parametrize("data, x", [([-1, 3], 0), ([1, 3], -5), ([1.5, 3], 0),
                                         ([1, 3], 2.5), ([1, 3], 1 << 64)],
                             ids=["negative-data", "negative-x", "float-data", "float-x",
                                  "x-too-large"])
    def test_bad_input_is_a_value_error(self, data, x):
        rng = np.random.default_rng(17)
        with pytest.raises(ValueError):
            simulate(data, x, 1, _script(), 0.5, rng)
        with pytest.raises(ValueError):
            direct_run(data + [x], _script(), 0.5, rng)

    @pytest.mark.parametrize("data, x, message", [
        ([1, 3], [], "x must be one element"),
        ([1, 3], [1, 2], "x must be one element"),
        ([[1, 2], [3, 4]], 0, "data must be 1-D"),
    ], ids=["no-x", "two-x", "2d-data"])
    def test_what_it_cannot_simulate_is_a_value_error(self, data, x, message):
        with pytest.raises(ValueError, match=message):
            simulate(data, x, 1, _script(), 0.5, np.random.default_rng(18))
        with pytest.raises(ValueError, match=message):
            Simulation(data, x, _script(), 0.5).holder_calls(1, np.random.default_rng(18))

    def test_empty_script_raises_like_direct_run(self):
        rng = np.random.default_rng(19)
        with pytest.raises(ValueError) as direct:
            direct_run([1, 3], [], 0.5, rng)
        with pytest.raises(ValueError, match=re.escape(str(direct.value))):
            simulate([1, 3], 0, 1, [], 0.5, rng)
        with pytest.raises(ValueError, match=re.escape(str(direct.value))):
            Simulation([1, 3], 0, [], 0.5).holder_calls(1, rng)


def _slice_tuple(arr):
    return tuple(arr.tolist())


_MAPS = {"ascending": ascending_map(), "descending": descending_map(),
         "dedup": _dedup_ascending(),
         # relabels, so the diff element after the map differs from x
         "halving": OrderMap("halving", lambda a: np.sort(a) // np.uint64(2))}
_POOL = st.sampled_from([0, 1, 2, 7, 2 ** 63, 2 ** 64 - 1])


@st.composite
def _sessions(draw):
    data = draw(st.lists(_POOL, max_size=12))
    x = draw(st.one_of(_POOL, st.sampled_from(data)) if data else _POOL)
    script = [SliceComputation(m=draw(st.integers(0, 3)),
                               algorithm=draw(st.sampled_from([_slice_tuple, None])),
                               map=_MAPS[draw(st.sampled_from(sorted(_MAPS)))])
              for _ in range(draw(st.integers(1, 5)))]
    steps = draw(st.lists(st.integers(0, len(script) - 1), unique=True, max_size=2))
    delayed = [(step, _slice_tuple) for step in steps] or None
    return data, x, script, delayed


class TestSimulateMatchesListOracle:
    @settings(max_examples=300, deadline=None)
    @given(_sessions(), st.integers(0, 1), st.sampled_from([0.2, 0.5, 1.0]),
           st.integers(0, 2 ** 32 - 1))
    def test_same_transcript_and_draws(self, session, b, epsilon, seed):
        data, x, script, delayed = session
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        new = simulate(data, x, b, script, epsilon, rng_new, delayed=delayed)
        old = simulate_oracle(data, x, b, script, epsilon, rng_old, delayed=delayed)
        assert new.published == old.published
        assert new.holder_calls == old.holder_calls
        assert new.holder_steps == old.holder_steps
        assert new.final_status == old.final_status
        assert new.final_diff == old.final_diff
        assert rng_new.random() == rng_old.random()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 12), st.integers(1, 8), st.booleans(), st.integers(0, 1),
           st.sampled_from([0.2, 0.5, 1.0]), st.integers(0, 2 ** 32 - 1))
    def test_map_applies_per_step(self, size, tau, collapse, b, epsilon, seed):
        # x = 0 sorts first under the ascending map, so every step up to the
        # holder's synchronization calls the holder; under the collapsing
        # map x is already in the data, so step 0 eliminates it
        data = list(range(1, size + 1))
        x = 1 if collapse and data else 0
        base = _dedup_ascending() if collapse else ascending_map()
        applies = [0] * tau

        def counting(step):
            def apply(a):
                applies[step] += 1
                return base.apply(a)
            return OrderMap(base.name, apply)

        counted = [SliceComputation(1, _slice_tuple, counting(i)) for i in range(tau)]
        plain = [SliceComputation(1, _slice_tuple, base) for _ in range(tau)]
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        new = simulate(data, x, b, counted, epsilon, rng_new)
        old = simulate_oracle(data, x, b, plain, epsilon, rng_old)
        synced = 1 if x else len(new.holder_steps)
        assert new.holder_steps == list(range(0 if x else synced))
        # two applies while the diff element is live, one after; a holder
        # step that mapped again would count three
        assert applies == [2] * synced + [1] * (tau - synced)
        assert new.published == old.published
        assert new.holder_steps == old.holder_steps
        assert rng_new.random() == rng_old.random()

    @pytest.mark.parametrize("apply", [
        # odd-sized inputs lose their two largest elements
        lambda a: np.sort(a)[:-2] if a.size % 2 else np.sort(a),
        # odd-sized inputs come out descending, so the suffixes disagree
        lambda a: np.sort(a)[::-1] if a.size % 2 else np.sort(a),
        # odd-sized inputs drop their smallest and lead with their largest
        # twice, so the suffixes disagree in their first element only
        lambda a: np.concatenate(([a.max()] * 2, np.sort(a)[1:-1])) if a.size % 2
        else np.sort(a),
    ], ids=["drops-two", "suffixes-disagree", "first-suffix-element"])
    def test_broken_maps_raise_the_same_message(self, apply):
        data = np.array([1, 2, 3, 4], dtype=np.uint64)
        short, long = apply(data), apply(np.append(data, np.uint64(9)))
        with pytest.raises(ValueError) as old:
            _diff_and_rank_oracle([int(v) for v in short], [int(v) for v in long])
        with pytest.raises(ValueError, match=re.escape(str(old.value))):
            _diff_and_rank(short, long)


def _counting_script(base, tau, applies):
    """`tau` steps of m = 1 under `base`, each counting its applies."""
    def counting(step):
        def apply(a):
            applies[step] += 1
            return base.apply(a)
        return OrderMap(base.name, apply)

    return [SliceComputation(1, _slice_tuple, counting(i)) for i in range(tau)]


def _scribble(s):
    s[...] = 7


class TestSimulationInstance:
    """One `Simulation` serves many trials: step 0's arrangement is computed
    once, its arrays are read-only, and every trial is a fresh run."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 12), st.integers(1, 8), st.booleans(), st.integers(0, 1),
           st.sampled_from([0.2, 0.5, 1.0]), st.integers(0, 2 ** 32 - 1))
    def test_step_zero_is_mapped_once_per_instance(self, size, tau, collapse, b, epsilon,
                                                   seed):
        # the instance of test_map_applies_per_step, run for several trials
        data = list(range(1, size + 1))
        x = 1 if collapse and data else 0
        base = _dedup_ascending() if collapse else ascending_map()
        applies = [0] * tau
        simulation = Simulation(data, x, _counting_script(base, tau, applies), epsilon)
        assert applies == [2] + [0] * (tau - 1)
        plain = [SliceComputation(1, _slice_tuple, base) for _ in range(tau)]
        expected = [2] + [0] * (tau - 1)
        for trial in range(4):
            rng, reference = (np.random.default_rng([seed, trial]) for _ in range(2))
            new = simulation.run(b, rng)
            old = simulate_oracle(data, x, b, plain, epsilon, reference)
            assert (new.published, new.holder_steps) == (old.published, old.holder_steps)
            assert rng.random() == reference.random()
            synced = 1 if x else len(new.holder_steps)
            for i in range(1, tau):
                expected[i] += 2 if i < synced else 1
            assert applies == expected
        # the count maps only the steps up to its synchronization, step 0 never
        for trial in range(4):
            calls = simulation.holder_calls(b, np.random.default_rng([seed, trial]))
            synced = 1 if x else calls
            for i in range(1, min(synced, tau)):
                expected[i] += 2
            assert applies == expected

    @pytest.mark.parametrize("x, order", [(0, ascending_map()), (5, _dedup_ascending())],
                             ids=["holder-slice", "simulator-slice"])
    def test_a_write_into_a_slice_raises(self, x, order):
        # x = 0 sorts first, so the holder slices step 0; x = 5 is collapsed
        # into the data, so the simulator does
        data = np.array([3, 5, 9], dtype=np.uint64)
        script = [SliceComputation(1, _slice_tuple, order)] * 2
        simulation = Simulation(data, x, script, 0.5)
        for b in (0, 1):
            with pytest.raises(ValueError, match="read-only"):
                simulation.run(b, np.random.default_rng(20), delayed=[(0, _scribble)])
        writing = Simulation(data, x, [SliceComputation(1, _scribble, order)] + script, 0.5)
        for trial in (lambda rng: writing.run(1, rng), writing.direct):
            with pytest.raises(ValueError, match="read-only"):
                trial(np.random.default_rng(21))
        # the caller's array keeps its flags and values, and later trials
        # run as if the writes had never been tried
        assert data.flags.writeable and data.tolist() == [3, 5, 9]
        for seed in range(20):
            new = simulation.run(1, np.random.default_rng(seed), delayed=[(0, _slice_tuple)])
            old = simulate_oracle(data, x, 1, script, 0.5, np.random.default_rng(seed),
                                  delayed=[(0, _slice_tuple)])
            assert (new.published, new.holder_steps) == (old.published, old.holder_steps)
            assert (simulation.direct(np.random.default_rng(seed))
                    == direct_run(data, script, 0.5, np.random.default_rng(seed)))

    @settings(max_examples=100, deadline=None)
    @given(_sessions(), st.integers(0, 1), st.sampled_from([0.2, 0.5, 1.0]),
           st.integers(0, 2 ** 32 - 1))
    def test_trials_equal_the_list_oracle(self, session, b, epsilon, seed):
        data, x, script, delayed = session
        simulation = Simulation(data, x, script, epsilon)
        for trial in range(3):
            rng, reference = (np.random.default_rng([seed, trial]) for _ in range(2))
            new = simulation.run(b, rng, delayed=delayed)
            old = simulate_oracle(data, x, b, script, epsilon, reference, delayed=delayed)
            assert new == old
            assert rng.random() == reference.random()


# values with heavy ties, most of them at 2^63 and around it
_TIED = st.sampled_from([0, 1, 2**63 - 1, 2**63, 2**63, 2**63 + 1, 2**64 - 1])
_DIRECT_MAPS = {"ascending": ascending_map(), "descending": descending_map(),
                "low-trim": _trim_map(False), "high-trim": _trim_map(True),
                "dedup": _dedup_ascending()}


@st.composite
def _direct_sessions(draw):
    data = np.array(draw(st.lists(_TIED, max_size=10)), dtype=np.uint64)
    script = [SliceComputation(m=draw(st.integers(0, 4)),
                               algorithm=draw(st.sampled_from([_slice_tuple, None])),
                               map=_DIRECT_MAPS[draw(st.sampled_from(sorted(_DIRECT_MAPS)))])
              for _ in range(draw(st.integers(1, 5)))]
    return data, draw(_TIED), script


_LAW_TRIALS = 20_000


class TestDirect:
    """`Simulation.direct` against `direct_run`, the `RscSession` reference,
    and both the direct and the simulated outputs against their exact law."""

    @settings(max_examples=300, deadline=None)
    @given(_direct_sessions(), st.sampled_from([0.2, 0.5, 1.0]), st.integers(0, 2 ** 32 - 1))
    # five steps of m = 4 run out of three tied elements
    @example((np.array([2**63] * 3, dtype=np.uint64), 2**63,
              [SliceComputation(4, _slice_tuple, _trim_map(True))] * 5), 0.5, 0)
    def test_equals_direct_run(self, session, epsilon, seed):
        data, x, script = session
        simulation = Simulation(data, x, script, epsilon)
        for trial in range(2):
            rng, reference = (np.random.default_rng([seed, trial]) for _ in range(2))
            assert simulation.direct(rng) == direct_run(data, script, epsilon, reference)
            assert rng.random() == reference.random()

    # (epsilon, tau, size): audit-sim's default instance; two the data runs
    # out of; and a wider law at a small epsilon
    @pytest.mark.parametrize("epsilon, tau, size", [(0.5, 2, 8), (0.5, 4, 6), (1.0, 3, 3),
                                                    (0.2, 3, 12)])
    @pytest.mark.parametrize("role", ["simulated", "direct"])
    def test_outputs_follow_the_exact_law(self, role, epsilon, tau, size):
        data, x, algorithm = _audit_instance(size)
        script = [SliceComputation(1, algorithm, ascending_map()) for _ in range(tau)]
        simulation = Simulation(data, x, script, epsilon)
        simulated = role == "simulated"

        def part(chunk):
            streams = trial_streams(37, (0 if simulated else 1,), chunk)
            return Counter(tuple(simulation.run(0, rng).published if simulated
                                 else simulation.direct(rng)) for rng in streams)

        counts = sum(run_trials(part, range(_LAW_TRIALS)), Counter())
        law = direct_outputs_exact(epsilon, tau, size)
        assert set(counts) <= set(law), set(counts) - set(law)
        stat, df = chi_squared_goodness_of_fit(counts, law)
        assert stat <= chi_squared_critical(df, 0.99), (stat, df)

    def test_exact_law_sums_to_one(self):
        for epsilon, tau, size in [(0.1, 4, 20), (0.5, 1, 0), (0.5, 3, 0), (1.0, 5, 2)]:
            law = direct_outputs_exact(epsilon, tau, size)
            assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
            assert all(len(outputs) == tau for outputs in law)
        assert direct_outputs_exact(0.5, 3, 0) == {(-1, -1, -1): 1.0}
        assert direct_outputs_exact(0.5, 1, 4) == {(1,): 1.0}


_CUT = 32
_COUNTED_MAPS = {"ascending": ascending_map(), "descending": descending_map(),
                 # drops every element from _CUT up, so a diff element there
                 # synchronizes at its first step without a holder call
                 "below-cut": OrderMap("below-cut", lambda a: np.sort(a[a < _CUT]))}


@st.composite
def _counted_sessions(draw):
    size = draw(st.integers(0, 40))
    data = draw(st.lists(st.integers(0, 40), min_size=size, max_size=size))
    x = draw(st.integers(0, 40))
    script = [SliceComputation(m=draw(st.integers(0, 3)), algorithm=_slice_tuple,
                               map=_COUNTED_MAPS[draw(st.sampled_from(sorted(_COUNTED_MAPS)))])
              for _ in range(draw(st.integers(1, 8)))]
    return data, x, script


class TestHolderCalls:
    @settings(max_examples=300, deadline=None)
    @given(_counted_sessions(), st.integers(0, 1), st.sampled_from([0.1, 0.5, 1.0]),
           st.integers(0, 2 ** 32 - 1))
    # the diff element is dropped at step 0: synchronized with no holder call
    @example(([1, 2, 3], 35, [SliceComputation(1, _slice_tuple, _COUNTED_MAPS["below-cut"])] * 3),
             1, 0.5, 0)
    # x sorts first and two elements run out long before 8 steps of m = 3
    @example(([5, 6], 0, [SliceComputation(3, _slice_tuple, ascending_map())] * 8), 1, 0.1, 3)
    def test_equals_the_full_simulation(self, session, b, epsilon, seed):
        data, x, script = session
        rng_full, rng_counted = np.random.default_rng(seed), np.random.default_rng(seed)
        full = simulate(data, x, b, script, epsilon, rng_full)
        assert Simulation(data, x, script, epsilon).holder_calls(b, rng_counted) \
            == full.holder_calls
        if full.final_status == 0:
            # never synchronized, so the count ran every step and drew as much
            assert rng_counted.random() == rng_full.random()

    def test_stops_drawing_at_synchronization(self):
        # x = 35 is dropped at step 0, so the count takes that step's one
        # draw and none of the nine after it
        script = [SliceComputation(1, _slice_tuple, _COUNTED_MAPS["below-cut"])] * 10
        rng, reference = np.random.default_rng(4), np.random.default_rng(4)
        assert Simulation([1, 2, 3], 35, script, 0.5).holder_calls(1, rng) == 0
        sample_geometric(0.5, reference)
        assert rng.random() == reference.random()


class TestCallCountAudit:
    def test_eliminated_diff_counts_zero(self):
        script = [SliceComputation(m=1, algorithm=_len_algorithm, map=_dedup_ascending())]
        audit = audit_call_count([2, 4, 6], 4, 1, script, 0.5, trials=200, seed=14)
        assert audit.histogram == {0: 200}

    def test_adversarial_tail_and_mean(self):
        n, tau = 48, 16
        script = [SliceComputation(m=1, algorithm=_len_algorithm, map=ascending_map())
                  for _ in range(tau)]
        trials = 20000
        audit = audit_call_count(list(range(1, n + 1)), 0, 1, script, 0.5,
                                 trials=trials, seed=15)
        assert audit.mean <= 6.0
        for w, prob in audit.tail:
            if w > 12:
                break
            bound = (5.0 / 6.0) ** w
            se = math.sqrt(bound * (1 - bound) / trials)
            assert prob <= bound + 3 * se, (w, prob, bound)

    def test_trial_i_counts_on_its_own_stream(self):
        script = [SliceComputation(m=1, algorithm=_len_algorithm, map=ascending_map())
                  for _ in range(6)]
        data, trials, seed = list(range(1, 13)), 40, 21
        simulation = Simulation(data, 0, script, 0.5)
        expected = [simulation.holder_calls(1, np.random.default_rng([seed, 2, i]))
                    for i in range(trials)]
        audit = audit_call_count(data, 0, 1, script, 0.5, trials=trials, seed=seed)
        assert audit == AuditResult.from_counts(np.array(expected, dtype=np.int64))

    def test_summary_of_counts(self):
        audit = AuditResult.from_counts(np.array([2, 0, 2, 5], dtype=np.int64))
        assert audit.histogram == {0: 1, 2: 2, 5: 1}
        assert list(audit.histogram) == [0, 2, 5]
        assert audit.tail[:5] == [(1, 0.75), (2, 0.25), (3, 0.25), (4, 0.25), (5, 0.0)]
        assert len(audit.tail) == 20
        assert audit.mean == 2.25 and audit.trials == 4

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            audit_call_count([1], 0, 0, _script(), 0.5, trials=0, seed=0)

    @pytest.mark.parametrize("data, b, script, seed, message", [
        ([1, 3], 1, _script(), -1, "nonnegative"),
        ([[1, 2], [3, 4]], 1, _script(), 0, "data must be 1-D"),
        ([1, 3], 1, [], 0, "tau must be at least 1"),
        ([1, 3], 2, _script(), 0, "b must be 0 or 1"),
    ], ids=["negative-seed", "2d-data", "empty-script", "bad-bit"])
    def test_inputs_are_checked_before_forking(self, monkeypatch, data, b, script, seed,
                                                message):
        def no_fork():
            raise AssertionError("forked before checking the inputs")

        # two CPUs, so four trials would fork one part
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", no_fork)
        with pytest.raises(ValueError, match=message):
            audit_call_count(data, 0, b, script, 0.5, trials=4, seed=seed)
        with pytest.raises(AssertionError, match="forked"):
            audit_call_count([1, 3], 0, 1, _script(), 0.5, trials=4, seed=0)

    # (epsilon, tau, size): criterion 03's instance; sync_gamma(0.1) = 7, so
    # a call that does not synchronize can take up to 7 elements; and two
    # sizes the data runs out at
    @pytest.mark.parametrize("epsilon, tau, size", [(0.5, 16, 48), (0.1, 8, 64), (0.1, 8, 5),
                                                    (0.5, 8, 3)])
    def test_holder_calls_follow_the_exact_law(self, epsilon, tau, size):
        script = [SliceComputation(1, _len_algorithm, ascending_map()) for _ in range(tau)]
        audit = audit_call_count(np.arange(1, size + 1, dtype=np.uint64), 0, 1, script,
                                 epsilon, trials=20_000, seed=31)
        law = dict(enumerate(holder_calls_exact(epsilon, tau, size)))
        assert all(law[calls] > 0 for calls in audit.histogram), audit.histogram
        stat, df = chi_squared_goodness_of_fit(audit.histogram, law)
        assert stat <= chi_squared_critical(df, 0.99), (stat, df, audit.histogram)

    @pytest.mark.parametrize("epsilon", [0.1, 0.5, 1.0])
    def test_exact_law_closed_form_equals_the_dp(self, epsilon):
        for tau in (1, 2, 8):
            closed = holder_calls_exact(epsilon, tau, 1000)
            assert sum(closed) == pytest.approx(1.0, abs=1e-12)
            assert holder_calls_dp(epsilon, tau, 1000) == pytest.approx(closed, abs=1e-12)


KEYS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]),
                 st.integers(0, 2**64 - 1))


@st.composite
def _trial_ranges(draw):
    """Ranges that are empty, start above 0, cross 2^32, or end at 2^64 - 1."""
    first = draw(st.one_of(st.just(0), st.integers(2**32 - 6, 2**32 + 1),
                           st.integers(0, 2**64 - 1), st.just(2**64 - 8)))
    step = draw(st.sampled_from([1, 3, -1]))
    length = min(draw(st.integers(0, 8)), (2**64 - 1 - first) // abs(step) + 1)
    if step < 0:
        return range(first + length - 1, first - 1, -1)
    return range(first, first + step * length, step)


class TestTrialStreams:
    """The guard against a numpy release that changes SeedSequence: every
    stream equals `default_rng([seed, *path, trial])`."""

    @settings(max_examples=150, deadline=None)
    @given(KEYS, st.lists(KEYS, max_size=2), _trial_ranges())
    def test_streams_equal_default_rng(self, seed, path, trials):
        streams = trial_streams(seed, path, trials)
        first_pass, second_pass = list(streams), list(streams)
        assert len(first_pass) == len(second_pass) == len(trials)
        for rng, again, trial in zip(first_pass, second_pass, trials):
            expected = np.random.default_rng([seed, *path, trial])
            assert rng.bit_generator.state == expected.bit_generator.state
            assert again.bit_generator.state == expected.bit_generator.state
            assert rng.integers(0, 2**63) == expected.integers(0, 2**63)
            assert rng.random() == expected.random()
            assert rng.geometric(0.3) == expected.geometric(0.3)
            assert rng.laplace(0.0, 2.0) == expected.laplace(0.0, 2.0)

    @pytest.mark.parametrize("seed,path,trials", [
        (-1, (), range(2)), (0, (-1,), range(2)), (0, (), range(-1, 2)),
        (0, (), range(2**64, 2**64 + 1)), (0, (), range(2**64 - 1, 2**64 + 1)),
    ])
    def test_negative_or_oversized_keys_are_rejected(self, seed, path, trials):
        with pytest.raises(ValueError):
            trial_streams(seed, path, trials)

    def test_only_pcg64_seeding_is_served(self):
        with pytest.raises(ValueError, match="only PCG64"):
            np.random.MT19937(_KnownState(np.zeros(4, dtype=np.uint64)))
