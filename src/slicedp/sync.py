"""Synchronization mapping and the simulator / data-holder audit pair.

The mapping couples the noisy slice sizes of two neighboring executions so a
single step can absorb their difference. The simulator runs the slicing
session on one dataset while only querying the bit-holding side when the
differing element actually matters; holder-call counts and output
distributions are the executable form of the privacy argument, so this module
is the audit harness.
"""

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .engine import (Dataset, OrderMap, RscSession, SliceComputation, delayed_compute,
                     select_and_compute)
from .mechanisms import PrivacyBudget, sample_geometric


class SyncOutcome(NamedTuple):
    alpha: int
    beta: int  # 1 = synchronized


class SyncDist(NamedTuple):
    outcomes: List[Tuple[Tuple[int, int], float]]  # ((alpha, beta), probability)
    tail: float  # aggregate mass on alpha > cutoff


def _check_epsilon(epsilon: float):
    if not (0.0 < epsilon <= 1.0):
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")


def sync_threshold(epsilon: float, i: int) -> float:
    """t_i = max(0, e^{-i eps} + e^{-(i+1) eps} - 1); non-increasing, <= e^{-(i+1) eps}."""
    _check_epsilon(epsilon)
    if i < 0:
        raise ValueError(f"i must be nonnegative, got {i}")
    return max(0.0, math.exp(-i * epsilon) + math.exp(-(i + 1) * epsilon) - 1.0)


def sync_gamma(epsilon: float) -> int:
    """Smallest i with t_i = 0; beyond it the mapping synchronizes surely."""
    _check_epsilon(epsilon)
    i = 0
    while sync_threshold(epsilon, i) > 0.0:
        i += 1
    return i


def sync_map(b: int, m: int, epsilon: float, rng: np.random.Generator) -> SyncOutcome:
    """Sample (alpha, beta) from R^b_eps(m).

    Support: b = 0 keeps alpha = m; b = 1 has alpha in {m, m-1} with
    alpha = m - 1 exactly when beta = 1.
    """
    _check_epsilon(epsilon)
    if b not in (0, 1):
        raise ValueError(f"b must be 0 or 1, got {b}")
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if b == 1 and m == 0:
        return SyncOutcome(0, 0)
    t_m = sync_threshold(epsilon, m)
    if b == 0:
        stay = math.exp(-epsilon) if m == 0 else t_m * math.exp(m * epsilon)
        if rng.random() < stay:
            return SyncOutcome(m, 0)
        return SyncOutcome(m, 1)
    stay = t_m * math.exp((m + 1) * epsilon)
    if rng.random() < stay:
        return SyncOutcome(m, 0)
    return SyncOutcome(m - 1, 1)


def sync_map_exact_dist(b: int, epsilon: float, cutoff: int) -> SyncDist:
    """Exact distribution of R^b_eps(Geom(1 - e^-eps)) up to alpha = cutoff.

    Outcomes with alpha > cutoff are aggregated into the tail mass;
    listed probabilities plus the tail sum to 1.
    """
    _check_epsilon(epsilon)
    gamma = sync_gamma(epsilon)
    if cutoff < gamma + 1:
        raise ValueError(f"cutoff must be at least gamma + 1 = {gamma + 1}, got {cutoff}")

    def g(i: int) -> float:
        return math.exp(-i * epsilon) * (1.0 - math.exp(-epsilon))

    out = {}
    if b == 0:
        for i in range(cutoff + 1):
            stay = math.exp(-epsilon) if i == 0 else sync_threshold(epsilon, i) * math.exp(i * epsilon)
            out[(i, 0)] = g(i) * stay
            out[(i, 1)] = g(i) * (1.0 - stay)
        tail = math.exp(-(cutoff + 1) * epsilon)
    else:
        out[(0, 0)] = g(0)
        for i in range(1, cutoff + 2):
            stay = sync_threshold(epsilon, i) * math.exp((i + 1) * epsilon)
            if i <= cutoff:
                out[(i, 0)] = out.get((i, 0), 0.0) + g(i) * stay
            out[(i - 1, 1)] = g(i) * (1.0 - stay)
        tail = math.exp(-(cutoff + 2) * epsilon)
    outcomes = sorted(out.items())
    return SyncDist(outcomes, tail)


@dataclass
class SimTranscript:
    published: list
    holder_calls: int
    holder_steps: List[int]
    final_status: int
    final_diff: Optional[int]


def _diff_and_rank(short: np.ndarray, long: np.ndarray) -> Tuple[int, int]:
    # first position where the mapped arrays disagree; the inserted element
    # sits there and all later positions shift by one
    if len(long) != len(short) + 1:
        raise ValueError("order map is not adjacency preserving: output sizes differ by "
                         f"{len(long) - len(short)}")
    mismatch = np.flatnonzero(short != long[:-1])
    p0 = int(mismatch[0]) if mismatch.size else len(short)
    if not np.array_equal(short[p0:], long[p0 + 1:]):
        raise ValueError("order map is not adjacency preserving: suffixes disagree")
    return long[p0], p0 + 1


class DataHolder:
    """Holds the private bit; answers slice queries and tries to synchronize.

    First-phase queries slice the true dataset under the supplied map and
    report (q_hat, beta, result); slices are stored by step for the
    delayed-compute phase.
    """

    def __init__(self, b: int, epsilon: float, rng: np.random.Generator):
        _check_epsilon(epsilon)
        if b not in (0, 1):
            raise ValueError(f"b must be 0 or 1, got {b}")
        self.b = b
        self.epsilon = epsilon
        self._rng = rng
        self.stored = {}

    def query(self, data: Sequence[int], x: int, q: int, algorithm: Optional[Callable],
              order_map: OrderMap, step: Optional[int] = None):
        if q < 0:
            raise ValueError(f"q must be nonnegative, got {q}")
        delta = sample_geometric(self.epsilon, self._rng)
        base = np.asarray(data, dtype=np.uint64)
        if self.b == 1:
            base = np.append(base, np.uint64(x))
        slice_part = self.stored[step] = order_map.apply(base)[:q + delta]
        result = algorithm(slice_part) if algorithm else None
        alpha, beta = sync_map(self.b, delta, self.epsilon, self._rng)
        return q + alpha, beta, result

    def delayed(self, step: int, algorithm: Callable):
        return algorithm(self.stored[step])


def simulate(data, x: int, b: int, script: Sequence[SliceComputation], epsilon: float,
             rng: np.random.Generator, delayed: Optional[Sequence[Tuple[int, Callable]]] = None
             ) -> SimTranscript:
    """Run the slicing session on (data, data + {x}) chosen by the hidden bit b.

    The simulator tracks (current data, diff element, status) and only
    queries the holder on steps where the slice depends on b; published
    results are distributed exactly as a direct run on the b-selected
    dataset. Optional second-phase requests (step index, algorithm) route to
    the simulator's stored slice or to the holder per where the true slice
    lives; as in a direct run, each slice takes at most one.
    """
    _check_epsilon(epsilon)
    if not 0 <= x < 1 << 64 or x != int(x):
        raise ValueError(f"diff element x must be an integer in [0, 2^64), got {x}")
    holder = DataHolder(b, epsilon, rng)
    current = Dataset(data, 64).elements
    x_cur = np.uint64(x)
    status = 0
    published = []
    holder_steps = []
    sim_slices = {}

    for i, spec in enumerate(script):
        mapped = spec.map.apply(current)
        if status == 0:
            mapped_with = spec.map.apply(np.append(current, x_cur))
            if np.array_equal(mapped, mapped_with):
                status = 1  # map eliminated the diff element
        m_hat = spec.m + sample_geometric(epsilon, rng)
        if status == 0:
            x_prime, p = _diff_and_rank(mapped, mapped_with)
        if status == 1 or m_hat < p:
            # this round does not involve the diff element
            slice_part = sim_slices[i] = mapped[:m_hat]
            current = mapped[m_hat:]
            if status == 0:
                x_cur = x_prime
            result = spec.algorithm(slice_part) if spec.algorithm else None
        else:
            q_hat, beta, result = holder.query(current, x_cur, max(p, spec.m),
                                               spec.algorithm, spec.map, step=i)
            holder_steps.append(i)
            current = mapped[q_hat:]
            if beta == 1 or q_hat > len(mapped):
                # synchronized, or both executions exhausted with equal remainders
                status = 1
            else:
                x_cur = mapped[q_hat - 1]
        published.append(result)

    received = set()
    for step, algorithm in delayed or []:
        if step in received:
            raise RuntimeError(f"slice {step} already received 1 delayed compute(s)")
        received.add(step)
        published.append(holder.delayed(step, algorithm) if step in holder.stored
                         else algorithm(sim_slices[step]))

    return SimTranscript(published=published, holder_calls=len(holder_steps),
                         holder_steps=holder_steps, final_status=status,
                         final_diff=None if status == 1 else int(x_cur))


def direct_run(data, script: Sequence[SliceComputation], epsilon: float,
               rng: np.random.Generator,
               delayed: Optional[Sequence[Tuple[int, Callable]]] = None) -> list:
    """Published outputs of a plain (non-simulated) slicing session."""
    session = RscSession(Dataset(data, 64), tau=len(script),
                         budget=PrivacyBudget(epsilon), k=1)
    published = []
    for spec in script:
        result, _ = select_and_compute(session, spec, rng)
        published.append(result)
    for step, algorithm in delayed or []:
        published.append(delayed_compute(session, step, algorithm))
    return published


@dataclass
class AuditResult:
    histogram: dict  # calls -> frequency
    tail: List[Tuple[int, float]]  # (w, empirical Pr[calls > w]) for w = 1..20
    mean: float
    trials: int

    @classmethod
    def from_counts(cls, counts: np.ndarray) -> "AuditResult":
        """Summary of the holder-call counts of a run of trials."""
        return cls(histogram=dict(sorted(Counter(counts.tolist()).items())),
                   tail=[(w, float(np.mean(counts > w))) for w in range(1, 21)],
                   mean=float(counts.mean()), trials=int(counts.size))


def audit_call_count(data, x: int, b: int, script, epsilon: float, trials: int,
                     rng: np.random.Generator) -> AuditResult:
    """Distribution of holder-call counts over repeated simulations."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    return AuditResult.from_counts(np.array(
        [simulate(data, x, b, script, epsilon, rng).holder_calls for _ in range(trials)],
        dtype=np.int64))


def estimate_tv(samples_a: Sequence, samples_b: Sequence) -> float:
    """Empirical total-variation distance between two outcome samples."""
    ca, cb = Counter(samples_a), Counter(samples_b)
    na, nb = len(samples_a), len(samples_b)
    keys = set(ca) | set(cb)
    return 0.5 * sum(abs(ca[k] / na - cb[k] / nb) for k in keys)
