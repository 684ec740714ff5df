"""Quasi-concave optimization through cumulatively private interior points.

A sensitivity-1 quasi-concave score induces an increment dataset whose
interior points are near-optimal solutions; adjacent scores give increment
datasets at cumulative distance at most 2, so an interior-point solver that
tolerates bounded cumulative distance (deterministic slice sizes, scaled-down
budgets) optimizes the score. The module also carries the desk-scale
universe-chain reduction used to demonstrate the matching hardness mechanics.
"""

import bisect
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .engine import as_elements
from .mechanisms import sample_laplace
from .tables import read_int_table
from .treelog import Universe, ipp, log_star, regime_threshold, trim_parameter


def _as_sorted_list(data) -> list:
    if isinstance(data, np.ndarray):
        return sorted(data.tolist())
    return sorted(data)


def cumulative_distance(first, second) -> int:
    """max over thresholds y of |#{x in D: x <= y} - #{x in D': x <= y}|.

    Defined for equal-size multisets over any totally ordered domain.
    """
    a = _as_sorted_list(first)
    b = _as_sorted_list(second)
    if len(a) != len(b):
        raise ValueError(f"cumulative distance compares equal sizes, got {len(a)} and {len(b)}")
    best = 0
    for y in sorted(set(a) | set(b)):
        best = max(best, abs(bisect.bisect_right(a, y) - bisect.bisect_right(b, y)))
    return best


def is_quasi_concave(scores) -> bool:
    """True iff the sequence never rises again after a strict fall."""
    arr = np.asarray(scores)
    # compare neighbours directly: a difference would wrap on unsigned input
    falls = arr[1:] < arr[:-1]
    if not falls.any():
        return True
    return not (arr[1:] > arr[:-1])[int(np.argmax(falls)):].any()


def build_increment_dataset(f_prime, n: int) -> np.ndarray:
    """Dataset with max(f'(y) - f'(y-1), 0) copies of each y (f' zero before
    the domain); for quasi-concave f' with peak n this has exactly n elements,
    and every point between its extremes has f' >= 1."""
    arr = np.asarray(f_prime, dtype=np.int64)
    if arr.size == 0:
        raise ValueError("score table must be nonempty")
    if arr.min() < 0:
        raise ValueError("scores must be nonnegative")
    if not is_quasi_concave(arr):
        raise ValueError("score table is not quasi-concave")
    if int(arr.max()) != n:
        raise ValueError(f"peak score {int(arr.max())} does not match declared n = {n}")
    return _increments(arr)


def _increments(arr: np.ndarray) -> np.ndarray:
    # each y where the int64 table rises, repeated by the rise (a zero before
    # index 0); only the rising positions are gathered
    rises = np.flatnonzero(arr[1:] > arr[:-1]) + 1
    counts = arr[rises] - arr[rises - 1]
    if arr[0] > 0:
        rises, counts = np.r_[0, rises], np.r_[arr[0], counts]
    return np.repeat(rises.astype(np.uint64), counts)


def scaled_budget(universe: Universe, epsilon: float, delta: float,
                  constant_c: int = 4) -> Tuple[float, float]:
    """Per-step budget (eps', delta') = (eps / (C 2^log*|X|), delta^C / 2^log*|X|)."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if constant_c < 1:
        raise ValueError(f"constant_c must be at least 1, got {constant_c}")
    ls = log_star(universe.size)
    eps_p = epsilon / (constant_c * (1 << ls))
    delta_p = (delta ** constant_c) / (1 << ls)
    if eps_p > 1.0:
        raise ValueError(f"epsilon {epsilon} too large: scaled step budget exceeds 1")
    if eps_p == 0.0:
        raise ValueError(f"epsilon {epsilon} too small: the scaled step epsilon "
                         f"eps / (C 2^log*|X|) underflows to 0")
    if delta_p == 0.0:
        raise ValueError(f"constant_c={constant_c} with delta={delta}: the scaled step "
                         f"delta delta^C / 2^log*|X| underflows to 0")
    try:
        trim_parameter(eps_p, delta_p)
    except ValueError:  # its one failure left: (100/eps') ln(1/delta') overflows
        raise ValueError(f"epsilon={epsilon}, delta={delta} and constant_c={constant_c}: the "
                         f"scaled step budget's trim parameter (100/eps') ln(1/delta') "
                         f"overflows") from None
    return eps_p, delta_p


def cumulative_regime_threshold(universe: Universe, epsilon: float, delta: float,
                                constant_c: int = 4) -> int:
    """Minimum dataset size for the cumulatively private interior point."""
    return regime_threshold(universe, *scaled_budget(universe, epsilon, delta, constant_c))


def cumulative_ipp(universe: Universe, data, epsilon: float, delta: float,
                   rng: np.random.Generator, constant_c: int = 4) -> int:
    """Interior point whose guarantee degrades gracefully with the cumulative
    distance of the inputs, not just insertion adjacency.

    The adjacency-based solver at the scaled-down per-step budget, with
    slice sizes that carry no geometric noise.
    """
    eps_p, delta_p = scaled_budget(universe, epsilon, delta, constant_c)
    return ipp(universe, data, eps_p, delta_p, rng, noisy_sizes=False)


QC_DOMAIN_CAP = 1 << 26


@dataclass(frozen=True)
class QcInstance:
    """An enumerable solution domain with a quasi-concave integer score table."""

    scores: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.scores, dtype=np.int64)
        if not (1 <= arr.size <= QC_DOMAIN_CAP):
            raise ValueError(f"domain size must lie in [1, 2^26], got {arr.size}")
        if arr.min() < 0:
            raise ValueError("scores must be nonnegative")
        if not is_quasi_concave(arr):
            raise ValueError("score table is not quasi-concave")
        object.__setattr__(self, "scores", arr)

    @property
    def size(self) -> int:
        return int(self.scores.size)


@dataclass(frozen=True)
class QcResult:
    solution: int
    score: int
    opt_estimate: int
    error_bound: int
    branch: str  # "small-gap" or "interior"


def qc_optimize(instance: QcInstance, epsilon: float, delta: float,
                rng: np.random.Generator, constant_c: int = 4) -> QcResult:
    """Solution within additive error n = O(2^log*T log(1/delta)/eps) of optimal.

    A noisy gate on the score spread routes flat instances to a fixed
    solution (spread <= 2n means any answer is that close to optimal);
    otherwise the increment dataset of f'(y) = max(0, f(y) - OPT + n) feeds
    the cumulative interior-point solver, and the returned point has
    f(y) > OPT - n with high probability.
    """
    bits = max(1, (instance.size - 1).bit_length())
    universe = Universe(bits)
    n = cumulative_regime_threshold(universe, epsilon, delta, constant_c)
    scores = instance.scores
    opt = int(scores.max())
    spread = opt - int(scores.min())
    if spread + sample_laplace(2.0 / epsilon, rng) <= 1.5 * n:
        return QcResult(solution=0, score=int(scores[0]),
                        opt_estimate=int(scores[0]) + 2 * n,
                        error_bound=2 * n, branch="small-gap")
    # f' of a checked instance is quasi-concave with peak n and nonnegative,
    # so its increments skip `build_increment_dataset`'s checks
    f_prime = scores - (opt - n)
    increments = _increments(np.maximum(f_prime, 0, out=f_prime))
    y = cumulative_ipp(universe, increments, epsilon, delta, rng, constant_c)
    y = min(int(y), instance.size - 1)
    return QcResult(solution=y, score=int(scores[y]),
                    opt_estimate=int(scores[y]) + n,
                    error_bound=n, branch="interior")


# ---------------------------------------------------------------------------
# Desk-scale universe-chain reduction (two levels: X_1 = [10], X_2 = [40]^X_1)

def chain_size(i: int) -> int:
    """B_i = 10 i^2, the branching factor of level i of the universe chain."""
    if i < 1:
        raise ValueError(f"chain level must be at least 1, got {i}")
    return 10 * i * i


def sample_code(rng: np.random.Generator) -> Tuple[int, ...]:
    """Uniform secret z in [2, B_2 - 1]^{X_1}; the endpoints 1 and B_2 are
    reserved for the constant tails, so a tail coordinate never collides."""
    return tuple(int(v) for v in rng.integers(2, chain_size(2), size=chain_size(1)))


def encode_hard_instance(data, z: Tuple[int, ...]) -> List[Tuple[int, ...]]:
    """For each x in the level-1 dataset, the pair of level-2 points that
    agree with z up to coordinate x and are constant 1 / constant B_2 after."""
    b1, b2 = chain_size(1), chain_size(2)
    if len(z) != b1:
        raise ValueError(f"code must have {b1} coordinates, got {len(z)}")
    encoded = []
    for x in sorted(as_elements(data, 64).tolist()):
        if not (1 <= x <= b1):
            raise ValueError(f"level-1 elements must lie in [1, {b1}], got {x}")
        encoded.append(z[:x] + (1,) * (b1 - x))
        encoded.append(z[:x] + (b2,) * (b1 - x))
    return sorted(encoded)


def decode_hard_point(y_star: Sequence[int], z: Tuple[int, ...]) -> int:
    """Largest ell with y*(v) = z(v) for every v <= ell."""
    ell = 0
    for v in range(len(z)):
        if tuple(y_star)[v] != z[v]:
            break
        ell = v + 1
    return ell


def hardness_reduction(blackbox: Callable, data, rng: np.random.Generator) -> int:
    """Turn an interior-point solver over X_2 into one over X_1 = [10].

    Encodes the dataset with a fresh secret code, queries the black box once
    on the level-2 multiset, and decodes the answer's agreement length; the
    output misses the interior interval only if the solver's answer matches
    the secret by chance beyond the data's support (probability <= 1/38 per
    coordinate) or the solver itself fails.
    """
    z = sample_code(rng)
    encoded = encode_hard_instance(data, z)
    y_star = blackbox(encoded)
    return decode_hard_point(y_star, z)


def load_qc_csv(path) -> QcInstance:
    """Read (y, score) rows; missing y values score 0 and cells after the
    second are ignored."""
    table = read_int_table(path, np.int64, usecols=(0, 1))
    y, score = table.values.T
    if not y.size:
        raise ValueError(f"{path}: score file has no rows")
    table.reject(y < 0, lambda i: f"negative solution index {y[i]}")
    # the cap comes before the table is allocated
    table.reject(y >= QC_DOMAIN_CAP, lambda i: (
        f"solution index {y[i]} is not below the 2^26 domain cap"))
    seen = np.zeros(int(y.max()) + 1, dtype=bool)
    seen[y] = True
    if np.count_nonzero(seen) < y.size:
        repeated = np.ones(y.size, dtype=bool)
        repeated[np.unique(y, return_index=True)[1]] = False
        table.reject(repeated, lambda i: f"duplicate solution index {y[i]}")
    scores = np.zeros(seen.size, dtype=np.int64)
    scores[y] = score
    try:
        return QcInstance(scores)
    except ValueError as exc:
        # the table's checks run once; a failing load names the file, and
        # the line of a negative score
        table.reject(score < 0, lambda i: f"negative score {score[i]}")
        raise ValueError(f"{path}: {exc}") from None
