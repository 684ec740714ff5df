"""Core differentially private building blocks.

Samplers (geometric, Laplace), the exponential mechanism and the choosing
mechanism for k-bounded quality functions. Everything consumes an explicit
``numpy.random.Generator`` so runs are reproducible from a seed.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class PrivacyBudget:
    """An (epsilon, delta) pair. Totals reported by accounting may exceed
    epsilon = 1; per-step budgets are constrained to (0, 1] by their users."""

    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.epsilon < math.inf):
            raise ValueError(f"epsilon must be finite and nonnegative, got {self.epsilon}")
        if not (0.0 <= self.delta < 1.0):
            raise ValueError(f"delta must lie in [0, 1), got {self.delta}")


@dataclass(frozen=True)
class QualityFunction:
    """A scoring rule for candidate selection.

    :param evaluate: (dataset, candidate) -> real score of sensitivity 1
        (adding or removing one element changes no score by more than 1).
    :param bound_k: present iff the function is k-bounded: scores are
        nonnegative, the empty dataset scores 0 everywhere, and adding one
        element raises at most ``bound_k`` candidate scores, each by at most 1.
    :param touched: for k-bounded functions, enumerates the candidates whose
        score may be nonzero on the given dataset (at most k * n of them).
    """

    evaluate: Callable
    bound_k: Optional[int] = None
    touched: Optional[Callable] = None


def geometric_pmf(epsilon: float, k: int) -> float:
    """Exact pmf of the slice-size noise: Pr[k] = (e^-eps)^k * (1 - e^-eps).

    1 - e^-eps is taken as -expm1(-eps), which does not cancel at small eps.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if k < 0:
        return 0.0
    return math.exp(-epsilon * k) * -math.expm1(-epsilon)


def sample_geometric(epsilon: float, rng: np.random.Generator) -> int:
    """Draw the geometric noise of the slicing step, success rate 1 - e^-eps.

    :param epsilon: per-step privacy parameter in (0, 1].
    :return: k >= 0 with probability (e^-eps)^k * (1 - e^-eps).
    """
    if not (0.0 < epsilon <= 1.0):
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    # not -expm1(-eps): that moves p by an ulp at common epsilons, and with
    # it the seeded draws
    p = 1.0 - math.exp(-epsilon)
    if p == 0.0:
        raise ValueError(f"epsilon must exceed 2^-54 (about 5.6e-17); at or below it "
                         f"1 - e^-epsilon rounds to 0, got {epsilon}")
    return int(rng.geometric(p)) - 1


def sample_laplace(scale: float, rng: np.random.Generator) -> float:
    """Zero-mean Laplace noise with the given scale."""
    if not (scale > 0.0 and math.isfinite(scale)):
        raise ValueError(f"scale must be positive and finite, got {scale}")
    return float(rng.laplace(0.0, scale))


def exponential_mechanism(candidates: Sequence, q: QualityFunction, dataset,
                          epsilon: float, rng: np.random.Generator):
    """Sample a candidate with probability proportional to exp(eps * score / 2).

    With probability at least 1 - beta the returned score is at least
    OPT - (2/eps) * ln(|Z| / beta) for sensitivity-1 scores.
    """
    if len(candidates) == 0:
        raise ValueError("exponential mechanism needs at least one candidate")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    scores = np.array([float(q.evaluate(dataset, z)) for z in candidates])
    weights = np.exp((epsilon / 2.0) * (scores - scores.max()))
    idx = int(rng.choice(len(candidates), p=weights / weights.sum()))
    return candidates[idx]


def choosing_error_bound(epsilon: float, delta: float, beta: float, k: int, n: int) -> float:
    """Additive error the choosing mechanism guarantees: (16/eps) * ln(4kn / (beta eps delta))."""
    product = beta * epsilon * delta
    ratio = 4.0 * k * max(n, 1) / product if product else math.inf
    if math.isinf(ratio):
        # the product underflows, so the logarithm is taken term by term
        return (16.0 / epsilon) * (math.log(4.0 * k * max(n, 1)) - math.log(beta)
                                   - math.log(epsilon) - math.log(delta))
    return (16.0 / epsilon) * math.log(ratio)


def choosing_mechanism(q: QualityFunction, dataset, epsilon: float, delta: float,
                       beta: float, rng: np.random.Generator, fallback):
    """Select a candidate for a k-bounded quality function.

    Internals: a noisy gate compares OPT + Laplace(4/eps) against half the
    additive-error bound; if the gate passes, the draw is
    ``exponential_mechanism`` at eps/2 over the candidates with positive score
    (scanned via ``q.touched``, never enumerating Z). Otherwise ``fallback``
    is returned, which is optimal whenever every score is near zero.

    :return: candidate with score >= OPT - choosing_error_bound(...) with
        probability at least 1 - beta.
    """
    if not (0.0 < epsilon < 2.0):
        raise ValueError(f"epsilon must lie in (0, 2), got {epsilon}")
    if not (0.0 < delta < 1.0 and 0.0 < beta < 1.0):
        raise ValueError("delta and beta must lie in (0, 1)")
    if q.bound_k is None:
        raise ValueError("choosing mechanism requires a k-bounded quality function")
    if q.touched is None:
        raise ValueError("k-bounded quality function must enumerate touched candidates")

    n = len(dataset)
    candidates = list(q.touched(dataset))
    scores = [float(q.evaluate(dataset, z)) for z in candidates]
    opt = max(scores, default=0.0)
    bound = choosing_error_bound(epsilon, delta, beta, q.bound_k, n)
    if opt + sample_laplace(4.0 / epsilon, rng) < bound / 2.0:
        return fallback
    positive = [z for z, s in zip(candidates, scores) if s > 0.0]
    if not positive:
        return fallback
    return exponential_mechanism(positive, q, dataset, epsilon / 2.0, rng)

