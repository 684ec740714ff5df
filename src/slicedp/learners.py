"""Private PAC learners built on the interior-point solver.

Thresholds: the decision boundary of a realizable sample is bracketed by the
largest positives and smallest negatives, and any interior point of that
window is a consistent-ish threshold; the window size is one interior-point
regime, so the sample complexity tracks log*|X| instead of log|X|.

Rectangles: one reorder-slice-compute session over the positive set takes two
slices per axis (smallest and largest under the per-axis order) and solves an
interior point on each, paying composition once for all 2d slices; there is
no sqrt(d) factor in the privacy cost.
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .engine import RscSession, SliceComputation, as_elements, axis_map, select_and_compute
from .mechanisms import PrivacyBudget, sample_laplace
from .tables import read_int_table
from .treelog import Universe, ipp, regime_threshold


@dataclass(frozen=True)
class LabeledSample:
    """Points with binary labels over a declared domain."""

    points: np.ndarray
    labels: np.ndarray
    universe: Universe

    def __post_init__(self):
        points = as_elements(self.points, self.universe.bit_length)
        labels = np.asarray(self.labels)
        # the int64 cast truncates, so labels that are not integers are
        # checked by value first; booleans are integers here
        if labels.dtype.kind not in "biu" and not ((labels == 0) | (labels == 1)).all():
            raise ValueError("labels must be 0 or 1")
        labels = labels.astype(np.int64, copy=False)
        if labels.ndim != 1 or labels.shape[0] != points.shape[0]:
            raise ValueError("labels must be one per point")
        if labels.size and (labels.min() < 0 or labels.max() > 1):
            raise ValueError("labels must be 0 or 1")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)

    def __len__(self):
        return int(self.points.shape[0])


@dataclass(frozen=True)
class Hypothesis:
    """Either a threshold (predict 1 iff x <= threshold), a product rectangle,
    or the all-zero predictor. A rectangle of one interval also predicts on
    1-D points, as `learn_rectangles` learns from them."""

    threshold: Optional[int] = None
    rectangle: Optional[List[Tuple[int, int]]] = None
    zero: bool = False

    def __post_init__(self):
        forms = (self.threshold is not None) + (self.rectangle is not None) + self.zero
        if forms != 1:
            raise ValueError("hypothesis must be exactly one of threshold, rectangle, zero")
        if self.rectangle is not None:
            for a, b in self.rectangle:
                if a > b:
                    raise ValueError(f"interval [{a}, {b}] is not well ordered")

    def predict(self, points) -> np.ndarray:
        arr = as_elements(points, 64)
        if self.zero:
            return np.zeros(arr.shape[0], dtype=np.int64)
        if self.threshold is not None:
            return (arr <= np.uint64(self.threshold)).astype(np.int64)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        inside = np.ones(arr.shape[0], dtype=bool)
        for axis, (a, b) in enumerate(self.rectangle):
            # a <= c <= b as one compare: c - a wraps past b - a when c < a
            inside &= (arr[:, axis] - np.uint64(a)) <= np.uint64(b - a)
        return inside.astype(np.int64)


def boundary_window_size(universe: Universe, epsilon: float, delta: float) -> int:
    """Points taken per side of the decision boundary: half an interior-point
    regime, so the combined window feeds the solver exactly in regime."""
    return math.ceil(regime_threshold(universe, epsilon, delta) / 2)


def threshold_sample_size(universe: Universe, xi: float, beta: float,
                          epsilon: float, delta: float) -> int:
    """Sample size at which the learner guarantees error xi with confidence
    1 - beta: the window misclassifies at most 2 * window points, and a
    Chernoff argument converts the empirical gap to generalization."""
    window = boundary_window_size(universe, epsilon, delta)
    size = (4.0 / xi) * (2.0 * window + math.log(2.0 / beta))
    if not math.isfinite(size):
        raise ValueError(f"sample size (4/xi)(2 window + ln(2/beta)) overflows at "
                         f"xi={xi}, beta={beta}")
    return math.ceil(size)


def learn_threshold_realizable(sample: LabeledSample, xi: float, beta: float,
                               epsilon: float, delta: float,
                               rng: np.random.Generator) -> Hypothesis:
    """Threshold hypothesis from a realizable sample (positives below the
    boundary): interior point of the boundary window, or the extreme
    threshold when one side is essentially absent."""
    if not (0.0 < xi < 1.0 and 0.0 < beta < 1.0):
        raise ValueError("xi and beta must lie in (0, 1)")
    if sample.points.ndim != 1:
        raise ValueError("threshold learning expects scalar points")
    universe = sample.universe
    positives = np.sort(sample.points[sample.labels == 1])
    negatives = np.sort(sample.points[sample.labels == 0])
    if positives.size and negatives.size and positives[-1] >= negatives[0]:
        raise ValueError(
            f"sample is not realizable by a threshold: positive point "
            f"{int(positives[-1])} is not below negative point {int(negatives[0])}")
    if negatives.size == 0:
        return Hypothesis(threshold=universe.size - 1)
    if positives.size == 0:
        return Hypothesis(threshold=0)
    window = boundary_window_size(universe, epsilon, delta)
    boundary = np.concatenate([positives[-window:], negatives[:window]])
    point = ipp(universe, boundary, epsilon, delta, rng, enforce_regime=False)
    return Hypothesis(threshold=int(point))


def rectangle_gate_threshold(universe: Universe, d: int, epsilon: float,
                             delta: float) -> float:
    """Positive count needed before slicing: 2d in-regime slices plus a
    Laplace tail margin."""
    m = regime_threshold(universe, epsilon, delta)
    return 2.0 * d * m + (4.0 / epsilon) * math.log(2.0 / delta)


def learn_rectangles(sample: LabeledSample, epsilon: float, delta: float,
                     rng: np.random.Generator) -> Hypothesis:
    """Product rectangle around the positive set, one slicing session total.

    Per axis, the smallest and largest (m + Noise) positives under the axis
    order each solve an interior point, giving that axis its interval. When a
    noisy count of the positives cannot fill the slices, predicting all-zero
    is already competitive and is returned instead.
    """
    points = sample.points
    if points.ndim == 1:
        points = points.reshape(-1, 1)
    d = points.shape[1]
    if not (1 <= d <= 16):
        raise ValueError(f"dimension must lie in [1, 16], got {d}")
    universe = sample.universe
    # np.compress gathers rows more than twice as fast as a boolean index
    positives = np.compress(sample.labels == 1, points, axis=0)
    gate = rectangle_gate_threshold(universe, d, epsilon, delta)
    if positives.shape[0] + sample_laplace(1.0 / epsilon, rng) < gate:
        return Hypothesis(zero=True)

    m = regime_threshold(universe, epsilon, delta)
    session = RscSession(positives, tau=2 * d, budget=PrivacyBudget(epsilon, delta), k=1)
    intervals = []
    for axis in range(d):
        def solve(rows, axis=axis):
            return ipp(universe, rows[:, axis], epsilon, delta, rng, enforce_regime=False)

        low, _ = select_and_compute(session, SliceComputation(m, solve, axis_map(axis)), rng)
        high, _ = select_and_compute(
            session, SliceComputation(m, solve, axis_map(axis, reverse=True)), rng)
        a, b = int(low), int(high)
        if a > b:
            a, b = b, a
        intervals.append((a, b))
    return Hypothesis(rectangle=intervals)


def load_labeled_csv(path, bit_length: int) -> LabeledSample:
    """Rows of d coordinates plus a trailing 0/1 label."""
    table = read_int_table(path, np.uint64)
    values = table.values
    if not values.shape[0]:
        raise ValueError(f"{path}: labeled file has no rows")
    if values.shape[1] < 2:
        raise table.error(0, "need at least one coordinate and a label")
    # contiguous rows: the coordinate check, the learners' row gathers and
    # `predict` read a view that skips the label column several times slower
    points, labels = np.ascontiguousarray(values[:, :-1]), values[:, -1]
    try:
        # `LabeledSample` checks the labels and the coordinates with a few
        # reductions on every load; the row masks that name the line are
        # built only when a check fails, labels first
        return LabeledSample(points=points[:, 0] if points.shape[1] == 1 else points,
                             labels=labels, universe=Universe(bit_length))
    except ValueError:
        table.reject(labels > 1, lambda i: f"label must be 0 or 1, got {labels[i]}")
        limit = 1 << bit_length
        if bit_length < 64:
            table.reject((points >= np.uint64(limit)).any(axis=1), lambda i: (
                f"coordinate {points[i].max()} out of range for {bit_length}-bit "
                f"domain (must be < {limit})"))
        raise
