"""Private interior-point solver over an implicit binary search tree.

The domain X = [0, 2^L) is the leaf set of a complete binary tree that is
never materialized: every vertex is an interval of leaves, and the greedy
heavy path is one walk down a sorted array with one binary search per depth
on a shrinking index range, so 64-bit domains cost nothing extra.
Each recursion level slices off the t smallest and t largest points, checks a
noisy balance gate, and either finishes in a single heavy round or embeds the
remaining points into the short label domain {1..L} and recurses. A level
keeps its remainder sorted in the session's buffer: the trims sort only input
that is out of order, cut their slices off its two ends as views, and the gate,
the heavy round and the embedding read the sorted rest without a copy.
"""

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .engine import (OrderMap, RscSession, SliceComputation, as_elements, delayed_compute,
                     select_and_compute)
from .mechanisms import (PrivacyBudget, QualityFunction, choosing_mechanism,
                         exponential_mechanism, sample_laplace)


@dataclass(frozen=True)
class Universe:
    """The domain X = [0, 2^bit_length)."""

    bit_length: int

    def __post_init__(self):
        if not (1 <= self.bit_length <= 64):
            raise ValueError(f"bit_length must lie in [1, 64], got {self.bit_length}")

    @property
    def size(self) -> int:
        return 1 << self.bit_length


@dataclass(frozen=True)
class TreeVertex:
    """A subtree, identified by its depth and the high `depth` bits."""

    depth: int
    prefix: int

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError(f"depth must be nonnegative, got {self.depth}")
        if not (0 <= self.prefix < (1 << self.depth)):
            raise ValueError(f"prefix {self.prefix} out of range at depth {self.depth}")


class RegimeError(ValueError):
    """Dataset too small for the accuracy regime; raised instead of silently
    returning a point with no utility guarantee."""

    def __init__(self, message: str, required: int, provided: int):
        super().__init__(message)
        self.required = required
        self.provided = provided


def log_star(x) -> int:
    """Iterated logarithm: applications of log2 needed to bring x to <= 1."""
    if x < 1:
        raise ValueError(f"log_star requires x >= 1, got {x}")
    count = 0
    v = float(x)
    while v > 1.0:
        v = math.log2(v)
        count += 1
    return count


def trim_parameter(epsilon: float, delta: float) -> int:
    """t = ceil((100/eps) * ln(1/delta)), the per-level slice size."""
    if not (0.0 < epsilon <= 1.0):
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    t = (100.0 / epsilon) * math.log(1.0 / delta)
    if not math.isfinite(t):
        raise ValueError(f"trim parameter (100/eps) ln(1/delta) overflows at "
                         f"epsilon={epsilon}, delta={delta}")
    return math.ceil(t)


def regime_threshold(universe: Universe, epsilon: float, delta: float) -> int:
    """Smallest dataset size the accuracy guarantee covers: 10 * t * log*|X|."""
    return 10 * trim_parameter(epsilon, delta) * log_star(universe.size)


def f_ipp(data, z) -> int:
    """min(#{x <= z}, #{x >= z}): positive iff z is an interior point."""
    arr = np.sort(as_elements(data, 64))
    key = as_elements(z, 64)
    le = int(np.searchsorted(arr, key, side="right"))
    ge = arr.size - int(np.searchsorted(arr, key, side="left"))
    return min(le, ge)


def _sorted_ipp_score(sorted_data: np.ndarray, z) -> int:
    # f_ipp on data the caller has already sorted and checked, so a mechanism
    # scoring many candidates sorts once; f_ipp is its test oracle
    key = np.uint64(z)
    le = int(np.searchsorted(sorted_data, key, side="right"))
    ge = sorted_data.size - int(np.searchsorted(sorted_data, key, side="left"))
    return min(le, ge)


def vertex_interval(v: TreeVertex, universe: Universe) -> Tuple[int, int]:
    """Half-open leaf interval [lo, hi) spanned by the subtree."""
    if v.depth > universe.bit_length:
        raise ValueError(f"depth {v.depth} exceeds tree height {universe.bit_length}")
    width = 1 << (universe.bit_length - v.depth)
    return v.prefix * width, (v.prefix + 1) * width


def left_right_leaf(v: TreeVertex, universe: Universe) -> int:
    """Rightmost leaf of v's left child: the midpoint separating the children."""
    if v.depth >= universe.bit_length:
        raise ValueError("leaf vertices have no children")
    lo, hi = vertex_interval(v, universe)
    return lo + (hi - lo) // 2 - 1


def _heavy_path(sorted_data: np.ndarray, bit_length: int):
    """Walk root to leaf along the heavier child (ties left), one binary
    search per depth on the current vertex's index range.

    Returns the index range [j0, j1) of the light child at each depth (its
    weight is j1 - j0) and the leaf reached. Elements at or beyond
    2^bit_length lie in no vertex and weigh nothing.
    """
    i0 = 0
    i1 = int(np.searchsorted(sorted_data, np.uint64(1 << bit_length))) \
        if bit_length < 64 else sorted_data.size
    lo = 0
    light = []
    for depth in range(bit_length):
        mid = lo + (1 << (bit_length - depth - 1))
        split = i0 + int(np.searchsorted(sorted_data[i0:i1], np.uint64(mid)))
        if split - i0 >= i1 - split:
            light.append((split, i1))
            i1 = split
        else:
            light.append((i0, split))
            i0, lo = split, mid
    return light, lo


def _project_labels(arr: np.ndarray) -> np.ndarray:
    # label column of an embedded slice, shifted to the child domain {0..L-1};
    # rows are read last to first, so the embedding's non-increasing labels
    # come out nondecreasing
    if arr.ndim == 2:
        return arr[::-1, 0] - np.uint64(1)
    return arr


def _is_sorted(arr: np.ndarray) -> bool:
    return bool(np.all(arr[:-1] <= arr[1:]))


def _ascending(arr: np.ndarray) -> np.ndarray:
    # arr itself when it is already nondecreasing, else a sorted copy
    return arr if _is_sorted(arr) else np.sort(arr)


def embed_order_map(universe: Universe) -> OrderMap:
    """Greedy heavy-path embedding as an order map: each element is labeled
    with the level {1..L} at which it leaves the greedy path, and the
    (label, element) rows come in reversed lexicographic order. The engine
    slices rows; callers project out either column."""

    def apply(a: np.ndarray) -> np.ndarray:
        sorted_data = _ascending(_project_labels(a))
        light, _ = _heavy_path(sorted_data, universe.bit_length)
        labels = np.full(sorted_data.size, universe.bit_length, dtype=np.uint64)
        for depth, (j0, j1) in enumerate(light):
            labels[j0:j1] = depth + 1
        order = np.lexsort((sorted_data, labels))[::-1]
        return np.column_stack((labels[order], sorted_data[order]))

    return OrderMap(f"embed-{universe.bit_length}", apply)


def gamma(data, universe: Universe) -> int:
    """Max over the greedy path of the lighter-child weight; sensitivity 1.

    Data that is already sorted, as `ipp`'s remainder is, is read as it is;
    anything else is sorted first.
    """
    sorted_data = _ascending(as_elements(data, 64))
    light, _ = _heavy_path(sorted_data, universe.bit_length)
    return max(j1 - j0 for j0, j1 in light)


def one_heavy_round(data, universe: Universe, t: int, epsilon: float,
                    rng: np.random.Generator):
    """Single-round interior point for datasets whose balance statistic is
    promised to be at least t/2.

    Walks the heavy path; at the first vertex where both children hold real
    mass (noisy check against t/4 with a fresh threshold draw), returns the
    boundary leaf between the children, and otherwise ends at a leaf.
    Reads sorted data as it is, as `gamma` does.
    """
    sorted_data = _ascending(as_elements(data, 64))
    if sorted_data.size == 0:
        raise ValueError("one_heavy_round requires a nonempty dataset")
    light, leaf = _heavy_path(sorted_data, universe.bit_length)
    rho = sample_laplace(1.0 / epsilon, rng)
    for depth, (j0, j1) in enumerate(light):
        w_min = j1 - j0
        if w_min > t / 10.0 and \
                w_min + sample_laplace(1.0 / epsilon, rng) >= t / 4.0 + rho:
            return left_right_leaf(TreeVertex(depth, leaf >> (universe.bit_length - depth)),
                                   universe)
    return leaf


def _child_universe(universe: Universe) -> Universe:
    return Universe((universe.bit_length - 1).bit_length())


def slice_steps(universe: Universe) -> int:
    """Slices the recursion may take: three per level above the base case."""
    levels = 0
    while universe.size > 8:
        levels += 1
        universe = _child_universe(universe)
    return 3 * levels


# scores sorted data: callers pass np.sort of their slice
_IPP_QUALITY = QualityFunction(evaluate=_sorted_ipp_score)


def _base_case(data: np.ndarray, universe: Universe, epsilon: float, rng) -> int:
    return int(exponential_mechanism(list(range(universe.size)), _IPP_QUALITY,
                                     _ascending(data), epsilon, rng))


def _trim_map(descending: bool) -> OrderMap:
    """A level's trim: its t smallest or t largest points, labels projected.

    `apply` is a stable sort. `select` sorts the projected input in place
    only when it is out of order, then cuts the slice off one end, as a
    prefix view or a reversed suffix view, and leaves the rest as a sorted
    view between them: a level's remainder stays sorted in the session's
    buffer. The map names are those of the trace's apply spans.
    """

    def apply(a: np.ndarray) -> np.ndarray:
        ordered = np.sort(_project_labels(a), kind="stable")
        return ordered[::-1] if descending else ordered

    def select(a: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        values = _project_labels(a)
        if not _is_sorted(values):
            values.sort()
        if descending:
            cut = len(values) - k
            return values[cut:][::-1], values[:cut]
        return values[:k], values[k:]

    return OrderMap("descending" if descending else "project-ascending", apply, select)


def _depth_vertex_quality(universe: Universe, depth: int,
                          elements: np.ndarray) -> QualityFunction:
    # adding one element raises exactly one depth-q vertex weight by 1, so
    # the function is 1-bounded; counts are tabulated once per slice
    shift = np.uint64(universe.bit_length - depth)
    prefixes, counts = np.unique(elements >> shift, return_counts=True)
    table = {int(p): int(c) for p, c in zip(prefixes, counts)}
    return QualityFunction(
        evaluate=lambda d, v: table.get(v.prefix, 0),
        bound_k=1,
        touched=lambda d: [TreeVertex(depth, p) for p in sorted(table)])


def _candidate_leaves(v: TreeVertex, universe: Universe) -> List[int]:
    if v.depth >= universe.bit_length:
        return [v.prefix]
    lo, hi = vertex_interval(v, universe)
    return sorted({lo, hi - 1, left_right_leaf(v, universe)})


def ipp(universe: Universe, data, epsilon: float, delta: float,
        rng: np.random.Generator, enforce_regime: bool = True,
        noisy_sizes: bool = True) -> int:
    """Private interior point: returns z with min(data) <= z <= max(data)
    except with probability O(delta * log*|X|), for datasets in the size regime.

    Draws the shared gate noise once, then runs the level recursion at the
    per-step budget (epsilon, delta). All slicing goes through a single
    reorder-slice-compute session, a stored slice is read only by one
    delayed computation, and each level recurses on the session's shrinking
    remainder. With `noisy_sizes=False` every slice takes exactly its
    requested size; `enforce_regime=False` skips the size checks.
    """
    elements = as_elements(data, universe.bit_length)
    t = trim_parameter(epsilon, delta)
    required = regime_threshold(universe, epsilon, delta)
    if enforce_regime and elements.shape[0] < required:
        raise RegimeError(
            f"interior point at epsilon={epsilon}, delta={delta} on a "
            f"{universe.bit_length}-bit domain needs at least {required} points, "
            f"got {elements.shape[0]}", required=required, provided=elements.shape[0])
    rho = sample_laplace(1.0 / epsilon, rng)
    if universe.size <= 8:
        return _base_case(elements, universe, epsilon, rng)
    session = RscSession(elements, slice_steps(universe),
                         PrivacyBudget(epsilon, delta), 1, noisy_sizes)

    def recurse(level: Universe) -> int:
        if level.size <= 8:
            return _base_case(_project_labels(session.remaining), level, epsilon, rng)
        if enforce_regime and len(session.remaining) < 4 * t + 1:
            raise RegimeError(
                f"level needs more than {4 * t} points to populate its slices, "
                f"got {len(session.remaining)}", required=4 * t + 1,
                provided=len(session.remaining))

        low_step = session.step
        select_and_compute(session, SliceComputation(t, None, _trim_map(False)), rng)
        high_step = session.step
        select_and_compute(session, SliceComputation(t, None, _trim_map(True)), rng)

        rest = session.remaining
        gate = gamma(rest, level) + sample_laplace(1.0 / epsilon, rng)
        if gate >= 3.0 * t / 4.0 + rho and len(rest) > 0:
            return int(one_heavy_round(rest, level, t, epsilon, rng))

        embed_step = session.step
        select_and_compute(session, SliceComputation(2 * t, None, embed_order_map(level)), rng)
        depth = min(recurse(_child_universe(level)) + 1, level.bit_length)

        def choose(embedded: np.ndarray) -> TreeVertex:
            slice_elements = embedded[:, 1]
            return choosing_mechanism(_depth_vertex_quality(level, depth, slice_elements),
                                      slice_elements, epsilon, delta, delta, rng,
                                      fallback=TreeVertex(depth, 0))

        candidates = _candidate_leaves(delayed_compute(session, embed_step, choose), level)
        border = np.sort(np.concatenate([delayed_compute(session, low_step, lambda s: s),
                                         delayed_compute(session, high_step, lambda s: s)]))
        return int(exponential_mechanism(candidates, _IPP_QUALITY, border, epsilon, rng))

    return recurse(universe)
