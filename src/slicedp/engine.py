"""Reorder-slice-compute sessions.

A session repeatedly reorders its remaining data with a caller-supplied order
map, removes a prefix slice whose size carries geometric noise, and runs a DP
computation on the slice. Composition cost is independent of the number of
slices; `privacy_cost` reports the explicit conservative bound.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .mechanisms import PrivacyBudget, sample_geometric


def as_elements(data, bit_length: int) -> np.ndarray:
    """Caller data as a uint64 array of elements of X = [0, 2^bit_length);
    rows of d coordinates each in X are accepted too.

    Raises ValueError on a bit length outside [1, 64] and on a negative,
    non-integer or out-of-range element. A uint64 array that passes the
    checks is returned without a copy, so the result may be the caller's
    array: no reader may write into it. At bit length 64 a uint64 array
    skips the checks too, since every value it can hold lies in X.
    """
    if not (1 <= bit_length <= 64):
        raise ValueError(f"bit_length must lie in [1, 64], got {bit_length}")
    arr = np.asarray(data)
    if arr.dtype == np.uint64 and bit_length == 64:
        return arr
    if arr.size and (arr.dtype.kind == "O" or (arr.dtype.kind == "f" and arr is not data)):
        # numpy rounds integers that share no integer dtype through float64;
        # Python integers stay exact, anything else is checked as a float
        exact = np.asarray(data, dtype=object)
        arr = exact if all(isinstance(v, (int, np.integer)) for v in exact.flat) \
            else arr.astype(np.float64)
    if arr.dtype.kind == "f":
        bad = arr[~(np.isfinite(arr) & (arr == np.floor(arr)))]
        if bad.size:
            raise ValueError(f"element {bad[0]} is not a whole number")
    if arr.size:
        if arr.dtype.kind != "u" and arr.min() < 0:
            raise ValueError(f"negative element {arr.min()} in {bit_length}-bit domain")
        if int(arr.max()) >= (1 << bit_length):
            raise ValueError(
                f"element {int(arr.max())} out of range for {bit_length}-bit domain")
    return arr.astype(np.uint64, copy=False)


@dataclass(frozen=True)
class OrderMap:
    """Deterministic, adjacency-preserving map from a multiset to a list.

    Adjacent inputs must yield equal or adjacent output lists. The sorting
    maps are permutations of their input; the embedding map relabels, and
    audit maps may drop elements, so permutation is a property of specific
    maps, not of the type.

    `split(a, k)` returns the first k outputs and the rest. A map may supply
    `select(a, k)` to find the slice without ordering the whole input; it is
    called only for 0 < k < len(a), and its slice must equal `apply(a)[:k]`.
    The rest is in whatever order the map leaves it, so a reader must check
    or sort its order, or only count it.

    `select` may permute `a` in place and return the slice and the rest as
    views of `a` that do not overlap, so the caller must own `a`, and
    nothing may hold a view of it that expects its old order. `apply`
    leaves `a` as it is; its rest is a view of the fresh array it returns.
    """

    name: str
    apply: Callable[[np.ndarray], np.ndarray]
    select: Optional[Callable[[np.ndarray, int], Tuple[np.ndarray, np.ndarray]]] = None

    def split(self, a: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        if self.select is not None and 0 < k < len(a):
            return self.select(a, k)
        ordered = self.apply(a)
        return ordered[:k], ordered[k:]


def ascending_map() -> OrderMap:
    return OrderMap("ascending", lambda a: np.sort(a, kind="stable"))


def descending_map() -> OrderMap:
    """Largest first, on 1-D arrays."""
    return OrderMap("descending", lambda a: np.sort(a, kind="stable")[::-1])


def _row_order(a: np.ndarray, priority) -> np.ndarray:
    """Argsort of rows by the columns in `priority`, first one primary.

    Nonnegative integer columns are packed, by their bit widths, into as few
    uint64 keys as fit; equal packed keys mean equal rows. The sort is
    numpy's default, unstable kind where ties cannot change a row: when one
    key holds every column, or when the first key has no ties. Otherwise a
    lexsort with one key per packed key orders the rows. Either way the rows
    come out as a lexsort with one key per column orders them; only the
    order among identical rows may differ, and with it which of them an
    index names.
    """
    cols = [a[:, i] for i in priority]
    if a.dtype.kind in "ui" and a.size and int(a.min()) >= 0:
        keys, used = [], 64
        for col in cols:
            width = max(int(col.max()).bit_length(), 1)
            if used + width > 64:
                keys.append(col.astype(np.uint64))
                used = width
            else:
                keys[-1] = (keys[-1] << np.uint64(width)) | col.astype(np.uint64)
                used += width
        cols = keys
    order = np.argsort(cols[0])
    if len(cols) > 1:
        first = cols[0][order]
        if (first[1:] == first[:-1]).any():
            return np.lexsort(tuple(reversed(cols)))
    return order


def axis_map(axis: int, reverse: bool = False) -> OrderMap:
    """Order rows by coordinate `axis`, ties by the remaining coordinates.

    Gives the per-axis total order the rectangle learner slices under.
    `select` partitions coordinate `axis` around the k-th row and orders
    only the rows on the near side of that pivot. It then moves the rows of
    `a`'s last k slots that were not taken into the taken rows' slots, and
    the taken rows into the last k, in O(k·d): `a[:n-k]` is the rest,
    unordered. Rows are gathered with `np.take(..., axis=0)`, which copies
    whole rows about three times as fast as a 2-D fancy index.
    """

    def ascending(a: np.ndarray) -> np.ndarray:
        return _row_order(a, [axis] + [i for i in range(a.shape[1]) if i != axis])

    def apply(a: np.ndarray) -> np.ndarray:
        order = ascending(a)
        if reverse:
            order = order[::-1]
        return np.take(a, order, axis=0)

    def select(a: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        # every row among the first k lies on the near side of the pivot
        coord = a[:, axis]
        at = len(a) - k if reverse else k - 1
        pivot = np.partition(coord, at)[at]
        near = np.flatnonzero(coord >= pivot if reverse else coord <= pivot)
        rows = np.take(a, near, axis=0)
        order = ascending(rows)
        order = order[::-1][:k] if reverse else order[:k]
        head, taken = np.take(rows, order, axis=0), near[order]
        # the untaken rows of the last k slots fill the taken rows' slots
        cut = len(a) - k
        hole = taken < cut
        kept = np.ones(k, dtype=bool)
        kept[taken[~hole] - cut] = False
        a[taken[hole]] = np.take(a, cut + np.flatnonzero(kept), axis=0)
        a[cut:] = head
        return head, a[:cut]

    return OrderMap(f"axis{axis}{'-desc' if reverse else '-asc'}", apply, select)


@dataclass(frozen=True)
class SliceComputation:
    """One step request: slice `m` (+ noise) elements under `map`, run `algorithm`.

    `algorithm` is a (budget.epsilon, budget.delta)-DP computation on the
    slice, or None to slice without computing (the delayed-compute pattern).
    """

    m: int
    algorithm: Optional[Callable]
    map: OrderMap

    def __post_init__(self):
        if self.m < 0:
            raise ValueError(f"requested slice size must be nonnegative, got {self.m}")


class RscSession:
    """A session's state: `remaining` holds the rows no step has sliced yet,
    in the order the last step's map left it, so every reader must check or
    sort its order, or only count it.

    The session copies its data once, since `as_elements` may return the
    caller's array, and owns that buffer: an order map's `split` may permute
    `remaining` in place, and the new remainder is a view of it. A stored
    slice never overlaps the remainder, so no later step writes into it.
    """

    def __init__(self, data, tau: int, budget: PrivacyBudget, k: int = 1,
                 noisy_sizes: bool = True):
        if tau < 1:
            raise ValueError(f"tau must be at least 1, got {tau}")
        if not (0.0 < budget.epsilon <= 1.0):
            raise ValueError(f"per-step epsilon must lie in (0, 1], got {budget.epsilon}")
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        self.remaining = as_elements(data, 64).copy()
        self.stored_slices = {}
        self.step = 0
        self.tau = tau
        self.budget = budget
        self.k = k
        self.noisy_sizes = noisy_sizes
        self.delayed_used = {}


def select_and_compute(session: RscSession, spec: SliceComputation,
                       rng: np.random.Generator):
    """Run one slice step; returns (result or None, realized slice size m_hat).

    m_hat = m + Geom(1 - e^-eps) (or m exactly for deterministic-size
    sessions). When m_hat exceeds the remaining data, the slice takes
    everything; the regime checks of the callers keep this rare. The slice
    is the first m_hat rows of `spec.map`'s order; the new remainder is the
    map's `split` rest.
    """
    if session.step >= session.tau:
        raise RuntimeError(f"session exhausted: all {session.tau} steps used")
    m_hat = spec.m
    if session.noisy_sizes:
        m_hat += sample_geometric(session.budget.epsilon, rng)
    slice_part, session.remaining = spec.map.split(
        session.remaining, min(m_hat, len(session.remaining)))
    session.stored_slices[session.step] = slice_part
    session.delayed_used[session.step] = 0
    session.step += 1
    result = spec.algorithm(slice_part) if spec.algorithm is not None else None
    return result, m_hat


def delayed_compute(session: RscSession, step_index: int, algorithm: Callable):
    """Run one more DP computation on a stored slice (at most k per slice)."""
    if step_index not in session.stored_slices:
        raise KeyError(f"no stored slice for step {step_index}")
    if session.delayed_used[step_index] >= session.k:
        raise RuntimeError(
            f"slice {step_index} already received {session.k} delayed compute(s)")
    session.delayed_used[step_index] += 1
    return algorithm(session.stored_slices[step_index])


def holder_call_cap(delta_hat: float) -> int:
    """Smallest w with (5/6)^w <= delta_hat: the holder-call count cap."""
    if not (0.0 < delta_hat < 1.0):
        raise ValueError(f"delta_hat must lie in (0, 1), got {delta_hat}")
    # -log(delta_hat), not log(1 / delta_hat): 1 / delta_hat overflows at subnormals
    return math.ceil(-math.log(delta_hat) / math.log(6.0 / 5.0))


class PrivacyCost(NamedTuple):
    """Accounted totals. Unlike a PrivacyBudget, delta may reach 1, where
    the bound guarantees nothing."""

    epsilon: float
    delta: float


def privacy_cost(epsilon_step: float, delta_step: float, tau: int, k: int,
                 delta_hat: float, applications: int = 1) -> PrivacyCost:
    """Conservative explicit privacy bound for RSC executions.

    Each first-phase holder call costs (3 eps, 2 delta), the number of calls
    exceeds w = holder_call_cap(delta_hat) with probability at most
    (5/6)^w, and each delayed compute on a slice costs (2 eps, 2 delta):
    eps_total = 3 * eps * max(applications, w) + 2 * k * eps, and the delta
    term is exact: delta_total = delta_hat + 2 * k * tau * delta.
    """
    if epsilon_step < 0 or delta_step < 0:
        raise ValueError("per-step budget must be nonnegative")
    if tau < 1 or k < 1 or applications < 1:
        raise ValueError("tau, k, and applications must be at least 1")
    w = holder_call_cap(delta_hat)
    eps_total = 3.0 * epsilon_step * max(applications, w) \
        + 2.0 * k * epsilon_step
    delta_total = delta_hat + 2.0 * k * tau * delta_step
    return PrivacyCost(eps_total, delta_total)
