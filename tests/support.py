"""Shared oracles and harnesses for the test suite.

Everything here is deliberately independent of the library internals: counts
are recomputed with plain Python or scipy so library outputs are checked
against a second implementation, not against themselves. The one exception
is `embedding`, which reads the shipped order map on purpose so the
adjacency checks run on the embedding `ipp` uses.
"""

import csv
import math
from bisect import bisect_right
from collections import Counter
from typing import NamedTuple

import numpy as np
from scipy import stats

from slicedp import (LabeledSample, QcInstance, SimTranscript, SliceComputation, TreeVertex,
                     Universe, ascending_map, direct_run, embed_order_map, gamma,
                     left_right_leaf, sample_geometric, sample_laplace, simulate, sync_map,
                     vertex_interval)
from slicedp.engine import as_elements
from slicedp.sync import _check_epsilon
from slicedp.treelog import _heavy_path


def chi_squared_two_sample(counts_a, counts_b, min_expected=5.0):
    """Two-sample chi-squared statistic over a shared outcome histogram.

    Bins whose pooled expected count falls below min_expected are merged into
    the next bin (sorted by pooled frequency) before computing the statistic.
    Returns (statistic, degrees_of_freedom).
    """
    keys = sorted(set(counts_a) | set(counts_b), key=lambda k: (-(counts_a.get(k, 0) + counts_b.get(k, 0)), str(k)))
    n_a = sum(counts_a.values())
    n_b = sum(counts_b.values())
    if n_a == 0 or n_b == 0:
        raise ValueError("both samples must be nonempty")
    bins = []
    acc_a = acc_b = 0
    for key in keys:
        acc_a += counts_a.get(key, 0)
        acc_b += counts_b.get(key, 0)
        pooled = (acc_a + acc_b) * min(n_a, n_b) / (n_a + n_b)
        if pooled >= min_expected:
            bins.append((acc_a, acc_b))
            acc_a = acc_b = 0
    if acc_a or acc_b:
        if bins:
            last_a, last_b = bins.pop()
            bins.append((last_a + acc_a, last_b + acc_b))
        else:
            bins.append((acc_a, acc_b))
    if len(bins) < 2:
        return 0.0, 1
    stat = 0.0
    for o_a, o_b in bins:
        # two-sample statistic with sample-size weighting
        term = (o_a * math.sqrt(n_b / n_a) - o_b * math.sqrt(n_a / n_b)) ** 2
        stat += term / (o_a + o_b)
    return stat, len(bins) - 1


def chi_squared_critical(df, confidence=0.99):
    return float(stats.chi2.ppf(confidence, df))


def chi_squared_goodness_of_fit(counts, law, min_expected=5.0):
    """Chi-squared statistic of an observed histogram against an exact law.

    `counts` maps outcomes to frequencies and `law` outcomes to
    probabilities. Outcomes are taken in `law`'s order and merged with the
    next until their expected count reaches min_expected; a short remainder
    joins the last bin. Returns (statistic, degrees_of_freedom).
    """
    n = sum(counts.values())
    bins = []
    observed = expected = 0.0
    for outcome, prob in law.items():
        observed += counts.get(outcome, 0)
        expected += n * prob
        if expected >= min_expected:
            bins.append((observed, expected))
            observed = expected = 0.0
    if expected or observed:
        last_o, last_e = bins.pop() if bins else (0.0, 0.0)
        bins.append((last_o + observed, last_e + expected))
    stat = sum((o - e) ** 2 / e for o, e in bins)
    return stat, max(len(bins) - 1, 1)


def cumdist_oracle(a, b):
    """Max over thresholds of the below-or-equal count difference.

    Plain-Python reimplementation used to cross-check the library's version.
    """
    if len(a) != len(b):
        raise ValueError("equal sizes required")
    sa, sb = sorted(a), sorted(b)
    best = 0
    for z in sorted(set(sa) | set(sb)):
        best = max(best, abs(bisect_right(sa, z) - bisect_right(sb, z)))
    return best


def subtree_weight(sorted_data, v, universe):
    """Number of elements in v's interval; two binary searches on sorted input."""
    lo, hi = vertex_interval(v, universe)
    left = int(np.searchsorted(sorted_data, np.uint64(lo), side="left"))
    right = int(np.searchsorted(sorted_data, np.uint64(hi - 1), side="right"))
    return right - left


def gamma_sensitivity_check(data, x, universe):
    """1 iff adding x moves the balance statistic by at most 1."""
    base = gamma(data, universe)
    arr = np.append(as_elements(data, 64), np.uint64(x))
    return 1 if abs(gamma(arr, universe) - base) <= 1 else 0


class Embedding(NamedTuple):
    pairs: list
    gamma: int
    path: list


def embedding(data, universe):
    """The embedding `ipp` runs, read off the shipped code rather than an
    oracle: the (label, element) rows of `embed_order_map` as pairs, the
    balance statistic, and the greedy path from the root to the leaf the
    heavy-path walk reaches."""
    bits = universe.bit_length
    arr = as_elements(data, bits)
    rows = embed_order_map(universe).apply(arr)
    _, leaf = _heavy_path(np.sort(arr), bits)
    path = [TreeVertex(depth, leaf >> (bits - depth)) for depth in range(bits + 1)]
    return Embedding([tuple(r) for r in rows.tolist()], gamma(arr, universe), path)


def _common_path_depth(path_a, path_b):
    depth = -1
    for va, vb in zip(path_a, path_b):
        if va != vb:
            break
        depth = va.depth
    return depth


def insertion_relabel_check(embed_a, embed_b, x, limit):
    """Constructive form of the almost-adjacency property of the embedding.

    embed_a / embed_b are the embeddings of D and D + {x}. The entries that
    may need new labels are exactly those still unassigned when the two
    descent paths part ways: entries labeled deeper than the last common
    path vertex. Verifies that zone has at most `limit` entries on the D
    side and that its element multiset differs from the extended side's
    zone by one copy of x, then builds the relabeled list and confirms
    multiset adjacency. Returns the zone length.
    """
    pairs_a, pairs_b = embed_a.pairs, embed_b.pairs
    if len(pairs_b) != len(pairs_a) + 1:
        raise ValueError("pairs_b must contain exactly one extra entry")
    dv = _common_path_depth(embed_a.path, embed_b.path)
    # zones sit at the front: labels sort descending and zone labels are > dv
    zone_a = [p for p in pairs_a if p[0] > dv]
    zone_b = [p for p in pairs_b if p[0] > dv]
    assert pairs_a[:len(zone_a)] == zone_a and pairs_b[:len(zone_b)] == zone_b
    assert len(zone_a) <= limit, f"relabel zone {len(zone_a)} exceeds budget {limit}"

    # x lives in the zone when the paths actually deviated; otherwise the
    # zone element multisets agree and x sits in the common suffix
    elems_a = Counter(e for _, e in zone_a)
    elems_b = Counter(e for _, e in zone_b)
    assert dict(elems_b - elems_a) in ({x: 1}, {}) and not (elems_a - elems_b), \
        f"zone element multisets differ by {dict(elems_b - elems_a)}, expected one copy of {x}"

    # copy labels from zone_b onto zone_a by matching element values
    available = {}
    for label, elem in zone_b:
        available.setdefault(elem, []).append(label)
    relabeled = []
    for _, elem in zone_a:
        stack = available.get(elem)
        relabeled.append((stack.pop() if stack else None, elem))
    assert all(label is not None for label, _ in relabeled)
    modified = Counter(relabeled) + Counter(pairs_a[len(zone_a):])
    extra = Counter(pairs_b) - modified
    assert sum(extra.values()) == 1 and not (modified - Counter(pairs_b)), \
        "relabeled list is not adjacent to the extended list"
    (_, extra_elem), = extra.keys()
    assert extra_elem == x
    return len(zone_a)


def positionwise_relabel_labels(pairs_a, pairs_b, limit):
    """Labels of pairs_a with the first `limit` entries overwritten by
    pairs_b's labels at the same positions (equal-length lists)."""
    if len(pairs_a) != len(pairs_b):
        raise ValueError("equal lengths required")
    cut = min(limit, len(pairs_a))
    return [pairs_b[i][0] for i in range(cut)] + [p[0] for p in pairs_a[cut:]]


def clustered_instance(rng, n, bits, outliers):
    """One dominant value plus a few scattered ones; keeps the balance
    statistic of the embedding at most `outliers`."""
    top = (1 << bits) - 1
    center = int(rng.integers(0, top + 1))
    data = [center] * (n - outliers) + [int(v) for v in rng.integers(0, top + 1, size=outliers)]
    rng.shuffle(data)
    return data


def planted_box(rng, n_pos, n_neg, dims, bits, margin_frac=0.1, box=None):
    """Points labeled by an axis-aligned box with margin.

    Returns (points, labels, box) where box is a list of (lo, hi) per axis;
    pass box to draw fresh points from a previously planted one. Negatives
    are drawn outside the margin-inflated box.
    """
    top = (1 << bits) - 1
    if box is None:
        box = []
        for _ in range(dims):
            width = int(top * 0.4)
            lo = int(rng.integers(int(top * 0.05), top - width - int(top * 0.05)))
            box.append((lo, lo + width))
    pos = np.column_stack([rng.integers(lo, hi + 1, size=n_pos, dtype=np.uint64)
                           for lo, hi in box])
    margin = [max(1, int((hi - lo) * margin_frac)) for lo, hi in box]
    neg_rows = []
    while len(neg_rows) < n_neg:
        cand = rng.integers(0, top + 1, size=(n_neg, dims)).astype(np.uint64)
        inside = np.ones(len(cand), dtype=bool)
        for axis, (lo, hi) in enumerate(box):
            inside &= (cand[:, axis] >= lo - margin[axis]) & (cand[:, axis] <= hi + margin[axis])
        neg_rows.extend(cand[~inside].tolist())
    neg = np.array(neg_rows[:n_neg], dtype=np.uint64)
    points = np.vstack([pos, neg])
    labels = np.concatenate([np.ones(n_pos, dtype=np.int64), np.zeros(n_neg, dtype=np.int64)])
    return points, labels, box


def random_quasi_concave(rng, size, peak_value=None):
    """Random nonnegative quasi-concave integer table: rises to a single
    peak then falls (either side possibly empty)."""
    peak_pos = int(rng.integers(0, size))
    peak_value = int(rng.integers(1, 50)) if peak_value is None else peak_value
    rise = np.sort(rng.integers(0, peak_value + 1, size=peak_pos))
    fall = -np.sort(-rng.integers(0, peak_value + 1, size=size - peak_pos - 1))
    return np.concatenate([rise, [peak_value], fall]).astype(np.int64)


def _descend(sorted_data, universe, visit):
    """Walk root to leaf along the heavier child (ties left), calling
    visit(vertex, left_child, w_left, right_child, w_right) per level with
    weights from two fresh binary searches each; returns visit's first
    non-None result or the final leaf vertex."""
    cur = TreeVertex(0, 0)
    for depth in range(universe.bit_length):
        left = TreeVertex(depth + 1, 2 * cur.prefix)
        right = TreeVertex(depth + 1, 2 * cur.prefix + 1)
        w_left = subtree_weight(sorted_data, left, universe)
        w_right = subtree_weight(sorted_data, right, universe)
        stop = visit(cur, left, w_left, right, w_right)
        if stop is not None:
            return stop
        cur = left if w_left >= w_right else right
    return cur


def embed_oracle(data, universe):
    """Heavy-path embedding by per-vertex weights: (pairs, gamma, path).

    pairs are (label, element) in reversed lexicographic order."""
    sorted_data = np.sort(np.asarray(data).astype(np.uint64))
    labels = np.full(sorted_data.size, universe.bit_length, dtype=np.uint64)
    path = [TreeVertex(0, 0)]
    state = {"gamma": 0}

    def visit(cur, left, w_left, right, w_right):
        state["gamma"] = max(state["gamma"], min(w_left, w_right))
        light = right if w_left >= w_right else left
        path.append(left if w_left >= w_right else right)
        lo, hi = vertex_interval(light, universe)
        i0 = int(np.searchsorted(sorted_data, np.uint64(lo), side="left"))
        i1 = int(np.searchsorted(sorted_data, np.uint64(hi - 1), side="right"))
        labels[i0:i1] = cur.depth + 1
        return None

    _descend(sorted_data, universe, visit)
    pairs = sorted(zip(labels.tolist(), sorted_data.tolist()), reverse=True)
    return pairs, state["gamma"], path


def one_heavy_round_oracle(data, universe, t, epsilon, rng):
    """Single heavy round by per-vertex weights, with the library's draw order:
    the threshold noise first, then one draw per eligible depth."""
    sorted_data = np.sort(np.asarray(data).astype(np.uint64))
    rho = sample_laplace(1.0 / epsilon, rng)

    def visit(cur, left, w_left, right, w_right):
        w_min = min(w_left, w_right)
        if w_min > t / 10.0 and \
                w_min + sample_laplace(1.0 / epsilon, rng) >= t / 4.0 + rho:
            return left_right_leaf(cur, universe)
        return None

    out = _descend(sorted_data, universe, visit)
    return out.prefix if isinstance(out, TreeVertex) else int(out)


def is_quasi_concave_oracle(scores) -> bool:
    """True iff the sequence never rises again after a strict fall (scan)."""
    arr = np.asarray(scores)
    fallen = False
    for i in range(1, arr.shape[0]):
        if arr[i] > arr[i - 1]:
            if fallen:
                return False
        elif arr[i] < arr[i - 1]:
            fallen = True
    return True


def axis_order_oracle(rows, axis, reverse=False):
    """Rows by coordinate `axis`, ties by the other coordinates in index
    order, with one lexsort key per column."""
    keys = [rows[:, i] for i in range(rows.shape[1] - 1, -1, -1) if i != axis]
    order = np.lexsort(tuple(keys + [rows[:, axis]]))
    return rows[order[::-1] if reverse else order]


def axis_select_oracle(rows, axis, reverse, k):
    """The axis maps' `select` as it was before sessions owned their buffer,
    for 0 < k < len(rows): partition coordinate `axis`, order the rows on the
    near side of the pivot with one lexsort key per column, and gather the
    rest with a mask and `np.compress`. `rows` is left as it is."""
    coord = rows[:, axis]
    at = len(rows) - k if reverse else k - 1
    pivot = np.partition(coord, at)[at]
    near = np.flatnonzero(coord >= pivot if reverse else coord <= pivot)
    keys = [rows[near, i] for i in range(rows.shape[1] - 1, -1, -1) if i != axis]
    near = near[np.lexsort(tuple(keys + [rows[near, axis]]))]
    taken = near[::-1][:k] if reverse else near[:k]
    rest = np.ones(len(rows), dtype=bool)
    rest[taken] = False
    return rows[taken], np.compress(rest, rows, axis=0)


# The element conversion as it was before `engine.as_elements(data, bit_length)`:
# a `Dataset` class whose callers read only `.elements`, over an unchecked
# one-argument conversion.

class _Dataset:
    """A multiset of elements of X = [0, 2^L) as a uint64 numpy array;
    rows of d coordinates each in X are accepted too."""

    def __init__(self, elements, bit_length: int):
        arr = _as_elements(elements)
        if arr.dtype.kind == "f":
            bad = arr[~(np.isfinite(arr) & (arr == np.floor(arr)))]
            if bad.size:
                raise ValueError(f"element {bad[0]} is not a whole number")
        if not (1 <= bit_length <= 64):
            raise ValueError(f"bit_length must lie in [1, 64], got {bit_length}")
        if arr.size:
            if arr.dtype.kind != "u" and arr.min() < 0:
                raise ValueError(f"negative element {arr.min()} in {bit_length}-bit domain")
            if int(arr.max()) >= (1 << bit_length):
                raise ValueError(
                    f"element {int(arr.max())} out of range for {bit_length}-bit domain")
        self.elements = arr.astype(np.uint64)

    def __len__(self):
        return int(self.elements.shape[0])


def _as_elements(data) -> np.ndarray:
    if isinstance(data, _Dataset):
        return data.elements
    if isinstance(data, np.ndarray):
        return data
    arr = np.asarray(data)
    if arr.dtype.kind == "f" and arr.size:
        # numpy rounds integers that share no integer dtype through float64
        exact = np.asarray(data, dtype=object)
        if all(isinstance(v, (int, np.integer)) for v in exact.flat):
            return exact.astype(np.uint64) if exact.min() >= 0 else exact
    return arr


def dataset_oracle(data, bit_length):
    return _Dataset(data, bit_length).elements


# The input loaders as they were before the numpy-backed reader: csv.reader
# (or a line loop) and one Python int() per cell.

def load_dataset_oracle(path, bit_length):
    values = []
    limit = 1 << bit_length
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                value = int(text)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: not an integer: {text!r}")
            if value < 0:
                raise ValueError(f"{path}: line {lineno}: negative value {value}")
            if value >= limit:
                raise ValueError(
                    f"{path}: line {lineno}: value {value} out of range for "
                    f"{bit_length}-bit domain (must be < {limit})")
            values.append(value)
    return dataset_oracle(np.asarray(values, dtype=np.uint64), bit_length)


def load_labeled_csv_oracle(path, bit_length):
    rows = []
    width = None
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                values = [int(cell) for cell in row]
            except ValueError:
                if lineno == 1:
                    continue  # header row
                raise ValueError(f"line {lineno}: non-integer entry in {row!r}")
            if len(values) < 2:
                raise ValueError(f"line {lineno}: need at least one coordinate and a label")
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise ValueError(f"line {lineno}: expected {width} columns, got {len(values)}")
            if values[-1] not in (0, 1):
                raise ValueError(f"line {lineno}: label must be 0 or 1, got {values[-1]}")
            rows.append(values)
    if not rows:
        raise ValueError("labeled file has no rows")
    arr = np.asarray(rows, dtype=np.int64)
    points = arr[:, :-1].astype(np.uint64)
    if points.shape[1] == 1:
        points = points[:, 0]
    return LabeledSample(points=points, labels=arr[:, -1],
                         universe=Universe(bit_length))


def load_qc_csv_oracle(path):
    entries = {}
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < 2:
                raise ValueError(f"line {lineno}: expected 'y,score', got {row!r}")
            try:
                y, score = int(row[0]), int(row[1])
            except ValueError:
                if lineno == 1:
                    continue  # header row
                raise ValueError(f"line {lineno}: non-integer entry in {row!r}")
            if y < 0:
                raise ValueError(f"line {lineno}: negative solution index {y}")
            if y in entries:
                raise ValueError(f"line {lineno}: duplicate solution index {y}")
            entries[y] = score
    if not entries:
        raise ValueError("score file has no rows")
    scores = np.zeros(max(entries) + 1, dtype=np.int64)
    for y, score in entries.items():
        scores[y] = score
    return QcInstance(scores)


# The list-based simulator that `slicedp.sync` replaced with one on uint64
# arrays: maps round-trip through Python lists, and the local-slice code is
# written out once per branch. Kept as the reference for the differential test.

def _apply_map_oracle(order_map, elements):
    if len(elements) == 0:
        return []
    arr = np.asarray(elements, dtype=np.uint64)
    return [int(v) for v in order_map.apply(arr)]


def _diff_and_rank_oracle(short, long):
    # first position where the mapped lists disagree; the inserted element
    # sits there and all later positions shift by one
    if len(long) != len(short) + 1:
        raise ValueError("order map is not adjacency preserving: output sizes differ by "
                         f"{len(long) - len(short)}")
    p0 = len(short)
    for j in range(len(short)):
        if short[j] != long[j]:
            p0 = j
            break
    if short[p0:] != long[p0 + 1:]:
        raise ValueError("order map is not adjacency preserving: suffixes disagree")
    return long[p0], p0 + 1


class DataHolderOracle:
    def __init__(self, b, epsilon, rng):
        _check_epsilon(epsilon)
        if b not in (0, 1):
            raise ValueError(f"b must be 0 or 1, got {b}")
        self.b = b
        self.epsilon = epsilon
        self._rng = rng
        self.stored = {}

    def query(self, data, x, q, algorithm, order_map, step=None):
        if q < 0:
            raise ValueError(f"q must be nonnegative, got {q}")
        delta = sample_geometric(self.epsilon, self._rng)
        m_hat = q + delta
        base = list(data) + ([x] if self.b == 1 else [])
        ordered = _apply_map_oracle(order_map, base)
        slice_part = ordered[:m_hat]
        self.stored[step] = slice_part
        result = algorithm(np.asarray(slice_part, dtype=np.uint64)) if algorithm else None
        alpha, beta = sync_map(self.b, delta, self.epsilon, self._rng)
        return q + alpha, beta, result

    def delayed(self, step, algorithm):
        return algorithm(np.asarray(self.stored[step], dtype=np.uint64))


def simulate_oracle(data, x, b, script, epsilon, rng, delayed=None):
    _check_epsilon(epsilon)
    holder = DataHolderOracle(b, epsilon, rng)
    current = [int(v) for v in dataset_oracle(data, 64)]
    x_cur = int(x)
    status = 0
    published = []
    holder_steps = []
    sim_slices = {}

    for i, spec in enumerate(script):
        mapped = _apply_map_oracle(spec.map, current)
        if status == 0:
            mapped_with = _apply_map_oracle(spec.map, current + [x_cur])
            if mapped == mapped_with:
                status = 1  # map eliminated the diff element
        if status == 1:
            m_hat = spec.m + sample_geometric(epsilon, rng)
            slice_part = mapped[:m_hat]
            current = mapped[m_hat:]
            sim_slices[i] = slice_part
            result = spec.algorithm(np.asarray(slice_part, dtype=np.uint64)) \
                if spec.algorithm else None
        else:
            m_hat = spec.m + sample_geometric(epsilon, rng)
            x_prime, p = _diff_and_rank_oracle(mapped, mapped_with)
            if m_hat < p:
                # this round does not involve the diff element
                slice_part = mapped[:m_hat]
                current = mapped[m_hat:]
                x_cur = x_prime
                sim_slices[i] = slice_part
                result = spec.algorithm(np.asarray(slice_part, dtype=np.uint64)) \
                    if spec.algorithm else None
            else:
                q = max(p, spec.m)
                q_hat, new_status, result = holder.query(current, x_cur, q,
                                                         spec.algorithm, spec.map, step=i)
                holder_steps.append(i)
                if new_status == 0:
                    if q_hat > len(mapped):
                        # both executions exhausted; remainders are equal
                        current = []
                        status = 1
                    else:
                        y = mapped[q_hat - 1]
                        current = mapped[q_hat:]
                        x_cur = y
                else:
                    current = mapped[q_hat:]
                    status = 1
        published.append(result)

    for step, algorithm in delayed or []:
        if step in holder.stored:
            published.append(holder.delayed(step, algorithm))
        else:
            published.append(algorithm(np.asarray(sim_slices[step], dtype=np.uint64)))

    return SimTranscript(published=published, holder_calls=len(holder_steps),
                         holder_steps=holder_steps, final_status=status,
                         final_diff=None if status == 1 else x_cur)


def audit_trials_oracle(seed, epsilon, tau, size, trials):
    """`cli._audit_trials` as a plain loop: each trial builds its three
    streams with `np.random.default_rng([seed, role, trial])`, the
    derivation that `slicedp.sync.trial_streams` vectorizes."""
    data = np.arange(1, size + 1, dtype=np.uint64)
    algorithm = lambda s: int(s.min()) if len(s) else -1
    script = [SliceComputation(1, algorithm, ascending_map()) for _ in range(tau)]
    counts, sim_outputs, direct_outputs = [], [], []
    for trial in trials:
        rng = [np.random.default_rng([seed, role, trial]) for role in range(3)]
        counts.append(simulate(data, 0, 1, script, epsilon, rng[2]).holder_calls)
        sim_outputs.append(tuple(simulate(data, 0, 0, script, epsilon, rng[0]).published))
        direct_outputs.append(tuple(direct_run(data, script, epsilon, rng[1])))
    return np.array(counts, dtype=np.int64), sim_outputs, direct_outputs


def _holder_call_outcomes(epsilon):
    """One holder call on `audit-sim`'s instance with b = 1, from the
    coupling's formulas: (probability that it synchronizes, {elements a
    call that does not synchronize consumes: probability}).

    The holder draws delta ~ Geom(1 - e^-eps) and does not synchronize at
    delta = 0, or at delta >= 1 with probability t_delta e^{(delta + 1) eps};
    either way the step consumes delta + 1 elements.
    """
    def threshold(i):
        return max(0.0, math.exp(-i * epsilon) + math.exp(-(i + 1) * epsilon) - 1.0)

    stays = {1: -math.expm1(-epsilon)}
    delta = 1
    while threshold(delta) > 0.0:
        stays[delta + 1] = (-math.expm1(-epsilon) * math.exp(-delta * epsilon)
                            * threshold(delta) * math.exp((delta + 1) * epsilon))
        delta += 1
    return 1.0 - sum(stays.values()), stays


def holder_calls_dp(epsilon, tau, size):
    """`holder_calls_exact` by a DP over the count of elements left, which
    holds whether or not the data runs out."""
    sync, stays = _holder_call_outcomes(epsilon)
    law = [0.0] * (tau + 1)
    live = {size: 1.0}  # elements left -> mass not yet synchronized
    for calls in range(1, tau):
        following = Counter()
        for left, mass in live.items():
            law[calls] += mass * sync
            for used, prob in stays.items():
                # a step that slices past the data synchronizes both runs
                if used > left:
                    law[calls] += mass * prob
                else:
                    following[left - used] += mass * prob
        live = following
    law[tau] = sum(live.values(), 0.0)
    return law


def holder_calls_exact(epsilon, tau, size):
    """Exact law of the holder calls on `audit-sim`'s instance: data 1 to
    `size`, x = 0, b = 1, `tau` ascending steps of m = 1. Entry c is
    Pr[calls = c], for c = 0 to tau.

    x sorts below every element, so every step calls the holder until a call
    synchronizes. While tau steps that do not synchronize cannot use up the
    data, each call synchronizes with the same probability p and
    Pr[calls > w] = (1 - p)^w for w < tau; otherwise a small DP over the
    count of elements left gives the law.
    """
    sync, stays = _holder_call_outcomes(epsilon)
    if size < tau * max(stays):
        return holder_calls_dp(epsilon, tau, size)
    return [0.0] + [(1 - sync) ** (c - 1) * sync for c in range(1, tau)] \
        + [(1 - sync) ** (tau - 1)]
