"""Spans and counters recorded from outside the slicedp package.

`instrument(tracer)` replaces, for the duration of a `with` block, the module
attributes through which slicedp's callers reach each layer's public
functions (for example `slicedp.treelog.gamma`, which `_recurse` looks up at
call time). Each replacement opens a span around the original call or counts
an event; none of them draws from a random generator, so a traced request
returns exactly what an untraced one does. Every attribute is put back when
the block exits.
"""

import functools
import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

REQUEST = "request"


class Tracer:
    """In-memory span log of one thread, plus named event counters.

    A span is [name, start, end, parent index, request id]; the parent of a
    request's root span is -1.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.request = -1
        self._stack = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.request])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children.

    Spans of one tracer nest on one stack, so a span's children are
    disjoint and lie inside it.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _module(name: str):
    # `slicedp.treelog` is shadowed on the package by the function of the
    # same name, so submodules are fetched by their import path
    return importlib.import_module(f"slicedp.{name}")


def _apply_span(map_name: str) -> str:
    if map_name in ("ascending", "project-ascending"):
        return "engine.apply.ascending"
    if map_name == "descending":
        return "engine.apply.descending"
    if map_name.startswith("axis"):
        return "engine.apply.axis"
    if map_name.startswith("embed-"):
        return "treelog.embed"
    return "engine.apply.other"


def _spanned(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(args, kwargs, result)
        return result
    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _timed_select(tracer: Tracer, fn):
    engine = _module("engine")

    # OrderMap and SliceComputation are frozen, so the step runs on a copy
    # of the request whose map opens a span around the original apply
    def select_and_compute(session, spec, rng):
        rows = len(session.remaining)
        apply, name = spec.map.apply, _apply_span(spec.map.name)

        def timed(a):
            index = tracer.open(name)
            try:
                return apply(a)
            finally:
                tracer.close(index)

        step = engine.SliceComputation(spec.m, spec.algorithm,
                                       engine.OrderMap(spec.map.name, timed))
        result, m_hat = fn(session, step, rng)
        tracer.counts["engine.rows_ordered"] += rows
        tracer.counts["engine.rows_sliced"] += min(m_hat, rows)
        return result, m_hat

    return _spanned(tracer, "engine.select_and_compute",
                    functools.wraps(fn)(select_and_compute))


def _hooks(tracer: Tracer) -> dict:
    """Span name -> hook that counts what the call did, from its arguments
    and result."""
    counts = tracer.counts

    def candidates(args, kwargs, result):
        counts["mechanisms.exponential_mechanism.candidates"] += len(args[0])

    def fallback(args, kwargs, result):
        chosen = kwargs["fallback"] if "fallback" in kwargs else args[6]
        counts["mechanisms.choosing_mechanism.fallbacks"] += result is chosen

    def labeled_rows(args, kwargs, result):
        counts["learners.load_labeled_csv.rows"] += len(result)

    def qc_rows(args, kwargs, result):
        counts["quasiconcave.load_qc_csv.rows"] += result.size

    def branch(args, kwargs, result):
        counts["quasiconcave.small_gaps"] += result.branch == "small-gap"

    return {"mechanisms.exponential_mechanism": candidates,
            "mechanisms.choosing_mechanism": fallback,
            "learners.load_labeled_csv": labeled_rows,
            "quasiconcave.load_qc_csv": qc_rows,
            "quasiconcave.qc_optimize": branch}


# (module the caller lives in, attribute it looks up, span name); the span
# name's first part is the layer that defines the function
SPANNED = [
    ("treelog", "ipp", "treelog.ipp"),
    ("learners", "ipp", "treelog.ipp"),
    ("cli", "ipp", "treelog.ipp"),
    ("treelog", "gamma", "treelog.gamma"),
    ("treelog", "one_heavy_round", "treelog.one_heavy_round"),
    ("treelog", "delayed_compute", "engine.delayed_compute"),
    ("treelog", "exponential_mechanism", "mechanisms.exponential_mechanism"),
    ("treelog", "choosing_mechanism", "mechanisms.choosing_mechanism"),
    ("cli", "load_labeled_csv", "learners.load_labeled_csv"),
    ("cli", "learn_rectangles", "learners.learn_rectangles"),
    ("cli", "load_qc_csv", "quasiconcave.load_qc_csv"),
    ("quasiconcave", "is_quasi_concave", "quasiconcave.is_quasi_concave"),
    ("quasiconcave", "build_increment_dataset", "quasiconcave.build_increment_dataset"),
    ("quasiconcave", "cumulative_ipp", "quasiconcave.cumulative_ipp"),
    ("cli", "qc_optimize", "quasiconcave.qc_optimize"),
    ("cli", "simulate", "sync.simulate"),
    ("cli", "direct_run", "sync.direct_run"),
    ("sync.DataHolder", "query", "sync.holder_query"),
    ("cli", "estimate_tv", "sync.estimate_tv"),
    ("cli", "main", "cli.main"),
]
SELECTS = ["treelog", "learners", "sync"]
# samplers are counted in every module that imports them by name
COUNTED = [
    ("treelog", "sample_laplace", "mechanisms.laplace_draws"),
    ("learners", "sample_laplace", "mechanisms.laplace_draws"),
    ("quasiconcave", "sample_laplace", "mechanisms.laplace_draws"),
    ("mechanisms", "sample_laplace", "mechanisms.laplace_draws"),
    ("engine", "sample_geometric", "mechanisms.geometric_draws"),
    ("sync", "sample_geometric", "mechanisms.geometric_draws"),
    ("sync", "sync_map", "sync.sync_map.calls"),
]


def _owner(path: str):
    module, _, cls = path.partition(".")
    owner = _module(module)
    return getattr(owner, cls) if cls else owner


def _replacements(tracer: Tracer) -> list:
    """(owner path, attribute, wrapper factory) of every replacement."""
    hooks = _hooks(tracer)
    return [(path, attr, lambda fn, name=name: _spanned(tracer, name, fn, hooks.get(name)))
            for path, attr, name in SPANNED] \
        + [(path, "select_and_compute", lambda fn: _timed_select(tracer, fn))
           for path in SELECTS] \
        + [(path, attr, lambda fn, name=name: _counted(tracer, name, fn))
           for path, attr, name in COUNTED]


def targets() -> list:
    """(owner, attribute) of every replacement `instrument` makes."""
    return [(_owner(path), attr) for path, attr, _ in _replacements(Tracer())]


@contextmanager
def instrument(tracer: Tracer):
    """Route calls into every layer through the tracer inside the block."""
    saved = []
    try:
        for path, attr, make in _replacements(tracer):
            owner = _owner(path)
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
