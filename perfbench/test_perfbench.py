"""Tests of the benchmark's own helpers.

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
import run  # noqa: E402
from calibration import Calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("n, percentile, beyond", [
    (19, 100.0, 0),     # no ladder percentile has 10 samples above it: the max
    (20, 50.0, 10),
    (37, 50.0, 18),
    (38, 75.0, 10),
    (91, 75.0, 23),
    (92, 90.0, 10),
    (1000, 99.0, 10),
    (9000, 99.0, 90),
    (20000, 99.9, 20),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, percentile, beyond):
    samples = list(np.random.default_rng(n).permutation(n) + 1.0)
    p, value = run.tail_latency(samples)
    assert p == percentile
    assert sum(1 for s in samples if s > value) == beyond


def test_percentile_interpolates_between_order_statistics():
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 100.0) == 4.0
    assert run.percentile([7.0], 99.0) == 7.0


def test_prefix_outputs_do_not_depend_on_run_length():
    case = workloads.Case("x", lambda i: i * i, lambda out: (True, out % 3 == 0), int)
    short = run.closed_loop([case, case], 4, 0.0)
    longer = run.closed_loop([case, case], 4, 0.05)
    assert longer["attempted"] > short["attempted"] == 8
    assert [len(v) for v in longer["per_case"].values()] == [8]
    assert (longer["digest"], longer["utility_rate"]) == (short["digest"], short["utility_rate"])


def test_host_factor_is_the_mean_sample_of_kernel_slowdowns():
    cal = Calibration()
    cal.sample()
    assert [len(v) for v in cal.samples.values()] == [1, 1, 1]
    slowdown = {"python": 2.0, "sort": 1.0, "csv": 4.0}
    cal.samples = {name: [ref * slowdown[name] * k for k in (1.0, 1.0, 4.0)]
                   for name, ref in calibration.REFERENCE_S.items()}
    assert cal.factor() == pytest.approx(2.0 * 2.0)  # the mean sample, not the median


def test_self_time_subtracts_only_direct_children():
    spans = [
        ["request", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.inner", 2.0, 3.0, 1, 0],
        ["b", 5.0, 6.0, 0, 0],
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_tracer_nests_spans_under_the_open_one():
    tracer = tracing.Tracer()
    tracer.request = 3
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    (name0, s0, e0, p0, r0), (name1, s1, e1, p1, r1) = tracer.spans
    assert (p0, p1, r0, r1) == (-1, outer, 3, 3)
    assert s0 <= s1 <= e1 <= e0


def _attributes():
    return [(owner, attr, vars(owner)[attr]) for owner, attr in tracing.targets()]


def _small_ipp(rng_seed):
    tl = workloads._mod("treelog")
    universe = tl.Universe(16)
    data = np.full(2800, 7, dtype=np.uint64)  # one value and 50 outliers
    data[:50] = workloads.draw_bits(np.random.default_rng(1), 16, 50)
    return tl.ipp(universe, data, 1.0, 0.5, np.random.default_rng(rng_seed))


def test_instrument_restores_every_attribute_and_draws_nothing():
    before = _attributes()
    untraced = [_small_ipp(s) for s in range(5)]
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        replaced = _attributes()
        traced = [_small_ipp(s) for s in range(5)]
    assert all(now is not orig for (_, _, now), (_, _, orig) in zip(replaced, before))
    assert [a for _, _, a in _attributes()] == [a for _, _, a in before]
    assert traced == untraced
    assert tracer.counts["mechanisms.laplace_draws"] > 0
    assert {s[0] for s in tracer.spans} >= {"treelog.ipp", "treelog.gamma",
                                            "engine.select_and_compute", "treelog.embed"}


def test_instrument_restores_attributes_when_the_block_raises():
    before = _attributes()
    with pytest.raises(RuntimeError):
        with tracing.instrument(tracing.Tracer()):
            raise RuntimeError("request failed")
    assert [a for _, _, a in _attributes()] == [a for _, _, a in before]


def test_draw_bits_covers_the_64_bit_domain():
    values = workloads.draw_bits(np.random.default_rng(0), 64, 1000)
    assert values.dtype == np.uint64
    assert int(values.max()) >= 1 << 63


def test_parse_durations_reads_the_pytest_table():
    text = ("============ slowest 5 durations ============\n"
            "740.12s call     tests/test_acceptance.py::test_criterion_09_rectangle_learner\n"
            "32.00s call     tests/test_acceptance.py::test_criterion_03_holder_call_tail\n"
            "0.50s setup    tests/test_cli.py::test_x\n"
            "187 passed in 850.00s\n")
    rows = run.parse_durations(text)
    assert [r["seconds"] for r in rows] == [740.12, 32.0, 0.5]
    assert rows[0]["test"].endswith("test_criterion_09_rectangle_learner")
    assert rows[2]["phase"] == "setup"


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_benchmark_json_declares_every_reported_metric():
    case = workloads.Case("x", lambda i: i, lambda out: (True, True), int)
    line = run.untraced_run([case], 2, 0.0, 0.5, Calibration())["line"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == _declared("end_to_end")
    layers = run.layer_metrics(tracing.Tracer(), 1, 1.0, 1.0, 1.0)
    assert {k: run.layer_unit(k) for k in layers} == _declared("per_layer")
