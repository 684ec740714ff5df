"""Closed-loop benchmark of the slicedp package.

    python3 perfbench/run.py --workload {rect,qc,audit} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --tier1

One client in one process sends each request after the previous one
completes. Requests cycle through the workload's inputs (see
`workloads.py`) in whole cycles: the workload's fixed number of prefix
cycles, then more until at least S seconds have passed. The prefix is the
seeded part: its latencies give `latency_p50_ms` and `latency_tail_ms`, and
its outputs are digested and scored, so the digest, `utility_rate` and the
sample count behind the tail repeat exactly at a fixed seed, whatever S is.
`req_per_s` is the median over all cycles of a cycle's requests per second
of request time.

Every gated time is divided by a host factor (see `calibration.py`): the
time of a fixed kernel, timed after each set-up and before each request,
over its time on the reference machine. Set-up and the loop each get their
own factor. The figures are thus times on the reference machine, and the
host's changing speed cancels; the raw times and the factors are printed
beside them.

Set-up generates the inputs, writes the input files and makes one warm-up
request, SETUP_REPEATS times; `setup_s` is the import time plus the median
of those. Every output is checked; a request fails on an exception, a failure
record or a broken invariant, and `error_rate` (failed / attempted) is
printed beside the metrics.

`--trace 0` prints the end-to-end metrics. `--trace 1` runs the seeded prefix
untraced and then traced, checks that both give the same digest, and prints
the per-layer metrics and the exact counts. Spans and a report of each run
are written to `perfbench/out/`. The last line of standard output is the
result as one JSON object.

`--tier1` runs the repository's tier-1 test command once and records its
wall time and five slowest tests in `perfbench/out/tier1.json`.
"""

import argparse
import contextlib
import gzip
import hashlib
import importlib
import importlib.metadata
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import REQUEST, Tracer, instrument, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 3
# request index of the warm-up request, outside the range the loop reaches
WARM_REQUEST = 1 << 32
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=5"]
SLICEDP_MODULES = ("engine", "mechanisms", "treelog", "learners", "quasiconcave",
                   "sync", "cli")

# per-layer metrics: span names reported as .calls and .self_ms per request
CALLS = ("engine.select_and_compute", "engine.delayed_compute", "treelog.ipp",
         "treelog.gamma", "treelog.one_heavy_round", "mechanisms.exponential_mechanism",
         "mechanisms.choosing_mechanism", "quasiconcave.is_quasi_concave",
         "sync.simulate", "sync.holder_query")
SELF_MS = ("engine.select_and_compute", "engine.apply.ascending",
           "engine.apply.descending", "engine.apply.axis", "treelog.ipp",
           "treelog.gamma", "treelog.embed", "treelog.one_heavy_round",
           "mechanisms.exponential_mechanism", "mechanisms.choosing_mechanism",
           "learners.load_labeled_csv", "learners.learn_rectangles",
           "quasiconcave.load_qc_csv", "quasiconcave.is_quasi_concave",
           "quasiconcave.build_increment_dataset", "quasiconcave.cumulative_ipp",
           "quasiconcave.qc_optimize", "sync.simulate", "sync.direct_run",
           "sync.holder_query", "sync.estimate_tv", "cli.main")
# counters, and span counts behind the branch rates, that repeat exactly at
# a fixed seed and run length
EXACT = ("mechanisms.laplace_draws", "mechanisms.geometric_draws", "engine.rows_ordered",
         "engine.rows_sliced", "mechanisms.exponential_mechanism.candidates",
         "mechanisms.choosing_mechanism.fallbacks", "quasiconcave.small_gaps",
         "sync.sync_map.calls")
EXACT_SPANS = ("treelog.gamma", "treelog.one_heavy_round", "mechanisms.choosing_mechanism",
               "quasiconcave.is_quasi_concave", "quasiconcave.qc_optimize")


def tail_latency(samples, beyond: int = TAIL_BEYOND):
    """(percentile, value) of the highest ladder percentile with at least
    `beyond` samples above it; (100, max) when no percentile has that many."""
    ordered = sorted(samples)
    for p in TAIL_LADDER:
        value = percentile(ordered, p)
        if sum(1 for s in ordered if s > value) >= beyond:
            return p, value
    return 100.0, ordered[-1]


def percentile(ordered, p: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine_info(seed) -> dict:
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f).strip() for f in ("level", "type", "size"))
        caches[f"L{level}{ {'Data': 'd', 'Instruction': 'i'}.get(kind, '')}"] = size
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"python": platform.python_version(), "numpy": numpy,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "caches": caches, "platform": platform.platform(), "seed": seed}


def digest(outputs) -> str:
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def closed_loop(cases, prefix_cycles: int, seconds: float = 0.0, tracer=None,
                calibration=None) -> dict:
    """Run whole cycles of requests: at least `prefix_cycles`, and until
    `seconds` have passed. The calibration kernel, if given, runs before
    each request, outside its time.

    Latencies, utility and the digest cover the seeded prefix, the same
    requests on every version of the program; throughput is the median over
    all cycles of a cycle's requests per second of request time.
    """
    per_case = {case.label: [] for case in cases}
    failed = useful = 0
    prefix, cycle_rates = [], []
    i = cycle = 0
    started = time.perf_counter()
    while cycle < prefix_cycles or time.perf_counter() - started < seconds:
        busy = 0.0
        for case in cases:
            if calibration is not None:
                calibration.sample()
            if tracer is not None:
                tracer.request = i
                root = tracer.open(REQUEST)
            t0 = time.perf_counter()
            try:
                output = case.call(i)
                elapsed = time.perf_counter() - t0
                valid, ok = case.check(output)
            except Exception:
                elapsed = time.perf_counter() - t0
                traceback.print_exc(limit=3, file=sys.stderr)
                output, valid, ok = None, False, False
            finally:
                if tracer is not None:
                    tracer.close(root)
            failed += not valid
            busy += elapsed
            if cycle < prefix_cycles:
                per_case[case.label].append(elapsed)
                useful += ok
                prefix.append([i, case.label, case.canonical(output) if valid else None])
            i += 1
        cycle_rates.append(len(cases) / busy)
        cycle += 1
    return {"attempted": i, "failed": failed, "req_per_s": statistics.median(cycle_rates),
            "per_case": per_case, "prefix_requests": len(prefix),
            "utility_rate": useful / len(prefix), "digest": digest(prefix)}


def layer_unit(name: str) -> str:
    if name.endswith(".self_ms"):
        return "ms"
    if name.endswith(".rows_per_s"):
        return "1/s"
    if name.endswith(("_rate", "_yield", ".coverage", ".overhead")):
        return "ratio"
    return "count"


def layer_metrics(tracer, requests: int, base_rps: float, traced_rps: float,
                  factor: float) -> dict:
    """Per-layer metrics of a traced run, with times divided by the host
    factor."""
    own = self_times(tracer.spans)
    calls, self_s, total_s = {}, {}, {}
    for span, s in zip(tracer.spans, own):
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + s
        total_s[name] = total_s.get(name, 0.0) + (span[2] - span[1])
    count = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in CALLS:
        out[f"{name}.calls"] = ratio(calls.get(name, 0), requests)
    for name in SELF_MS:
        out[f"{name}.self_ms"] = 1e3 * ratio(self_s.get(name, 0.0), requests) / factor
    out["engine.rows_ordered"] = ratio(count["engine.rows_ordered"], requests)
    out["engine.rows_sliced"] = ratio(count["engine.rows_sliced"], requests)
    out["engine.slice_yield"] = ratio(count["engine.rows_sliced"], count["engine.rows_ordered"])
    out["treelog.heavy_round_rate"] = ratio(calls.get("treelog.one_heavy_round", 0),
                                            calls.get("treelog.gamma", 0))
    out["mechanisms.exponential_mechanism.candidates"] = ratio(
        count["mechanisms.exponential_mechanism.candidates"],
        calls.get("mechanisms.exponential_mechanism", 0))
    out["mechanisms.choosing_mechanism.fallback_rate"] = ratio(
        count["mechanisms.choosing_mechanism.fallbacks"],
        calls.get("mechanisms.choosing_mechanism", 0))
    out["mechanisms.laplace_draws"] = ratio(count["mechanisms.laplace_draws"], requests)
    out["mechanisms.geometric_draws"] = ratio(count["mechanisms.geometric_draws"], requests)
    out["learners.load_labeled_csv.rows_per_s"] = ratio(
        count["learners.load_labeled_csv.rows"],
        total_s.get("learners.load_labeled_csv", 0) / factor)
    out["quasiconcave.load_qc_csv.rows_per_s"] = ratio(
        count["quasiconcave.load_qc_csv.rows"],
        total_s.get("quasiconcave.load_qc_csv", 0) / factor)
    out["quasiconcave.small_gap_rate"] = ratio(count["quasiconcave.small_gaps"],
                                               calls.get("quasiconcave.qc_optimize", 0))
    out["sync.sync_map.calls"] = ratio(count["sync.sync_map.calls"], requests)
    out["trace.coverage"] = 1.0 - ratio(self_s.get(REQUEST, 0.0), total_s.get(REQUEST, 0.0))
    out["trace.overhead"] = 1.0 - ratio(traced_rps, base_rps)
    return out


def write_spans(path: Path, spans) -> None:
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def run_tier1() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - started
    lines = proc.stdout.splitlines()
    result = {"command": "PYTHONPATH=src python " + " ".join(TIER1),
              "wall_s": wall, "returncode": proc.returncode,
              "summary": lines[-1] if lines else "",
              "slowest": parse_durations(proc.stdout), "machine": machine_info(None)}
    OUT.mkdir(exist_ok=True)
    (OUT / "tier1.json").write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result))
    return proc.returncode


def parse_durations(text: str) -> list:
    """The `--durations` table of a pytest run, slowest first."""
    found = re.findall(r"^(\d+(?:\.\d+)?)s (call|setup|teardown) +(\S+)$", text, re.M)
    return [{"seconds": float(s), "phase": phase, "test": test} for s, phase, test in found]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tier1", action="store_true",
                        help="time the tier-1 test suite instead of a workload")
    args = parser.parse_args(argv)
    if args.tier1:
        return run_tier1()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")
    if not (ROOT / "src" / "slicedp" / "__init__.py").is_file():
        print(f"no slicedp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from calibration import Calibration  # imports numpy, timed as part of set-up
    from workloads import WORKLOADS
    for name in SLICEDP_MODULES:
        importlib.import_module(f"slicedp.{name}")
    import_s = time.perf_counter() - started
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # set-up and the loop each get their own host factor
    setup_calibration, loop_calibration = Calibration(), Calibration()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            cases = workload.setup(args.seed, workdir)
            cases[workload.warm_case].call(WARM_REQUEST)
            setups.append(time.perf_counter() - t0)
            setup_calibration.sample()
        setup_factor = setup_calibration.factor()
        setup_s = (import_s + statistics.median(setups)) / setup_factor
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            result = traced_run(cases, workload.prefix_cycles, spans, loop_calibration)
        else:
            result = untraced_run(cases, workload.prefix_cycles, args.seconds, setup_s,
                                  loop_calibration)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # kept while another run still uses it
    report = {"workload": args.workload, "trace": args.trace, "setup_runs_s": setups,
              "import_s": import_s, "setup_host_factor": setup_factor, "machine": machine_info(args.seed),
              **result["report"]}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n")
    for key in ("machine", "digest", "error_rate", "latency_tail", "prefix",
                "setup_host_factor", "host_factor", "raw_metrics", "exact_counts"):
        if key in report:
            print(f"{key}: {json.dumps(report[key])}")
    print(json.dumps(result["line"]))
    return 0


def untraced_run(cases, prefix_cycles: int, seconds: float, setup_s: float,
                 calibration) -> dict:
    run = closed_loop(cases, prefix_cycles, seconds, calibration=calibration)
    factor = calibration.factor()
    ms = [1e3 * s for samples in run["per_case"].values() for s in samples]
    tail_p, tail_ms = tail_latency(ms)
    raw = {"req_per_s": run["req_per_s"], "latency_p50_ms": statistics.median(ms),
           "latency_tail_ms": tail_ms}
    metrics = {
        "setup_s": (setup_s, "s"),
        "req_per_s": (run["req_per_s"] * factor, "1/s"),
        "latency_p50_ms": (raw["latency_p50_ms"] / factor, "ms"),
        "latency_tail_ms": (tail_ms / factor, "ms"),
        "utility_rate": (run["utility_rate"], "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    report = {
        "host_factor": factor,
        "raw_metrics": raw,
        "digest": run["digest"],
        "error_rate": {"value": run["failed"] / run["attempted"], "unit": "ratio",
                       "failed": run["failed"], "attempted": run["attempted"]},
        "latency_tail": {"percentile": tail_p, "samples": len(ms),
                         "beyond": sum(1 for s in ms if s > tail_ms)},
        "prefix": {"cycles": prefix_cycles, "requests": run["prefix_requests"]},
        "per_input_p50_ms": {k: 1e3 * statistics.median(v) for k, v in run["per_case"].items()},
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    line = {"correct": run["failed"] == 0, "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return {"report": report, "line": line}


def traced_run(cases, prefix_cycles: int, spans_path: Path, calibration) -> dict:
    base = closed_loop(cases, prefix_cycles, calibration=calibration)
    tracer = Tracer()
    with instrument(tracer):
        traced = closed_loop(cases, prefix_cycles, tracer=tracer, calibration=calibration)
    factor = calibration.factor()
    metrics = layer_metrics(tracer, traced["attempted"], base["req_per_s"],
                            traced["req_per_s"], factor)
    write_spans(spans_path, tracer.spans)
    same = base["digest"] == traced["digest"]
    failed = base["failed"] + traced["failed"]
    report = {
        "digest": traced["digest"], "untraced_digest": base["digest"],
        "host_factor": factor,
        "error_rate": {"value": failed / (2 * traced["attempted"]), "unit": "ratio",
                       "failed": failed, "attempted": 2 * traced["attempted"]},
        "prefix": {"cycles": prefix_cycles, "requests": traced["prefix_requests"]},
        "exact_counts": {**{k: tracer.counts[k] for k in EXACT},
                         **{f"{k}.calls": sum(1 for span in tracer.spans if span[0] == k)
                            for k in EXACT_SPANS}},
        "metrics": metrics,
    }
    line = {"correct": same and failed == 0, "attempted": 2 * traced["attempted"],
            "failed": failed,
            "metrics": {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}}
    return {"report": report, "line": line}


if __name__ == "__main__":
    sys.exit(main())
