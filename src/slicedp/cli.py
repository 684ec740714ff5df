"""Command line front end.

Runs the interior-point solver, the learners, and the quasi-concave optimizer
on file datasets, plus the audit suites and parameter sweeps. Every command
takes a mandatory seed and emits a versioned JSON record; records are
byte-identical across runs up to the wall_clock_sec field.
"""

import argparse
import csv
import functools
import json
import math
import os
import sys
import time
import traceback
from typing import Optional

import numpy as np

from .engine import (SliceComputation, as_elements, ascending_map, holder_call_cap,
                     privacy_cost)
from .learners import (learn_rectangles, learn_threshold_realizable, load_labeled_csv,
                       threshold_sample_size)
from .quasiconcave import load_qc_csv, qc_optimize
from .tables import read_int_table
# perfbench's tracer wraps `cli.simulate` and `cli.direct_run`; neither is called here
from .sync import (AuditResult, Simulation, direct_run, estimate_tv, run_trials,
                   simulate, sync_gamma, sync_map_exact_dist, trial_streams)
from .treelog import (RegimeError, Universe, ipp, log_star, regime_threshold,
                      slice_steps, trim_parameter)

SCHEMA_VERSION = 1

# caps checked before anything is allocated: `audit-sim` and `sweep` hold
# state per trial, `audit-sim` builds a script of --tau steps over an
# instance of --size elements, and each bisection step of `sweep` fills an
# array as long as the regime ceiling (3,542,000 points at epsilon 1, the
# smallest normal delta and 64 bits)
MAX_TRIALS = 1_000_000
MAX_AUDIT_TAU = 10_000
MAX_AUDIT_SIZE = 1_000_000
MAX_SWEEP_N = 4_000_000
# checked on each --input's size before it is parsed. The largest benchmark
# input, qc's 2^20-row tent table, is 15,464,636 bytes at seed 5 (rect's
# largest is 14,562,438); the cap is about 69 times that. At that table's
# 14.7 bytes per row it admits a table at qc-opt's 2^26 domain cap
# (`QC_DOMAIN_CAP`), about 990 MB, though not one whose rows average over
# 16 bytes
MAX_INPUT_BYTES = 1 << 30


def _check_common(args: argparse.Namespace) -> None:
    """The parameter checks every subcommand shares, in a fixed order."""
    if not (0 <= args.seed < (1 << 64)):
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {args.seed}")
    if not (args.epsilon >= 0 and math.isfinite(args.epsilon)):
        raise ValueError(f"epsilon must be finite and nonnegative, got {args.epsilon}")
    if not (0.0 <= args.delta < 1.0):
        raise ValueError(f"delta must lie in [0, 1), got {args.delta}")
    if "trials" in args and args.trials < 1:
        raise ValueError(f"trials must be at least 1, got {args.trials}")
    if "trials" in args and args.trials > MAX_TRIALS:
        raise ValueError(f"trials must be at most {MAX_TRIALS}, got {args.trials}")
    # `sweep` takes its bit lengths as a list, the other commands as one value
    given = vars(args).get("bits_list") or ([args.bits] if "bits" in args else [])
    for bits in given:
        if not (1 <= bits <= 64):
            raise ValueError(f"bits must lie in [1, 64], got {bits}")
    if "input" in args and os.stat(args.input).st_size > MAX_INPUT_BYTES:
        raise ValueError(f"--input {args.input} is larger than the cap of "
                         f"{MAX_INPUT_BYTES} bytes")


def load_dataset(path, bit_length: int) -> np.ndarray:
    """Newline-delimited unsigned decimal integers; blank lines are skipped."""
    table = read_int_table(path, np.uint64, header=False)
    values = table.values
    if values.shape[1] != 1:
        raise table.error(0, f"expected one integer per line, got {values.shape[1]} cells")
    values = values[:, 0]
    try:
        return as_elements(values, bit_length)
    except ValueError:
        # the mask that names the line is built only when the range check fails
        if bit_length < 64:
            limit = 1 << bit_length
            table.reject(values >= np.uint64(limit), lambda i: (
                f"value {values[i]} out of range for {bit_length}-bit domain "
                f"(must be < {limit})"))
        raise


def _render(args: argparse.Namespace, parameters: dict, payload, success: bool,
            started: float) -> str:
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "parameters": parameters,
        "payload": payload,
        "success": bool(success),
        "wall_clock_sec": round(time.monotonic() - started, 6),
    }
    # strict JSON (RFC 8259): a non-finite float is a ValueError, not Infinity
    return json.dumps(record, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _emit(text: str, output_path: Optional[str]) -> None:
    if output_path:
        with open(output_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _strict(parsed: dict) -> dict:
    """The parsed flags with each non-finite float as its string, for JSON."""
    return {key: repr(value) if isinstance(value, float) and not math.isfinite(value)
            else value for key, value in parsed.items()}


# ---------------------------------------------------------------------------
# command implementations, each returning (parameters, payload, success)

def _cmd_ipp(args: argparse.Namespace):
    data = load_dataset(args.input, args.bits)
    universe = Universe(args.bits)
    t = trim_parameter(args.epsilon, args.delta)
    ls = log_star(universe.size)
    required = regime_threshold(universe, args.epsilon, args.delta)
    # at L <= 3 the solver opens no session; privacy_cost needs tau >= 1
    cost = privacy_cost(args.epsilon, args.delta, tau=max(slice_steps(universe), 1),
                        k=1, delta_hat=args.delta)
    parameters = {
        "epsilon": args.epsilon, "delta": args.delta, "bits": args.bits,
        "seed": args.seed, "t": t, "log_star": ls, "n": len(data),
        "required_n": required,
        "regime_inequality": f"n = {len(data)} >= 10 * t * log*|X| = {required}",
        "accounting": {"epsilon_total": cost.epsilon, "delta_total": cost.delta,
                       "holder_call_cap": holder_call_cap(args.delta)},
    }
    if cost.delta >= 1:
        print(f"warning: delta_total = {cost.delta} >= 1, so this run carries no "
              f"privacy guarantee", file=sys.stderr)
    rng = np.random.default_rng([args.seed, 0])
    value = ipp(universe, data, args.epsilon, args.delta, rng)
    lo, hi = int(data.min()), int(data.max())
    payload = {"value": int(value), "interior": bool(lo <= int(value) <= hi)}
    return parameters, payload, True


def _cmd_learn_threshold(args: argparse.Namespace):
    sample = load_labeled_csv(args.input, args.bits)
    if sample.points.ndim != 1:
        raise ValueError(f"{args.input}: learn-threshold takes one coordinate per row, "
                         f"got {sample.points.shape[1]}")
    xi, beta = args.xi, args.beta
    if not (0.0 < xi < 1.0 and 0.0 < beta < 1.0):
        raise ValueError("xi and beta must lie in (0, 1)")
    required = threshold_sample_size(sample.universe, xi, beta,
                                     args.epsilon, args.delta)
    parameters = {
        "epsilon": args.epsilon, "delta": args.delta, "bits": args.bits,
        "seed": args.seed, "xi": xi, "beta": beta, "n": len(sample),
        "required_n": required,
        "regime_inequality":
            f"n = {len(sample)} {'<' if len(sample) < required else '>='} {required}",
    }
    rng = np.random.default_rng([args.seed, 0])
    hypothesis = learn_threshold_realizable(sample, xi, beta, args.epsilon,
                                            args.delta, rng)
    errors = int(np.sum(hypothesis.predict(sample.points) != sample.labels))
    payload = {"threshold": int(hypothesis.threshold),
               "empirical_error": errors / max(len(sample), 1)}
    return parameters, payload, True


def _cmd_learn_rect(args: argparse.Namespace):
    sample = load_labeled_csv(args.input, args.bits)
    points = sample.points if sample.points.ndim == 2 else \
        sample.points.reshape(-1, 1)
    dims = points.shape[1] if args.dims is None else args.dims
    if dims != points.shape[1]:
        raise ValueError(f"--dims {dims} does not match file width {points.shape[1]}")
    parameters = {
        "epsilon": args.epsilon, "delta": args.delta, "bits": args.bits,
        "seed": args.seed, "dims": dims, "n": len(sample),
        "positives": int(sample.labels.sum()),
    }
    rng = np.random.default_rng([args.seed, 0])
    hypothesis = learn_rectangles(sample, args.epsilon, args.delta, rng)
    errors = int(np.sum(hypothesis.predict(points) != sample.labels))
    payload = {
        "form": "zero" if hypothesis.zero else "rectangle",
        "intervals": None if hypothesis.zero else
            [[int(a), int(b)] for a, b in hypothesis.rectangle],
        "empirical_error": errors / max(len(sample), 1),
    }
    return parameters, payload, True


def _cmd_qc_opt(args: argparse.Namespace):
    instance = load_qc_csv(args.input)
    parameters = {
        "epsilon": args.epsilon, "delta": args.delta, "seed": args.seed,
        "constant_c": args.constant_c, "domain_size": instance.size,
    }
    rng = np.random.default_rng([args.seed, 0])
    result = qc_optimize(instance, args.epsilon, args.delta, rng, args.constant_c)
    payload = {"solution": result.solution, "score": result.score,
               "opt_estimate": result.opt_estimate,
               "error_bound": result.error_bound, "branch": result.branch}
    return parameters, payload, True


# audit-sync lists 2 (cutoff + 1) outcomes, about 230 bytes of record per
# cutoff step; 10,000 steps keep the record near 2.3 MB
MAX_SYNC_CUTOFF = 10_000
# gamma <= ceil(ln 2 / eps), since t_i = 0 once e^{-i eps} <= 1/2, and the
# default cutoff is gamma + 1; below this epsilon it could pass the cap
MIN_SYNC_EPSILON = math.log(2) / (MAX_SYNC_CUTOFF - 1)


def _cmd_audit_sync(args: argparse.Namespace):
    epsilon = args.epsilon
    # checked before sync_gamma counts up to gamma, about ln 2 / eps steps
    if 0 < epsilon < MIN_SYNC_EPSILON:
        raise ValueError(f"--epsilon must be at least {MIN_SYNC_EPSILON:.6g}, where gamma "
                         f"reaches the cutoff cap of {MAX_SYNC_CUTOFF}, got {epsilon}")
    if args.cutoff is not None and args.cutoff > MAX_SYNC_CUTOFF:
        raise ValueError(f"--cutoff must be at most {MAX_SYNC_CUTOFF}, got {args.cutoff}")
    gamma_value = sync_gamma(epsilon)
    cutoff = max(gamma_value + 1, 12) if args.cutoff is None else args.cutoff
    dist0 = sync_map_exact_dist(0, epsilon, cutoff)
    dist1 = sync_map_exact_dist(1, epsilon, cutoff)
    p0 = dict(dist0.outcomes)
    p1 = dict(dist1.outcomes)
    log0, log1 = dict(dist0.log_outcomes), dict(dist1.log_outcomes)
    # the ratio rule in log space, where no listed outcome underflows
    lo, hi = math.log(math.exp(-epsilon) - 1e-9), math.log(math.exp(epsilon) + 1e-9)

    outcomes = []
    ratio_ok = True
    for key in sorted(set(p0) | set(p1)):
        a, b = p0.get(key, 0.0), p1.get(key, 0.0)
        la, lb = log0.get(key, -math.inf), log1.get(key, -math.inf)
        if la > -math.inf or lb > -math.inf:
            if la == -math.inf or lb == -math.inf or not (lo <= la - lb <= hi):
                ratio_ok = False
        outcomes.append({"alpha": key[0], "beta": key[1], "p0": a, "p1": b})
    mass_ok = abs(sum(p0.values()) + dist0.tail - 1.0) <= 1e-12 and \
        abs(sum(p1.values()) + dist1.tail - 1.0) <= 1e-12
    sync0 = 1.0 - sum(p for (alpha, beta), p in p0.items() if beta == 0)
    sync1 = 1.0 - sum(p for (alpha, beta), p in p1.items() if beta == 0)
    sync_ok = min(sync0, sync1) >= 1.0 / 6.0 - 1e-12
    support_ok = all(k[0] >= 0 and k[1] in (0, 1) for k in set(p0) | set(p1))

    parameters = {"epsilon": epsilon, "seed": args.seed, "gamma": gamma_value,
                  "cutoff": cutoff}
    payload = {
        "outcomes": outcomes,
        "tails": {"b0": dist0.tail, "b1": dist1.tail},
        "sync_probability": {"b0": sync0, "b1": sync1},
        "checks": {"support_ok": support_ok, "ratio_ok": ratio_ok,
                   "mass_ok": mass_ok, "sync_ok": sync_ok},
    }
    return parameters, payload, support_ok and ratio_ok and mass_ok and sync_ok


def _audit_instance(size: int):
    # adversarial instance: the diff element x = 0 sorts first under the
    # ascending order, so every round involves it until the holder syncs.
    # Every slice the script takes (the simulator's, the holder's and the
    # direct run's) is a prefix of an `ascending_map` output, so its first
    # element is its minimum. x is a uint64 so `as_elements` passes it as is.
    data = np.arange(1, size + 1, dtype=np.uint64)
    algorithm = lambda s: int(s[0]) if len(s) else -1
    return data, np.uint64(0), algorithm


def _audit_trials(seed: int, epsilon: float, tau: int, size: int, trials: range):
    """Holder-call counts and the simulated and direct outputs of `trials`,
    all three roles on one `Simulation`. Each trial reads only its own
    streams, so any split of a range gives the same results in the same
    order. The count stops at synchronization, leaving its stream undrawn."""
    data, x, algorithm = _audit_instance(size)
    script = [SliceComputation(1, algorithm, ascending_map()) for _ in range(tau)]
    simulation = Simulation(data, x, script, epsilon)
    counts = np.empty(len(trials), dtype=np.int64)
    sim_outputs = []
    direct_outputs = []
    streams = zip(*(trial_streams(seed, (role,), trials) for role in range(3)))
    for i, (sim_rng, direct_rng, count_rng) in enumerate(streams):
        counts[i] = simulation.holder_calls(1, count_rng)
        sim_outputs.append(tuple(simulation.run(0, sim_rng).published))
        direct_outputs.append(tuple(simulation.direct(direct_rng)))
    return counts, sim_outputs, direct_outputs


def _cmd_audit_sim(args: argparse.Namespace):
    if args.tau < 1:
        raise ValueError(f"tau must be at least 1, got {args.tau}")
    if args.size < 0:
        raise ValueError(f"size must be nonnegative, got {args.size}")
    if args.tau > MAX_AUDIT_TAU or args.size > MAX_AUDIT_SIZE:
        raise ValueError(f"tau and size must be at most {MAX_AUDIT_TAU} and {MAX_AUDIT_SIZE}, "
                         f"got {args.tau} and {args.size}")
    epsilon = args.epsilon
    part_counts, part_sims, part_directs = zip(*run_trials(
        functools.partial(_audit_trials, args.seed, epsilon, args.tau, args.size),
        range(args.trials)))
    counts = np.concatenate(part_counts)
    sim_outputs = [out for part in part_sims for out in part]
    direct_outputs = [out for part in part_directs for out in part]

    tv = estimate_tv(sim_outputs, direct_outputs)
    audit = AuditResult.from_counts(counts)
    tail = []
    for w, prob in audit.tail[:15]:
        bound = (5.0 / 6.0) ** w
        se = math.sqrt(max(bound * (1 - bound), 1e-12) / args.trials)
        tail.append({"w": w, "prob": prob, "bound": bound,
                     "within": prob <= bound + 3.0 * se})

    parameters = {"epsilon": epsilon, "seed": args.seed, "trials": args.trials,
                  "tau": args.tau, "size": args.size}
    payload = {
        "epsilon": epsilon,
        "trials": args.trials,
        "histogram": [{"calls": int(c), "frequency": int(f)}
                      for c, f in audit.histogram.items()],
        "tv_estimate": tv,
        "mean_calls": audit.mean,
        "tail": tail,
    }
    return parameters, payload, all(row["within"] for row in tail)


def sweep_minimal_n(bits: int, epsilon: float, delta: float, trials: int,
                    seed: int) -> int:
    """Smallest n at which the solver hits 90% success over `trials`
    on the all-equal instance (unique interior point), by bisection.

    Trials share random streams across candidate sizes, so reruns with the
    same seed bisect identically.
    """
    universe = Universe(bits)
    ceiling = regime_threshold(universe, epsilon, delta)
    point = universe.size // 2
    allowed = math.floor((1.0 - 0.9) * trials)
    streams = trial_streams(seed, (), range(trials))

    def meets(n: int) -> bool:
        data = np.full(n, point, dtype=np.uint64)
        failures = 0
        for rng in streams:
            try:
                out = ipp(universe, data, epsilon, delta, rng, enforce_regime=False)
            except ValueError:
                out = -1
            if out != point:
                failures += 1
                if failures > allowed:
                    return False
        return True

    if not meets(ceiling):
        return -1
    lo, hi = 1, ceiling
    while lo < hi:
        mid = (lo + hi) // 2
        if meets(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _cmd_sweep(args: argparse.Namespace):
    bits_list = args.bits_list or [8, 16, 32, 64]
    for bits in bits_list:
        ceiling = regime_threshold(Universe(bits), args.epsilon, args.delta)
        if ceiling > MAX_SWEEP_N:
            raise ValueError(f"--epsilon {args.epsilon} and --delta {args.delta} put the regime "
                             f"ceiling at --bits {bits} at {ceiling} points, above the cap of "
                             f"{MAX_SWEEP_N}")
    rows = []
    for bits in bits_list:
        universe = Universe(bits)
        minimal = sweep_minimal_n(bits, args.epsilon, args.delta,
                                  args.trials, args.seed)
        rows.append({"L": bits, "log_star": log_star(universe.size),
                     "minimal_n": minimal})
    # the JSON record occupies output_path itself, so the table goes beside it
    csv_path = args.output + ".csv" if args.output else None
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["L", "log_star", "minimal_n"])
            writer.writeheader()
            writer.writerows(rows)
    parameters = {"epsilon": args.epsilon, "delta": args.delta,
                  "seed": args.seed, "trials": args.trials,
                  "bits_list": list(bits_list)}
    payload = {"rows": rows, "csv_path": csv_path}
    success = all(row["minimal_n"] > 0 for row in rows)
    return parameters, payload, success


def _cmd_account(args: argparse.Namespace):
    try:
        cost = privacy_cost(args.epsilon, args.delta, args.tau, args.k, args.delta_hat,
                            args.applications)
        finite = math.isfinite(cost.epsilon) and math.isfinite(cost.delta)
    except OverflowError:  # an integer flag too large for a float
        finite = False
    if not finite:
        raise ValueError("the accounted totals overflow a float: epsilon_total grows with "
                         "--epsilon, --applications and --k, delta_total with --delta, "
                         "--k and --tau")
    cap = holder_call_cap(args.delta_hat)
    parameters = {"epsilon_step": args.epsilon, "delta_step": args.delta,
                  "tau": args.tau, "k": args.k, "delta_hat": args.delta_hat,
                  "applications": args.applications, "seed": args.seed}
    payload = {
        "epsilon_total": cost.epsilon,
        "delta_total": cost.delta,
        "holder_call_cap": cap,
        "epsilon_formula": "3 * eps * max(applications, w) + 2 * k * eps",
        "delta_formula": "delta_hat + 2 * k * tau * delta",
    }
    table = [
        ("per-step epsilon", args.epsilon),
        ("per-step delta", args.delta),
        ("slices tau", args.tau),
        ("delayed computes k", args.k),
        ("holder call cap w", cap),
        ("total epsilon", cost.epsilon),
        ("total delta", cost.delta),
    ]
    # the table goes to stderr so stdout carries only the JSON record
    width = max(len(name) for name, _ in table)
    for name, value in table:
        print(f"{name:<{width}}  {value}", file=sys.stderr)
    return parameters, payload, True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicedp",
        description="Differentially private interior points, learners, and audits "
                    "over reorder-slice-compute sessions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, input_required=False, epsilon=1.0, delta=1e-3):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--seed", type=int, required=True,
                       help="64-bit RNG seed (mandatory for reproducibility)")
        p.add_argument("--epsilon", type=float, default=epsilon)
        p.add_argument("--delta", type=float, default=delta)
        p.add_argument("--output", help="write the JSON record here instead of stdout")
        if input_required:
            p.add_argument("--input", required=True, help="input dataset path")
        return p

    p = command("ipp", _cmd_ipp, "interior point of a file of integers", input_required=True)
    p.add_argument("--bits", type=int, default=32)

    p = command("learn-threshold", _cmd_learn_threshold, "realizable threshold learner",
                input_required=True)
    p.add_argument("--bits", type=int, default=32)
    p.add_argument("--xi", type=float, default=0.1)
    p.add_argument("--beta", type=float, default=0.1)

    p = command("learn-rect", _cmd_learn_rect, "axis-aligned rectangle learner",
                input_required=True)
    p.add_argument("--bits", type=int, default=16)
    p.add_argument("--dims", type=int, default=None)

    p = command("qc-opt", _cmd_qc_opt, "quasi-concave optimizer on a score CSV",
                input_required=True, epsilon=4.0, delta=0.25)
    p.add_argument("--constant-c", type=int, default=4, dest="constant_c")

    p = command("audit-sync", _cmd_audit_sync, "exact synchronization-map checks",
                epsilon=0.5)
    p.add_argument("--cutoff", type=int, default=None)

    p = command("audit-sim", _cmd_audit_sim, "simulator faithfulness and call counts",
                epsilon=0.5)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--tau", type=int, default=2, help="script length")
    p.add_argument("--size", type=int, default=8, help="instance size")

    p = command("sweep", _cmd_sweep, "minimal sample size per domain bit length")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--bits", type=int, nargs="+", action="extend", default=None,
                   dest="bits_list", help="repeatable; default 8 16 32 64")

    p = command("account", _cmd_account, "explicit privacy accounting report", epsilon=0.1)
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--delta-hat", type=float, default=1e-6, dest="delta_hat")
    p.add_argument("--applications", type=int, default=1)

    return parser


# argparse builds the whole command tree in about 2 ms; build it once per process
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    started = time.monotonic()
    parsed = {key: value for key, value in vars(args).items()
              if key not in ("command", "handler")}
    try:
        _check_common(args)
        parameters, payload, success = args.handler(args)
    except Exception as exc:
        if not isinstance(exc, (ValueError, OSError, MemoryError)):
            traceback.print_exc()  # a fault of the program, not of its input
        message = str(exc)
        if isinstance(exc, MemoryError):  # it carries no message of its own
            message = "out of memory" + (f" with --input {args.input}" if "input" in args else "")
        parameters, payload, success = parsed, {"error": message}, False
        if isinstance(exc, RegimeError):
            payload["required"] = exc.required
            payload["provided"] = exc.provided
            payload["violated_inequality"] = f"n = {exc.provided} < {exc.required}"
    try:
        text = _render(args, parameters, payload, success, started)
    except ValueError as exc:
        # a non-finite float; the flags are echoed with such values spelled out
        if "error" not in payload:
            payload = {"error": f"the record cannot be written as JSON: {exc}"}
        success = False
        text = _render(args, _strict(parsed), payload, False, started)
    try:
        _emit(text, args.output)
    except OSError as exc:
        payload = {"error": f"cannot write the record to {args.output}: {exc.strerror or exc}"}
        _emit(_render(args, _strict(parsed), payload, False, started), None)
        return 1
    return 0 if success else 1


if __name__ == "__main__":
    sys.exit(main())
