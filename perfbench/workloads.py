"""Inputs, requests and output checks of the three benchmark workloads.

Every input is drawn from the workload seed; request i runs the CLI
in-process with a `--seed` drawn from `default_rng([seed, i])`. Requests cycle through a workload's inputs in the
order listed here.
"""

import contextlib
import importlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List

import numpy as np

RECORD_KEYS = {"schema_version", "command", "parameters", "payload", "success",
               "wall_clock_sec"}
# input streams are keyed apart from the two-word request streams
INPUT_KEY = 1 << 32
# a slice takes m plus Geom(1 - e^-1) rows; more than m + 64 has probability e^-64
SLICE_NOISE_SLACK = 64
WRITE_CHUNK = 50_000


def _mod(name: str):
    return importlib.import_module(f"slicedp.{name}")


@dataclass
class Case:
    """One input of a workload.

    `call(i)` runs request i and returns its raw output; `check(output)`
    returns (valid, useful): whether the output keeps the interface's
    invariants, and whether it meets the paper's guarantee.
    `canonical(output)` is the seeded part of the output, which the digest
    covers.
    """

    label: str
    call: Callable[[int], object]
    check: Callable[[object], tuple]
    canonical: Callable[[object], object]


def draw_bits(rng: np.random.Generator, bits: int, size=None) -> np.ndarray:
    """Uniform integers in [0, 2^bits), for every bits up to 64."""
    return rng.integers(0, (1 << bits) - 1, size=size, dtype=np.uint64, endpoint=True)


def cli_seed(seed: int, i: int) -> int:
    return int(np.random.default_rng([seed, i]).integers(1 << 63))


def run_cli(argv: List[str]):
    """(exit code, record) of one in-process `slicedp` invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = _mod("cli").main(argv)
    return code, json.loads(out.getvalue())


def record_ok(result, command: str) -> bool:
    code, record = result
    return code == 0 and RECORD_KEYS <= set(record) and record["command"] == command \
        and record["success"] is True


def record_output(result):
    record = dict(result[1])
    record.pop("wall_clock_sec", None)
    return record


def write_csv(path: Path, columns: np.ndarray) -> None:
    """Integer rows, comma separated, written in bounded chunks."""
    with open(path, "w") as fh:
        for start in range(0, columns.shape[0], WRITE_CHUNK):
            cells = [map(str, col) for col in columns[start:start + WRITE_CHUNK].T.tolist()]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


# ---------------------------------------------------------------------------
# rect: `learn-rect` on planted-box CSV files

RECT_EPS, RECT_DELTA = 1.0, 1e-3
RECT_NEGATIVES = 2000
RECT_SHAPES = ((4, 16), (3, 32), (2, 8))  # (d, bits)


def planted_box(rng: np.random.Generator, n_pos: int, n_neg: int, dims: int, bits: int):
    """Rows (coordinates, label) of a box of width 0.4 of the domain per axis,
    with negatives outside the box inflated by a tenth of its width."""
    top = (1 << bits) - 1
    width = int(top * 0.4)
    edge = int(top * 0.05)  # at least the margin, so lo - margin stays >= 0
    lo = rng.integers(edge, top - width - edge, size=dims, dtype=np.uint64)
    hi = lo + np.uint64(width)
    margin = np.uint64(max(1, width // 10))
    pos = rng.integers(lo, hi, size=(n_pos, dims), dtype=np.uint64, endpoint=True)
    chunks, got = [], 0
    while got < n_neg:
        cand = draw_bits(rng, bits, (n_neg, dims))
        inside = np.all((cand >= lo - margin) & (cand <= hi + margin), axis=1)
        chunks.append(cand[~inside])
        got += chunks[-1].shape[0]
    neg = np.concatenate(chunks)[:n_neg]
    rows = np.vstack([np.column_stack([pos, np.ones(n_pos, dtype=np.uint64)]),
                      np.column_stack([neg, np.zeros(n_neg, dtype=np.uint64)])])
    return rows[rng.permutation(rows.shape[0])]


def _rect_case(seed: int, workdir: Path, index: int, dims: int, bits: int) -> Case:
    lr, tl = _mod("learners"), _mod("treelog")
    universe = tl.Universe(bits)
    n_pos = math.ceil(2 * lr.rectangle_gate_threshold(universe, dims, RECT_EPS, RECT_DELTA))
    n_neg = RECT_NEGATIVES
    path = workdir / f"rect-d{dims}-L{bits}.csv"
    rng = np.random.default_rng([seed, INPUT_KEY, index])
    write_csv(path, planted_box(rng, n_pos, n_neg, dims, bits))
    max_errors = 2 * dims * (tl.regime_threshold(universe, RECT_EPS, RECT_DELTA)
                             + SLICE_NOISE_SLACK)
    argv = ["learn-rect", "--input", str(path), "--bits", str(bits), "--dims", str(dims),
            "--epsilon", repr(RECT_EPS), "--delta", repr(RECT_DELTA)]

    def call(i):
        return run_cli(argv + ["--seed", str(cli_seed(seed, i))])

    def check(result):
        if not record_ok(result, "learn-rect"):
            return False, False
        payload = result[1]["payload"]
        intervals = payload["intervals"]
        valid = payload["form"] == "rectangle" and len(intervals) == dims and all(
            0 <= a <= b < (1 << bits) for a, b in intervals)
        # every positive outside the 2d slices lies in the box and no
        # negative does, so errors come only from sliced rows
        errors = round(payload["empirical_error"] * (n_pos + n_neg))
        return valid, valid and errors <= max_errors

    return Case(f"d{dims}-L{bits}", call, check, record_output)


def rect_cases(seed: int, workdir: Path) -> List[Case]:
    return [_rect_case(seed, workdir, k, dims, bits)
            for k, (dims, bits) in enumerate(RECT_SHAPES)]


# ---------------------------------------------------------------------------
# qc: `qc-opt` on score CSV files

QC_EPS, QC_DELTA, QC_C = 4.0, 0.25, 4
QC_SHAPES = ((20, "tent"), (16, "tent"), (20, "plateau"))  # (log2 T, shape)


def qc_scores(rng: np.random.Generator, bits: int, shape: str, n: int) -> np.ndarray:
    """A tent peaking at 4n, whose top n increments the solver slices, or a
    flat-topped plateau of height n/2, whose spread takes the small-gap
    branch."""
    size = 1 << bits
    peak = int(rng.integers(size // 4, 3 * size // 4))
    y = np.arange(size, dtype=np.int64)
    height, slope = (4 * n, 1) if shape == "tent" else (n // 2, 2)
    rise = slope * height * y // peak
    fall = slope * height * (size - 1 - y) // (size - 1 - peak)
    scores = np.minimum(np.minimum(rise, fall), height)
    return scores + int(rng.integers(0, 1000))


def _qc_case(seed: int, workdir: Path, index: int, bits: int, shape: str) -> Case:
    qc, tl = _mod("quasiconcave"), _mod("treelog")
    n = qc.cumulative_regime_threshold(tl.Universe(bits), QC_EPS, QC_DELTA, QC_C)
    scores = qc_scores(np.random.default_rng([seed, INPUT_KEY, index]), bits, shape, n)
    label = f"T2^{bits}-{shape}"
    path = workdir / f"qc-{label}.csv"
    write_csv(path, np.column_stack([np.arange(scores.size, dtype=np.int64), scores]))
    argv = ["qc-opt", "--input", str(path), "--epsilon", repr(QC_EPS),
            "--delta", repr(QC_DELTA), "--constant-c", str(QC_C)]
    opt = int(scores.max())

    def call(i):
        return run_cli(argv + ["--seed", str(cli_seed(seed, i))])

    def check(result):
        if not record_ok(result, "qc-opt"):
            return False, False
        p = result[1]["payload"]
        valid = 0 <= p["solution"] < scores.size and \
            p["branch"] in ("small-gap", "interior") and p["score"] == int(scores[p["solution"]])
        return valid, valid and p["score"] >= opt - p["error_bound"]

    return Case(label, call, check, record_output)


def qc_cases(seed: int, workdir: Path) -> List[Case]:
    return [_qc_case(seed, workdir, k, bits, shape)
            for k, (bits, shape) in enumerate(QC_SHAPES)]


# ---------------------------------------------------------------------------
# audit: `audit-sim` on the CLI's built-in adversarial instance

AUDIT_EPS = 0.5
# (tau, size, trials); an odd number of configurations puts the median
# latency inside one configuration's samples, not in the gap between two
AUDIT_CONFIGS = ((2, 8, 2000), (8, 32, 1000), (16, 64, 500))


def _audit_case(seed: int, tau: int, size: int, trials: int) -> Case:
    argv = ["audit-sim", "--epsilon", repr(AUDIT_EPS), "--tau", str(tau),
            "--size", str(size), "--trials", str(trials)]

    def call(i):
        return run_cli(argv + ["--seed", str(cli_seed(seed, i))])

    def check(result):
        if not record_ok(result, "audit-sim"):
            return False, False
        payload = result[1]["payload"]
        counted = sum(h["frequency"] for h in payload["histogram"])
        valid = payload["trials"] == trials == counted
        return valid, valid

    return Case(f"tau{tau}-size{size}", call, check, record_output)


def audit_cases(seed: int, workdir: Path) -> List[Case]:
    return [_audit_case(seed, *config) for config in AUDIT_CONFIGS]


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, Path], List[Case]]
    # whole cycles in the seeded prefix: the same requests on every version
    # of the program, whatever the run length; about 20 s of work on a
    # 2-core shared x86 box (Python 3.11, numpy 2.4)
    prefix_cycles: int
    # the input of the warm-up request, the workload's cheapest; slicedp
    # keeps no caches and imports nothing lazily, so one request warms up
    # the interpreter and numpy
    warm_case: int


WORKLOADS = {
    "rect": Workload(rect_cases, 3, 2),
    "qc": Workload(qc_cases, 4, 1),
    "audit": Workload(audit_cases, 16, 0),
}
