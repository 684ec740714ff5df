"""Pinned fixed-seed records, one small run per subcommand.

Each case writes its input from a fixed seed, runs the CLI in-process and
compares the record text byte for byte with `tests/golden/<name>.json`, with
the `wall_clock_sec` value masked. A refactor that changes any seeded output,
the order of random draws or the record layout fails here.

Regenerate the files (only when an output is meant to change, and say why):

    PYTHONPATH=src python tests/test_golden.py tests/golden
"""

import contextlib
import io
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from slicedp.cli import main

GOLDEN = Path(__file__).parent / "golden"
WALL_CLOCK = re.compile(r'("wall_clock_sec": )[^\n,]+')


def _lines(path: Path, rows) -> str:
    path.write_text("".join(",".join(map(str, row)) + "\n" for row in rows))
    return str(path)


def _ipp_input(workdir: Path, bits: int) -> str:
    rng = np.random.default_rng([7, bits])
    values = rng.integers(0, 1 << bits, size=9240, dtype=np.uint64)
    return _lines(workdir / f"ipp{bits}.txt", values.reshape(-1, 1).tolist())


def _threshold_input(workdir: Path) -> str:
    points = np.random.default_rng(60).integers(0, 1 << 16, size=3000)
    return _lines(workdir / "thresh.csv", [(p, int(p <= 30000)) for p in points])


def _rect_input(workdir: Path) -> str:
    # a box [40, 140] x [90, 190] of 12,000 positives (the d=2, L=8,
    # delta=0.5 gate is 11,206) and 2,000 negatives outside it
    rng = np.random.default_rng(61)
    pos = np.column_stack([rng.integers(40, 141, 12000), rng.integers(90, 191, 12000)])
    cand = rng.integers(0, 256, (8000, 2))
    inside = (cand[:, 0] >= 30) & (cand[:, 0] <= 150) & \
        (cand[:, 1] >= 80) & (cand[:, 1] <= 200)
    neg = cand[~inside][:2000]
    rows = [(a, b, 1) for a, b in pos.tolist()] + [(a, b, 0) for a, b in neg.tolist()]
    order = rng.permutation(len(rows))
    return _lines(workdir / "rect.csv", [rows[i] for i in order])


def _qc_input(workdir: Path) -> str:
    # a tent on 2^10 points rising 2,000 per step to 1,024,000, twice the
    # cumulative regime size at the default epsilon 4, delta 0.25
    y = np.arange(1 << 10)
    scores = 2000 * np.minimum(y, (1 << 10) - y)
    return _lines(workdir / "qc.csv", zip(y.tolist(), scores.tolist()))


CASES = {
    "ipp-bits8": lambda w: ["ipp", "--seed", "3", "--input", _ipp_input(w, 8),
                            "--bits", "8", "--delta", "0.1"],
    "ipp-bits16": lambda w: ["ipp", "--seed", "4", "--input", _ipp_input(w, 16),
                             "--bits", "16", "--delta", "0.1"],
    "learn-threshold": lambda w: ["learn-threshold", "--seed", "5",
                                  "--input", _threshold_input(w), "--bits", "16",
                                  "--delta", "0.5", "--xi", "0.2", "--beta", "0.2"],
    "learn-rect": lambda w: ["learn-rect", "--seed", "6", "--input", _rect_input(w),
                             "--bits", "8", "--dims", "2", "--delta", "0.5"],
    "qc-opt": lambda w: ["qc-opt", "--seed", "7", "--input", _qc_input(w)],
    "audit-sync": lambda w: ["audit-sync", "--seed", "8"],
    "audit-sim": lambda w: ["audit-sim", "--seed", "9", "--trials", "400",
                            "--tau", "2", "--size", "6"],
    "sweep": lambda w: ["sweep", "--seed", "10", "--bits", "8", "--trials", "5",
                        "--delta", "0.1"],
    "account": lambda w: ["account", "--seed", "11", "--tau", "6",
                          "--epsilon", "0.5", "--delta", "1e-4"],
}


def record_text(name: str, workdir: Path) -> str:
    """The record of case `name` as printed, wall_clock_sec masked."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(CASES[name](workdir))
    text, count = WALL_CLOCK.subn(r"\1null", out.getvalue())
    assert count == 1
    return text


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_matches_golden(name, tmp_path):
    assert record_text(name, tmp_path) == (GOLDEN / f"{name}.json").read_text()


if __name__ == "__main__":
    import tempfile

    target = Path(sys.argv[1])
    target.mkdir(parents=True, exist_ok=True)
    names = sys.argv[2:] or sorted(CASES)
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            (target / f"{name}.json").write_text(record_text(name, Path(tmp)))
