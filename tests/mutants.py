"""Mutation catalogue: small wrong changes to the library, each with the
tests that must catch it.

    PYTHONPATH=src python tests/mutants.py [NAME ...]

runs the named mutants, or all of them, one at a time. Each copies `src/`,
`tests/` and `pyproject.toml` into a temporary directory, replaces the
entry's old text with its new text there, and runs each of its tests with
pytest on its own. It prints "caught" when every listed test fails,
"missed" with the tests that passed otherwise, and "error" when a test
cannot be collected. The exit status is 1 when any mutant is not caught.

pytest does not collect this file. `tests/test_mutants.py` checks, on
every run, that each entry's old text occurs exactly once in its file, so a
refactor that moves the code must update the entry, and that each test it
lists still names a `def` or `class` in an existing file.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: Tuple[str, ...]  # pytest node ids, each of which must fail


_EXACT_LAW = "tests/test_sync.py::TestDirect::test_outputs_follow_the_exact_law"
_CALL_LAW = "tests/test_sync.py::TestCallCountAudit::test_holder_calls_follow_the_exact_law"
_RECORD_SHAPE = "tests/test_cli.py::TestRecordShape"

MUTANTS = (
    # the direct run slices the map of data + {x}, not of data
    Mutant("direct-from-data-plus-x", "src/slicedp/sync.py",
           "self._steps(None, rng, (self._first[0], None, None))",
           "self._steps(None, rng, (self._first[1], None, None))",
           ("tests/test_sync.py::TestDirect::test_equals_direct_run",
            f"{_EXACT_LAW}[direct-0.5-2-8]",
            "tests/test_cli.py::TestAuditStreams::test_trials_equal_a_default_rng_loop")),
    # a slice the simulator keeps takes one element too many
    Mutant("kept-slice-off-by-one", "src/slicedp/sync.py",
           "kept = mapped[:m_hat]",
           "kept = mapped[:m_hat + 1]",
           ("tests/test_sync.py::TestDirect::test_equals_direct_run",
            "tests/test_sync.py::TestSimulateMatchesListOracle::test_same_transcript_and_draws")),
    # the holder slices the other execution's arrangement
    Mutant("holder-wrong-bit", "src/slicedp/sync.py",
           "arrangements[self.b][:q + delta]",
           "arrangements[1 - self.b][:q + delta]",
           (f"{_EXACT_LAW}[simulated-0.5-2-8]", f"{_EXACT_LAW}[simulated-0.5-4-6]",
            f"{_EXACT_LAW}[simulated-1.0-3-3]", f"{_EXACT_LAW}[simulated-0.2-3-12]",
            "tests/test_sync.py::TestSimulateMatchesListOracle::test_same_transcript_and_draws")),
    # the coupling stays with probability stay + (1 - stay) / 2
    Mutant("sync-map-stays-too-often", "src/slicedp/sync.py",
           "if rng.random() < _stay_probability(b, m, epsilon):",
           "if rng.random() < (1 + _stay_probability(b, m, epsilon)) / 2:",
           (f"{_CALL_LAW}[0.5-16-48]", f"{_CALL_LAW}[0.1-8-64]", f"{_CALL_LAW}[0.1-8-5]",
            f"{_CALL_LAW}[0.5-8-3]")),
    # the holder-call count stops after the first step
    Mutant("holder-calls-first-step-only", "src/slicedp/sync.py",
           "            if diff is None:\n                break\n",
           "            break\n",
           ("tests/test_sync.py::TestHolderCalls::test_equals_the_full_simulation",
            f"{_CALL_LAW}[0.5-16-48]")),
    # a wrong multiplier in the stream hash's second constant chain
    Mutant("stream-hash-wrong-mult-b", "src/slicedp/sync.py",
           "_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded",
           "_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38dee",
           ("tests/test_sync.py::TestTrialStreams::test_streams_equal_default_rng",
            "tests/test_cli.py::TestAuditStreams::test_trials_equal_a_default_rng_loop")),
    # the trims cut their slice off an input they never sorted
    Mutant("trim-select-unsorted", "src/slicedp/treelog.py",
           "        if not _is_sorted(values):\n            values.sort()\n",
           "        if not _is_sorted(values):\n            pass\n",
           ("tests/test_engine.py::TestOrderMaps::test_trim_selects_match_a_full_sort",)),
    # the pmf's 1 - e^-eps cancels at small eps
    Mutant("cancelling-pmf", "src/slicedp/mechanisms.py",
           "return math.exp(-epsilon * k) * -math.expm1(-epsilon)",
           "return math.exp(-epsilon * k) * (1.0 - math.exp(-epsilon))",
           ("tests/test_mechanisms.py::TestGeometricSampler::"
            "test_pmf_keeps_its_precision_at_small_epsilon",)),
    # a rectangle drops its upper edge
    Mutant("predict-strict-upper-edge", "src/slicedp/learners.py",
           "inside &= (arr[:, axis] - np.uint64(a)) <= np.uint64(b - a)",
           "inside &= (arr[:, axis] - np.uint64(a)) < np.uint64(b - a)",
           ("tests/test_learners.py::TestHypothesis::"
            "test_one_compare_predict_matches_two_compares",)),
    # c - a goes negative below the rectangle instead of wrapping past b - a
    Mutant("predict-signed-subtraction", "src/slicedp/learners.py",
           "inside &= (arr[:, axis] - np.uint64(a)) <= np.uint64(b - a)",
           "inside &= (arr[:, axis].astype(np.int64) - a) <= b - a",
           ("tests/test_learners.py::TestHypothesis::test_predict_rectangle_and_zero",
            "tests/test_learners.py::TestHypothesis::"
            "test_one_compare_predict_matches_two_compares")),
    # the axis select fills the taken rows' slots from one row too early
    Mutant("axis-select-kept-tail-off-by-one", "src/slicedp/engine.py",
           "a[taken[hole]] = np.take(a, cut + np.flatnonzero(kept), axis=0)",
           "a[taken[hole]] = np.take(a, cut - 1 + np.flatnonzero(kept), axis=0)",
           ("tests/test_engine.py::TestOrderMaps::test_axis_map_matches_a_lexsort_per_column",)),
    # ipp's sort-once scorer leaves the points equal to z out of its count at or below z
    Mutant("ipp-score-side-left", "src/slicedp/treelog.py",
           'le = int(np.searchsorted(sorted_data, key, side="right"))',
           'le = int(np.searchsorted(sorted_data, key, side="left"))',
           ("tests/test_treelog.py::TestCountQueries::test_sorted_score_matches_f_ipp",)),
    # the choosing mechanism draws among candidates of score 0 too
    Mutant("choosing-keeps-zero-scores", "src/slicedp/mechanisms.py",
           "positive = [z for z, s in zip(candidates, scores) if s > 0.0]",
           "positive = [z for z, s in zip(candidates, scores) if s >= 0.0]",
           ("tests/test_mechanisms.py::"
            "test_choosing_draws_through_the_exponential_mechanism[counting-one-point]",)),
    # the failure record echoes the parsed handler, a function json cannot write
    Mutant("failure-echo-keeps-handler", "src/slicedp/cli.py",
           'if key not in ("command", "handler")}',
           'if key not in ("command",)}',
           (f"{_RECORD_SHAPE}::test_failure_record_echoes_the_parsed_parameters",
            f"{_RECORD_SHAPE}::test_non_finite_flag_is_echoed_as_strict_json",
            f"{_RECORD_SHAPE}::test_bad_seed_is_a_structured_error")),
    # `ipp` and `learn-threshold` run each other's handler
    Mutant("handlers-swapped", "src/slicedp/cli.py",
           'p = command("ipp", _cmd_ipp, "interior point of a file of integers", '
           'input_required=True)\n    p.add_argument("--bits", type=int, default=32)\n\n'
           '    p = command("learn-threshold", _cmd_learn_threshold,',
           'p = command("ipp", _cmd_learn_threshold, "interior point of a file of integers", '
           'input_required=True)\n    p.add_argument("--bits", type=int, default=32)\n\n'
           '    p = command("learn-threshold", _cmd_ipp,',
           ("tests/test_cli.py::TestInteriorPointCommand::test_solves_in_regime_instance",
            "tests/test_cli.py::TestLearnerCommands::test_threshold_end_to_end")),
    # a non-finite float is written as Infinity, which strict JSON has not
    Mutant("render-allows-nan", "src/slicedp/cli.py",
           "allow_nan=False",
           "allow_nan=True",
           (f"{_RECORD_SHAPE}::test_non_finite_flag_is_echoed_as_strict_json",)),
    # a file of exactly the byte cap is rejected
    Mutant("input-cap-inclusive", "src/slicedp/cli.py",
           "os.stat(args.input).st_size > MAX_INPUT_BYTES",
           "os.stat(args.input).st_size >= MAX_INPUT_BYTES",
           (f"{_RECORD_SHAPE}::test_input_at_the_byte_cap_loads_and_one_byte_more_fails",)),
)


def run(mutant: Mutant) -> str:
    """"caught", "missed: ..." or "error: ..." for one mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", work)
        target = work / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return f"error: the old text occurs {text.count(mutant.old)} times"
        target.write_text(text.replace(mutant.old, mutant.new))
        passed, broken = [], []
        for node in mutant.tests:
            code = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", node],
                cwd=work, env=dict(os.environ, PYTHONPATH=str(work / "src")),
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
            # pytest exits 1 when tests failed and 0 when all passed; any
            # other status means the node did not run
            if code == 0:
                passed.append(node)
            elif code != 1:
                broken.append(f"{node} (exit {code})")
    if broken:
        return "error: " + ", ".join(broken)
    return "missed: " + ", ".join(passed) if passed else "caught"


def main(names) -> int:
    known = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    failed = False
    for mutant in (known[name] for name in names) if names else MUTANTS:
        outcome = run(mutant)
        failed |= outcome != "caught"
        print(f"{mutant.name}: {outcome}", flush=True)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
