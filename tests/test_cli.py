import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicedp import (SliceComputation, Universe, ascending_map, audit_call_count, cli,
                     regime_threshold, sync_gamma)
from slicedp.cli import build_parser, load_dataset, main, sweep_minimal_n
from slicedp.sync import run_trials
from slicedp.treelog import RegimeError
from support import audit_trials_oracle

RECORD_KEYS = {"schema_version", "command", "parameters", "payload",
               "success", "wall_clock_sec"}


def run(tmp_path, name, argv):
    out = tmp_path / name
    rc = main(argv + ["--output", str(out)])
    return rc, json.loads(out.read_text())


class TestLoadDataset:
    def test_parses_multiset_and_skips_blanks(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("5\n\n5\n12\n")
        data = load_dataset(path, 8)
        assert sorted(data.tolist()) == [5, 5, 12]

    def test_error_messages_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\nabc\n")
        with pytest.raises(ValueError, match="line 2"):
            load_dataset(path, 8)
        path.write_text("-4\n")
        with pytest.raises(ValueError, match="negative"):
            load_dataset(path, 8)
        path.write_text("300\n")
        with pytest.raises(ValueError, match="out of range"):
            load_dataset(path, 8)


def _no_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


class TestRecordShape:
    def test_schema_and_canonical_serialization(self, tmp_path):
        out = tmp_path / "acct.json"
        rc = main(["account", "--seed", "1", "--tau", "6",
                   "--output", str(out)])
        assert rc == 0
        text = out.read_text()
        record = json.loads(text)
        assert set(record) == RECORD_KEYS
        assert record["schema_version"] == 1
        assert text == json.dumps(record, sort_keys=True, indent=2) + "\n"

    def test_account_values(self, tmp_path, capsys):
        rc, record = run(tmp_path, "acct.json",
                         ["account", "--seed", "1", "--tau", "6",
                          "--epsilon", "0.5", "--delta", "1e-4",
                          "--delta-hat", "1e-6", "--k", "1"])
        assert rc == 0
        payload = record["payload"]
        assert payload["holder_call_cap"] == 76
        assert payload["epsilon_total"] == pytest.approx(3 * 0.5 * 76 + 2 * 0.5)
        assert payload["delta_total"] == pytest.approx(1e-6 + 2 * 6 * 1e-4)
        console = capsys.readouterr().err
        assert "total epsilon" in console

    def test_account_stdout_is_the_json_record(self, capsys):
        rc = main(["account", "--seed", "1", "--tau", "6"])
        assert rc == 0
        captured = capsys.readouterr()
        record = json.loads(captured.out)
        assert record["command"] == "account" and record["success"] is True
        assert "total epsilon" in captured.err

    @pytest.mark.parametrize("argv", [
        ["--epsilon", "1e308", "--applications", "10"],
        ["--applications", str(10 ** 400)],
    ], ids=["infinite-total", "integer-past-float"])
    def test_overflowing_account_is_a_strict_failure_record(self, argv, capsys):
        rc = main(["account", "--seed", "1", "--tau", "2", *argv])
        captured = capsys.readouterr()
        record = json.loads(captured.out, parse_constant=_no_constant)
        assert rc == 1 and record["success"] is False
        assert "--epsilon" in record["payload"]["error"]
        assert "--applications" in record["payload"]["error"]
        assert "Traceback" not in captured.err

    def test_non_finite_flag_is_echoed_as_strict_json(self, capsys):
        rc = main(["account", "--seed", "1", "--tau", "2", "--epsilon", "inf"])
        record = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
        assert rc == 1 and record["parameters"]["epsilon"] == "inf"
        assert record["payload"] == {"error": "epsilon must be finite and nonnegative, got inf"}

    def test_bad_seed_is_a_structured_error(self, tmp_path):
        rc, record = run(tmp_path, "err.json",
                         ["account", "--seed", "-1", "--tau", "2"])
        assert rc == 1
        assert record["success"] is False
        assert "seed" in record["payload"]["error"]

    @pytest.mark.parametrize("argv", [["account", "--tau", "2"],
                                      ["sweep", "--bits", "8"]])
    def test_unwritable_output_is_a_failure_record(self, tmp_path, monkeypatch,
                                                   capsys, argv):
        monkeypatch.setattr(cli, "sweep_minimal_n", lambda bits, *rest: bits)
        target = tmp_path / "missing" / "out.json"
        rc = main([*argv, "--seed", "1", "--output", str(target)])
        assert rc == 1
        record = json.loads(capsys.readouterr().out)
        assert record["command"] == argv[0] and record["success"] is False
        parameters = {
            "account": {"epsilon": 0.1, "tau": 2, "k": 1, "delta_hat": 1e-6,
                        "applications": 1},
            "sweep": {"epsilon": 1.0, "trials": 100, "bits_list": [8]}}[argv[0]]
        assert record["parameters"] == {"seed": 1, "delta": 1e-3, "output": str(target),
                                        **parameters}
        assert record["payload"] == {
            "error": f"cannot write the record to {target}: No such file or directory"}

    def test_failure_record_echoes_the_parsed_parameters(self, tmp_path):
        missing = tmp_path / "missing.csv"
        rc, record = run(tmp_path, "err.json",
                         ["learn-rect", "--seed", "4", "--input", str(missing),
                          "--bits", "8", "--delta", "0.5"])
        assert rc == 1 and record["success"] is False
        assert record["parameters"] == {
            "seed": 4, "epsilon": 1.0, "delta": 0.5, "input": str(missing),
            "output": str(tmp_path / "err.json"), "bits": 8, "dims": None}

    def test_any_exception_is_a_failure_record(self, tmp_path, monkeypatch, capsys):
        def broken(*args):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(cli, "sweep_minimal_n", broken)
        rc, record = run(tmp_path, "err.json", ["sweep", "--seed", "5", "--bits", "8"])
        assert rc == 1
        assert record["success"] is False
        assert record["payload"] == {"error": "division by zero"}
        assert "ZeroDivisionError" in capsys.readouterr().err


# the subcommands taking each common flag, and the argv each needs besides it
COMMAND_ARGS = {
    "ipp": ["--input", "{input}"],
    "learn-threshold": ["--input", "{input}"],
    "learn-rect": ["--input", "{input}"],
    "qc-opt": ["--input", "{input}"],
    "audit-sync": [],
    "audit-sim": [],
    "sweep": [],
    "account": ["--tau", "2"],
}
VIOLATIONS = [
    ("--seed", str(1 << 64), list(COMMAND_ARGS),
     f"seed must be a 64-bit unsigned integer, got {1 << 64}"),
    ("--epsilon", "-1", list(COMMAND_ARGS),
     "epsilon must be finite and nonnegative, got -1.0"),
    ("--delta", "1", list(COMMAND_ARGS), "delta must lie in [0, 1), got 1.0"),
    ("--trials", "0", ["audit-sim", "sweep"], "trials must be at least 1, got 0"),
    ("--bits", "65", ["ipp", "learn-threshold", "learn-rect"],
     "bits must lie in [1, 64], got 65"),
]


@pytest.mark.parametrize("flag,value,command,message", [
    (flag, value, command, message)
    for flag, value, commands, message in VIOLATIONS for command in commands])
def test_common_parameter_violation(tmp_path, flag, value, command, message):
    data = tmp_path / "data.csv"
    data.write_text("1,1\n")
    argv = [command, *(a.format(input=data) for a in COMMAND_ARGS[command]),
            "--seed", "1", flag, value]
    rc, record = run(tmp_path, "err.json", argv)
    seed = int(value) if flag == "--seed" else 1
    assert rc == 1
    assert record["command"] == command and record["success"] is False
    parsed = float(value) if flag in ("--epsilon", "--delta") else int(value)
    assert record["parameters"][flag[2:]] == parsed
    assert record["parameters"]["seed"] == seed and "command" not in record["parameters"]
    assert record["payload"] == {"error": message}


class TestInteriorPointCommand:
    def test_solves_in_regime_instance(self, tmp_path):
        data = tmp_path / "data.txt"
        data.write_text("77\n" * 9240)
        rc, record = run(tmp_path, "ipp.json",
                         ["ipp", "--seed", "3", "--input", str(data),
                          "--bits", "8", "--delta", "0.1"])
        assert rc == 0
        assert record["payload"]["value"] == 77
        assert record["payload"]["interior"] is True
        params = record["parameters"]
        assert params["required_n"] == 9240
        assert "accounting" in params and "epsilon_total" in params["accounting"]

    def test_regime_shortfall_reports_the_inequality(self, tmp_path):
        data = tmp_path / "data.txt"
        data.write_text("1\n" * 100)
        rc, record = run(tmp_path, "short.json",
                         ["ipp", "--seed", "3", "--input", str(data)])
        assert rc == 1
        payload = record["payload"]
        assert payload["required"] == 34550
        assert payload["provided"] == 100
        assert payload["violated_inequality"] == "n = 100 < 34550"

    def test_accounting_counts_every_slice_of_the_session(self, tmp_path):
        # at L = 16 the recursion has two sliced levels, so tau = 6
        data = tmp_path / "data.txt"
        data.write_text("77\n" * 27640)
        rc, record = run(tmp_path, "ipp16.json",
                         ["ipp", "--seed", "3", "--input", str(data), "--bits", "16"])
        assert rc == 0
        accounting = record["parameters"]["accounting"]
        assert accounting["delta_total"] == pytest.approx(1e-3 + 2 * 6 * 1e-3, rel=1e-12)

    @pytest.mark.parametrize("bits,warned", [(16, True), (8, False)])
    def test_vacuous_delta_total_is_warned_about(self, tmp_path, capsys, bits, warned):
        # 9,240 points is the regime size at delta 0.1 for both lengths; the
        # 6 slices at L = 16 put delta_total at 0.1 + 2 * 6 * 0.1 = 1.3
        path = tmp_path / "data.txt"
        values = np.random.default_rng(7).integers(0, 1 << bits, size=9240)
        path.write_text("".join(f"{v}\n" for v in values))
        rc, record = run(tmp_path, "ipp.json", ["ipp", "--seed", "4", "--input", str(path),
                                                "--bits", str(bits), "--delta", "0.1"])
        assert rc == 0
        assert (record["parameters"]["accounting"]["delta_total"] >= 1) is warned
        assert ("no privacy guarantee" in capsys.readouterr().err) is warned

    def test_base_case_domain_reports_one_slice(self, tmp_path):
        # at L <= 3 no session is opened; the accounting charges tau = 1
        data = tmp_path / "data.txt"
        data.write_text("5\n" * 6930)
        rc, record = run(tmp_path, "ipp3.json",
                         ["ipp", "--seed", "3", "--input", str(data), "--bits", "3",
                          "--delta", "0.1"])
        assert rc == 0
        accounting = record["parameters"]["accounting"]
        assert accounting["delta_total"] == pytest.approx(0.1 + 2 * 0.1, rel=1e-12)

    @pytest.mark.parametrize("flag,value", [("--epsilon", "1e-310"),
                                            ("--delta", "5e-324")])
    def test_overflowing_trim_parameter_is_a_failure_record(self, tmp_path, flag, value):
        data = tmp_path / "data.txt"
        data.write_text("1\n" * 10)
        rc, record = run(tmp_path, "inf.json",
                         ["ipp", "--seed", "1", "--input", str(data), "--bits", "16",
                          flag, value])
        assert rc == 1
        assert record["success"] is False
        assert "trim parameter" in record["payload"]["error"]

    def test_missing_input_file(self, tmp_path):
        rc, record = run(tmp_path, "missing.json",
                         ["ipp", "--seed", "3", "--input",
                          str(tmp_path / "nope.txt")])
        assert rc == 1
        assert "error" in record["payload"]

    def test_records_are_stable_across_runs(self, tmp_path):
        data = tmp_path / "data.txt"
        data.write_text("9\n" * 9240)
        argv = ["ipp", "--seed", "11", "--input", str(data),
                "--bits", "8", "--delta", "0.1"]
        _, first = run(tmp_path, "a.json", argv)
        _, second = run(tmp_path, "b.json", argv)
        first.pop("wall_clock_sec")
        second.pop("wall_clock_sec")
        assert first == second


class TestLearnerCommands:
    def test_threshold_end_to_end(self, tmp_path):
        rng = np.random.default_rng(60)
        points = rng.integers(0, 1 << 16, size=3000)
        rows = "\n".join(f"{p},{int(p <= 30000)}" for p in points)
        path = tmp_path / "thresh.csv"
        path.write_text(rows + "\n")
        rc, record = run(tmp_path, "thresh.json",
                         ["learn-threshold", "--seed", "5", "--input", str(path),
                          "--bits", "16", "--delta", "0.5",
                          "--xi", "0.2", "--beta", "0.2"])
        assert rc == 0
        assert 0 <= record["payload"]["threshold"] < (1 << 16)
        assert record["payload"]["empirical_error"] <= 0.5
        assert record["parameters"]["xi"] == 0.2

    @pytest.mark.parametrize("n,relation", [(3114, "<"), (3115, ">=")])
    def test_threshold_record_states_the_comparison_that_holds(self, tmp_path, n, relation):
        # 3,115 samples is the requirement at one bit, xi = beta = 0.9, delta 0.5
        path = tmp_path / "thresh.csv"
        path.write_text("0,1\n1,0\n" * (n // 2) + "0,1\n" * (n % 2))
        rc, record = run(tmp_path, "thresh.json",
                         ["learn-threshold", "--seed", "5", "--input", str(path),
                          "--bits", "1", "--delta", "0.5", "--xi", "0.9", "--beta", "0.9"])
        assert rc == 0
        assert record["parameters"]["required_n"] == 3115
        assert record["parameters"]["regime_inequality"] == f"n = {n} {relation} 3115"

    def test_threshold_rejects_bad_xi(self, tmp_path):
        path = tmp_path / "thresh.csv"
        path.write_text("1,1\n5,0\n")
        rc, record = run(tmp_path, "badxi.json",
                         ["learn-threshold", "--seed", "5", "--input", str(path),
                          "--bits", "16", "--xi", "1.5"])
        assert rc == 1
        assert "xi" in record["payload"]["error"]

    def test_rect_gate_returns_zero_form(self, tmp_path):
        rng = np.random.default_rng(61)
        lines = [f"{int(a)},{int(b)},1" for a, b in rng.integers(0, 1 << 16, (30, 2))]
        lines += [f"{int(a)},{int(b)},0" for a, b in rng.integers(0, 1 << 16, (30, 2))]
        path = tmp_path / "rect.csv"
        path.write_text("\n".join(lines) + "\n")
        rc, record = run(tmp_path, "rect.json",
                         ["learn-rect", "--seed", "5", "--input", str(path),
                          "--bits", "16", "--delta", "0.5"])
        assert rc == 0
        assert record["payload"]["form"] == "zero"
        assert record["payload"]["intervals"] is None
        assert record["parameters"]["positives"] == 30

    def test_rect_dims_mismatch(self, tmp_path):
        path = tmp_path / "rect.csv"
        path.write_text("1,2,1\n3,4,0\n")
        rc, record = run(tmp_path, "dims.json",
                         ["learn-rect", "--seed", "5", "--input", str(path),
                          "--bits", "16", "--dims", "3"])
        assert rc == 1
        assert "dims" in record["payload"]["error"]

    def test_rect_dims_zero_is_not_the_file_width(self, tmp_path):
        path = tmp_path / "rect.csv"
        path.write_text("1,2,1\n3,4,0\n")
        rc, record = run(tmp_path, "dims0.json",
                         ["learn-rect", "--seed", "5", "--input", str(path),
                          "--bits", "16", "--dims", "0"])
        assert rc == 1
        assert record["payload"]["error"] == "--dims 0 does not match file width 2"

    def test_rect_loads_coordinates_above_two_to_the_63(self, tmp_path):
        path = tmp_path / "rect.csv"
        path.write_text(f"{(1 << 63) + 5},1\n{(1 << 64) - 1},0\n")
        rc, record = run(tmp_path, "big.json",
                         ["learn-rect", "--seed", "5", "--input", str(path),
                          "--bits", "64"])
        assert rc == 0
        assert record["success"] is True
        assert record["parameters"]["n"] == 2

    def test_rect_rejects_negative_coordinates_at_64_bits(self, tmp_path):
        path = tmp_path / "rect.csv"
        path.write_text("3,1\n-5,1\n")
        rc, record = run(tmp_path, "neg.json",
                         ["learn-rect", "--seed", "5", "--input", str(path),
                          "--bits", "64"])
        assert rc == 1
        assert record["success"] is False
        assert "line 2: negative" in record["payload"]["error"]

    def test_rect_epsilon_above_one_is_rejected(self, tmp_path):
        path = tmp_path / "rect.csv"
        path.write_text("1,2,1\n3,4,0\n")
        rc, record = run(tmp_path, "eps.json",
                         ["learn-rect", "--seed", "5", "--input", str(path),
                          "--bits", "16", "--epsilon", "2.0"])
        assert rc == 1
        assert "epsilon" in record["payload"]["error"]


class TestOptimizerCommand:
    def test_flat_scores_take_small_gap(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("".join(f"{y},5\n" for y in range(10)))
        rc, record = run(tmp_path, "qc.json",
                         ["qc-opt", "--seed", "5", "--input", str(path),
                          "--epsilon", "4", "--delta", "0.25"])
        assert rc == 0
        assert record["payload"]["branch"] == "small-gap"
        assert record["payload"]["solution"] == 0

    def test_index_beyond_the_domain_cap_is_a_failure_record(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("1000000000000,5\n")
        rc, record = run(tmp_path, "huge.json",
                         ["qc-opt", "--seed", "5", "--input", str(path)])
        assert rc == 1
        assert record["success"] is False
        assert "line 1" in record["payload"]["error"]
        assert "2^26" in record["payload"]["error"]

    def test_constant_c_that_underflows_delta_is_named(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("0,1\n1,5\n2,3\n")
        rc, record = run(tmp_path, "c.json",
                         ["qc-opt", "--seed", "5", "--input", str(path),
                          "--delta", "0.25", "--constant-c", "100000"])
        assert rc == 1
        assert "constant_c" in record["payload"]["error"]

    def test_trim_overflow_names_the_given_epsilon(self, tmp_path):
        # at 2^10 solutions the step epsilon is eps / 64, a subnormal here,
        # and the step budget's trim parameter overflows
        path = tmp_path / "tent.csv"
        path.write_text("".join(f"{y},{max(200 - abs(y - 341), 0)}\n" for y in range(1024)))
        rc, record = run(tmp_path, "tiny.json", ["qc-opt", "--seed", "5", "--input", str(path),
                                                 "--epsilon", "2.2250738585072014e-308"])
        assert rc == 1
        error = record["payload"]["error"]
        assert "epsilon=2.2250738585072014e-308" in error
        assert "delta=0.25" in error and "constant_c=4" in error

    def test_duplicate_rows_error(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("1,5\n1,6\n")
        rc, record = run(tmp_path, "dup.json",
                         ["qc-opt", "--seed", "5", "--input", str(path)])
        assert rc == 1
        assert "duplicate" in record["payload"]["error"]


class TestAuditCommands:
    @pytest.mark.parametrize("epsilon,expected_gamma", [(0.5, 1), (0.1, 7)])
    def test_sync_checks_pass(self, tmp_path, epsilon, expected_gamma):
        rc, record = run(tmp_path, f"sync{expected_gamma}.json",
                         ["audit-sync", "--seed", "5",
                          "--epsilon", str(epsilon)])
        assert rc == 0
        assert record["parameters"]["gamma"] == expected_gamma
        checks = record["payload"]["checks"]
        assert all(checks.values())
        assert record["payload"]["outcomes"]

    def test_sync_cutoff_zero_is_checked(self, tmp_path):
        rc, record = run(tmp_path, "cut0.json",
                         ["audit-sync", "--seed", "5", "--cutoff", "0"])
        assert rc == 1
        assert record["payload"]["error"] == "cutoff must be at least gamma + 1 = 2, got 0"

    @pytest.mark.parametrize("argv,flag", [
        (["--epsilon", "1e-6"], "--epsilon"),
        (["--epsilon", "5e-324"], "--epsilon"),
        (["--cutoff", str(cli.MAX_SYNC_CUTOFF + 1)], "--cutoff"),
    ])
    def test_sync_outcome_list_is_capped(self, tmp_path, argv, flag):
        started = time.monotonic()
        rc, record = run(tmp_path, "cap.json", ["audit-sync", "--seed", "5", *argv])
        assert rc == 1 and record["payload"]["error"].startswith(f"{flag} must be")
        assert time.monotonic() - started < 5

    def test_sync_cap_admits_its_smallest_epsilon(self):
        assert sync_gamma(cli.MIN_SYNC_EPSILON) + 1 <= cli.MAX_SYNC_CUTOFF

    def test_sync_cutoff_past_the_overflow_of_e_to_the_m_eps(self, tmp_path, capsys):
        # at eps 0.5, e^{(m + 1) eps} overflows from m = 1419 on, and the
        # outcomes' probabilities underflow from alpha 1488 on
        for cutoff in (1500, cli.MAX_SYNC_CUTOFF):
            rc, record = run(tmp_path, "big.json", ["audit-sync", "--seed", "5",
                                                    "--cutoff", str(cutoff)])
            assert record["parameters"]["cutoff"] == cutoff
            assert len(record["payload"]["outcomes"]) == 2 * (cutoff + 1)
            assert "Traceback" not in capsys.readouterr().err
            assert rc == 0
            assert all(record["payload"]["checks"].values())

    def test_sweep_at_a_delta_whose_square_underflows(self, tmp_path, capsys):
        # beta * eps * delta, with beta = delta, underflows in the choosing
        # mechanism's error bound
        rc, record = run(tmp_path, "sweep.json", ["sweep", "--seed", "5", "--epsilon", "1",
                                                  "--delta", "1e-300", "--trials", "1",
                                                  "--bits", "8"])
        assert "Traceback" not in capsys.readouterr().err
        assert rc == 0 and record["payload"]["rows"][0]["minimal_n"] > 0

    @pytest.mark.parametrize("stay", [lambda b, m, eps: 0.5,
                                      lambda b, m, eps: float(b == 0 and m < 3)])
    def test_sync_ratio_check_catches_a_wrong_map(self, tmp_path, monkeypatch, stay):
        # a constant stay probability breaks the ratio at (0, 0); one that is
        # 1 or 0 gives outcomes of mass 0 on one side only
        monkeypatch.setattr("slicedp.sync._stay_probability", stay)
        rc, record = run(tmp_path, "wrong.json", ["audit-sync", "--seed", "5"])
        assert rc == 1
        assert record["payload"]["checks"]["ratio_ok"] is False

    def test_sim_audit_epsilon_below_the_draw_floor_is_named(self, tmp_path):
        rc, record = run(tmp_path, "tiny.json", ["audit-sim", "--seed", "5", "--trials", "3",
                                                 "--epsilon", "1e-300"])
        assert rc == 1
        assert record["payload"]["error"].startswith("epsilon must exceed 2^-54")

    def test_sim_audit_counts_and_tv(self, tmp_path):
        rc, record = run(tmp_path, "sim.json",
                         ["audit-sim", "--seed", "5", "--epsilon", "0.5",
                          "--trials", "400", "--tau", "2", "--size", "6"])
        assert rc == 0
        payload = record["payload"]
        assert sum(h["frequency"] for h in payload["histogram"]) == 400
        assert payload["mean_calls"] <= 6.0
        assert payload["tv_estimate"] <= 0.25
        assert len(payload["tail"]) == 15

    @pytest.mark.parametrize("flag,value,message", [
        ("--tau", "-1", "tau must be at least 1, got -1"),
        ("--size", "-3", "size must be nonnegative, got -3"),
    ])
    def test_sim_audit_checks_its_own_flags(self, tmp_path, flag, value, message):
        rc, record = run(tmp_path, "sim.json", ["audit-sim", "--seed", "5",
                                                "--trials", "3", flag, value])
        assert rc == 1
        assert record["payload"] == {"error": message}

    def test_sim_audit_accepts_an_empty_instance(self, tmp_path):
        rc, record = run(tmp_path, "sim.json", ["audit-sim", "--seed", "5",
                                                "--trials", "3", "--size", "0"])
        assert rc == 0
        assert record["parameters"]["size"] == 0


# the benchmark's (tau, size, trials) audit configurations, trials scaled down
AUDIT_CONFIGS = [(2, 8, 200), (8, 32, 100), (16, 64, 50)]


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


class TestParallelAuditTrials:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 12).flatmap(lambda total: st.tuples(
        st.just(total), st.lists(st.integers(0, total), max_size=4))),
        st.integers(1, 3), st.integers(0, 5))
    def test_any_split_gives_the_whole_range(self, total_and_cuts, tau, size):
        total, cuts = total_and_cuts
        bounds = [0, *sorted(cuts), total]
        whole = cli._audit_trials(9, 0.5, tau, size, range(total))
        parts = [cli._audit_trials(9, 0.5, tau, size, range(lo, hi))
                 for lo, hi in zip(bounds, bounds[1:])]
        assert np.array_equal(whole[0], np.concatenate([p[0] for p in parts]))
        assert whole[0].dtype == np.int64
        assert whole[1] == [out for p in parts for out in p[1]]
        assert whole[2] == [out for p in parts for out in p[2]]

    @pytest.mark.parametrize("tau,size,trials", AUDIT_CONFIGS)
    def test_record_does_not_depend_on_the_cpu_count(self, tmp_path, monkeypatch,
                                                     tau, size, trials):
        argv = ["audit-sim", "--seed", "13", "--epsilon", "0.5", "--tau", str(tau),
                "--size", str(size), "--trials", str(trials)]
        records = []
        for cpus in (1, 3):
            _cpus(monkeypatch, cpus)
            rc, record = run(tmp_path, f"sim{cpus}.json", argv)
            assert rc == 0
            records.append((record["parameters"], record["payload"]))
        assert records[0] == records[1]

    def test_workers_are_joined_before_main_returns(self, tmp_path, monkeypatch):
        _cpus(monkeypatch, 3)
        rc, record = run(tmp_path, "sim.json", ["audit-sim", "--seed", "5",
                                                "--trials", "30"])
        assert rc == 0 and sum(h["frequency"] for h in record["payload"]["histogram"]) == 30
        _assert_no_children()

    def test_worker_exception_is_a_failure_record(self, tmp_path, monkeypatch, capsys):
        parent, original = os.getpid(), cli.direct_run

        def broken_in_workers(*args):
            if os.getpid() != parent:
                raise ZeroDivisionError("worker failed")
            return original(*args)

        monkeypatch.setattr(cli, "direct_run", broken_in_workers)
        _cpus(monkeypatch, 3)
        rc, record = run(tmp_path, "err.json", ["audit-sim", "--seed", "5",
                                                "--trials", "30"])
        assert rc == 1 and record["success"] is False
        assert record["payload"] == {"error": "worker failed"}
        assert "ZeroDivisionError" in capsys.readouterr().err
        _assert_no_children()

    def test_worker_that_dies_unreported_is_a_failure_record(self, tmp_path, monkeypatch,
                                                             capsys):
        parent, original = os.getpid(), cli.direct_run

        def dies_in_workers(*args):
            if os.getpid() != parent:
                os._exit(3)
            return original(*args)

        monkeypatch.setattr(cli, "direct_run", dies_in_workers)
        _cpus(monkeypatch, 3)
        rc, record = run(tmp_path, "dead.json", ["audit-sim", "--seed", "5",
                                                 "--trials", "30"])
        assert rc == 1 and record["success"] is False
        error = record["payload"]["error"]
        assert error.startswith("trial worker 1 (pid ") and "trials 10 to 19" in error
        assert "exited with status 3" in error
        assert "EOFError" not in capsys.readouterr().err
        _assert_no_children()


def _assert_no_children():
    # every forked worker has been reaped; `multiprocessing.active_children`
    # cannot see raw forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestRunTrials:
    def test_parts_run_in_order_across_forks(self, monkeypatch):
        _cpus(monkeypatch, 3)
        results = run_trials(lambda trials: (os.getpid(), list(trials)), range(7))
        assert [trials for _, trials in results] == [[0, 1], [2, 3], [4, 5, 6]]
        pids = [pid for pid, _ in results]
        assert pids[0] == os.getpid() and len(set(pids)) == 3
        _assert_no_children()

    @pytest.mark.parametrize("cpus,trials,parts", [(1, 5, 1), (4, 2, 2), (2, 0, 1)])
    def test_at_most_one_part_per_cpu_and_per_trial(self, monkeypatch, cpus, trials, parts):
        _cpus(monkeypatch, cpus)
        results = run_trials(lambda part: (os.getpid(), part), range(trials))
        assert len(results) == parts
        assert [t for _, part in results for t in part] == list(range(trials))
        assert results[0][0] == os.getpid()
        assert len({pid for pid, _ in results}) == parts

    def test_a_failing_parent_part_kills_the_workers(self, monkeypatch):
        _cpus(monkeypatch, 2)
        parent = os.getpid()

        def part(trials):
            if os.getpid() == parent:
                raise KeyError("parent part failed")
            time.sleep(600)

        started = time.monotonic()
        with pytest.raises(KeyError, match="parent part failed"):
            run_trials(part, range(2))
        assert time.monotonic() - started < 60
        _assert_no_children()

    def test_an_exception_that_does_not_unpickle_is_still_reported(self, monkeypatch):
        _cpus(monkeypatch, 2)
        parent = os.getpid()

        def part(trials):
            if os.getpid() != parent:
                raise RegimeError("too few points", 10, 3)
            return list(trials)

        with pytest.raises(RuntimeError, match="RegimeError: too few points"):
            run_trials(part, range(4))
        _assert_no_children()


class TestCallCountMatchesAuditSim:
    """`audit_call_count` and `audit-sim` count trial i on the same stream,
    `[seed, 2, i]`, so their histograms agree."""

    @pytest.mark.parametrize("tau,size", [config[:2] for config in AUDIT_CONFIGS])
    def test_histograms_agree(self, tmp_path, tau, size):
        trials, seed = 200, 17
        rc, record = run(tmp_path, "sim.json", [
            "audit-sim", "--seed", str(seed), "--epsilon", "0.5", "--tau", str(tau),
            "--size", str(size), "--trials", str(trials)])
        assert rc == 0
        script = [SliceComputation(1, lambda s: int(s[0]) if len(s) else -1, ascending_map())
                  for _ in range(tau)]
        audit = audit_call_count(np.arange(1, size + 1, dtype=np.uint64), np.uint64(0), 1,
                                 script, 0.5, trials, seed)
        assert audit.histogram == {row["calls"]: row["frequency"]
                                   for row in record["payload"]["histogram"]}
        _assert_no_children()

    def test_negative_seed_is_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            audit_call_count([1, 2], 0, 1, [SliceComputation(1, None, ascending_map())],
                             0.5, 4, -1)
        _assert_no_children()


TOP = (1 << 64) - 1
# each parameter at and around its boundaries, as typed on the command line
EDGE_FLOATS = ["0", "5e-324", "2.2250738585072014e-308", "0.5", "0.9999999999999999", "1",
               "1.0000000000000002", "1e308", "inf", "nan", "-1"]
EDGE_INTS = ["0", "1", "-1", str(TOP), str(TOP + 1)]
EDGE_BITS = ["0", "1", "3", "4", "8", "64", "65", str(TOP)]
EDGE_TRIALS = ["0", "1", "2", "-1", str(TOP), str(cli.MAX_TRIALS + 1)]
# one-row input files, with values at each format limit
EDGE_FILES = {
    "dataset": ["0\n", f"{TOP}\n", f"{TOP + 1}\n", "-1\n", ""],
    "labeled": ["5,1\n", "5,7,1\n", f"{TOP},1\n", f"{TOP},{TOP},1\n", f"{TOP + 1},1,1\n",
                "5,2\n", "-1,0\n", "5\n", ""],
    "scores": ["0,3\n", "1000,7\n", f"0,{TOP}\n", f"{1 << 26},1\n", "0,-5\n", "0\n", "",
               "0,3\n1,1\n2,3\n"],
}
EDGE_FLAGS = {
    "ipp": {"--input": EDGE_FILES["dataset"], "--bits": EDGE_BITS},
    "learn-threshold": {"--input": EDGE_FILES["labeled"], "--bits": EDGE_BITS,
                        "--xi": EDGE_FLOATS, "--beta": EDGE_FLOATS},
    "learn-rect": {"--input": EDGE_FILES["labeled"], "--bits": EDGE_BITS,
                   "--dims": EDGE_INTS + ["2", "16", "17"]},
    "qc-opt": {"--input": EDGE_FILES["scores"], "--constant-c": EDGE_INTS + ["4", "100000"]},
    "audit-sync": {"--epsilon": EDGE_FLOATS + [repr(cli.MIN_SYNC_EPSILON),
                                               repr(math.nextafter(cli.MIN_SYNC_EPSILON, 0))],
                   "--cutoff": EDGE_INTS + ["12", str(cli.MAX_SYNC_CUTOFF),
                                            str(cli.MAX_SYNC_CUTOFF + 1)]},
    "audit-sim": {"--epsilon": EDGE_FLOATS + [repr(2.0 ** -54),
                                              repr(math.nextafter(2.0 ** -54, 1))],
                  "--trials": EDGE_TRIALS,
                  "--tau": EDGE_INTS + ["2", str(cli.MAX_AUDIT_TAU + 1)],
                  "--size": EDGE_INTS + ["65", str(cli.MAX_AUDIT_SIZE + 1)]},
    "sweep": {"--trials": EDGE_TRIALS, "--bits": EDGE_BITS},
    "account": {"--tau": EDGE_INTS, "--k": EDGE_INTS, "--delta-hat": EDGE_FLOATS,
                "--applications": EDGE_INTS},
}


@pytest.fixture(scope="module")
def edge_files(tmp_path_factory):
    """Path of each edge file, by its text."""
    folder = tmp_path_factory.mktemp("edges")
    paths = {}
    for i, text in enumerate(sorted({t for texts in EDGE_FILES.values() for t in texts})):
        paths[text] = folder / f"edge{i}.csv"
        paths[text].write_text(text)
    return paths


# a value that passes, so that a draw often has only one or two edges; on
# `sweep` epsilon 1 keeps the largest regime (delta 2.2e-308) near a second
ORDINARY = {"--seed": "5", "--epsilon": "0.5", "--delta": "0.001", "--bits": "32",
            "--xi": "0.1", "--beta": "0.1", "--dims": "1", "--constant-c": "4",
            "--cutoff": "12", "--trials": "2", "--tau": "2", "--size": "8", "--k": "1",
            "--delta-hat": "1e-06", "--applications": "1"}


def _edge_argv(command):
    flags = {"--seed": EDGE_INTS, "--epsilon": EDGE_FLOATS, "--delta": EDGE_FLOATS,
             **EDGE_FLAGS[command]}
    ordinary = dict(ORDINARY, **{"--input": flags.get("--input", [""])[0]},
                    **({"--epsilon": "1"} if command == "sweep" else {}))
    return st.fixed_dictionaries({
        flag: st.one_of(st.just(ordinary[flag]), st.sampled_from(values))
        for flag, values in flags.items()})


@pytest.mark.parametrize("command", sorted(EDGE_FLAGS))
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_every_command_at_its_edges(edge_files, command, data):
    # exit 0 or 1, one strict JSON record on stdout, no traceback, and a
    # failure that names a flag or the input file the user gave
    flags = data.draw(_edge_argv(command))
    if "--input" in flags:
        flags["--input"] = str(edge_files[flags["--input"]])
    argv = [command] + [f"{flag}={value}" for flag, value in flags.items()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1)
    record = json.loads(out.getvalue(), parse_constant=_no_constant)
    assert set(record) == RECORD_KEYS and record["success"] is (rc == 0)
    assert "Traceback" not in err.getvalue()
    error = record["payload"].get("error")
    if error is not None:
        named = {flag[2:] for flag in flags} | {flag[2:].replace("-", "_") for flag in flags}
        named |= {flags["--input"]} if "--input" in flags else set()
        assert any(name in error for name in named), (argv, error)


class TestAuditStreams:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([0, 9, 2**32, 2**64 - 1]), st.integers(1, 3), st.integers(0, 5),
           st.integers(0, 20), st.integers(0, 6))
    def test_trials_equal_a_default_rng_loop(self, seed, tau, size, start, length):
        trials = range(start, start + length)
        got = cli._audit_trials(seed, 0.5, tau, size, trials)
        expected = audit_trials_oracle(seed, 0.5, tau, size, trials)
        assert np.array_equal(got[0], expected[0]) and got[0].dtype == np.int64
        assert got[1:] == expected[1:]

    def test_trials_across_two_to_the_32(self):
        trials = range(2**32 - 2, 2**32 + 2)
        got = cli._audit_trials(13, 0.5, 2, 4, trials)
        expected = audit_trials_oracle(13, 0.5, 2, 4, trials)
        assert np.array_equal(got[0], expected[0]) and got[1:] == expected[1:]


class TestParserReuse:
    def test_main_in_a_row_matches_fresh_processes(self, tmp_path, capsys):
        argvs = [
            ["account", "--seed", "3", "--tau", "4"],
            ["ipp", "--seed", "3", "--bits"],  # exits: --bits takes a value
            ["audit-sim", "--seed", "3", "--trials", "20", "--tau", "2", "--size", "4"],
            ["ipp", "--seed", "3", "--input", str(tmp_path / "missing.txt")],
            ["sweep", "--seed", "3", "--epsilon", "1", "--delta", "0.1",
             "--trials", "3", "--bits", "4"],
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))

        def outcome(rc, out, err):
            record = json.loads(out.read_text()) if out.exists() else None
            if record:
                del record["wall_clock_sec"]
            return rc, record, err

        fresh = []
        for i, argv in enumerate(argvs):
            out = tmp_path / f"record{i}.json"
            done = subprocess.run([sys.executable, "-m", "slicedp.cli", *argv,
                                   "--output", str(out)], env=env, capture_output=True,
                                  text=True, timeout=120)
            fresh.append(outcome(done.returncode, out, done.stderr))
        capsys.readouterr()
        in_process = []
        for i, argv in enumerate(argvs):
            out = tmp_path / f"record{i}.json"
            out.unlink(missing_ok=True)
            try:
                rc = main(argv + ["--output", str(out)])
            except SystemExit as exc:
                rc = exc.code
            in_process.append(outcome(rc, out, capsys.readouterr().err))
        assert [rc for rc, _, _ in fresh] == [0, 2, 0, 1, 0]
        assert in_process == fresh


class TestSweepCommand:
    def test_minimal_n_monotone_in_trials_and_csv(self, tmp_path):
        out = tmp_path / "sweep.json"
        rc = main(["sweep", "--seed", "5", "--epsilon", "1", "--delta", "0.1",
                   "--trials", "5", "--bits", "4", "--output", str(out)])
        assert rc == 0
        record = json.loads(out.read_text())
        rows = record["payload"]["rows"]
        assert len(rows) == 1 and rows[0]["L"] == 4
        assert 0 < rows[0]["minimal_n"] <= 6930
        csv_path = record["payload"]["csv_path"]
        assert csv_path == str(out) + ".csv"
        lines = (tmp_path / "sweep.json.csv").read_text().strip().splitlines()
        assert lines[0] == "L,log_star,minimal_n"
        assert lines[1] == f"4,3,{rows[0]['minimal_n']}"

    @pytest.mark.parametrize("flags,expected", [
        (["--bits", "8", "--bits", "16"], [8, 16]),
        (["--bits", "8", "16", "--bits", "32"], [8, 16, 32]),
        (["--bits", "8"], [8]),
        ([], None),
    ])
    def test_bits_flag_repeats(self, flags, expected):
        args = build_parser().parse_args(["sweep", "--seed", "5", *flags])
        assert args.bits_list == expected

    def test_bits_default_sweeps_all_lengths(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "sweep_minimal_n", lambda bits, *rest: bits)
        rc, record = run(tmp_path, "sweep.json", ["sweep", "--seed", "5"])
        assert rc == 0
        assert record["parameters"]["bits_list"] == [8, 16, 32, 64]
        assert [row["L"] for row in record["payload"]["rows"]] == [8, 16, 32, 64]

    def test_regime_ceiling_above_the_cap_is_named(self, tmp_path):
        rc, record = run(tmp_path, "sweep.json", ["sweep", "--seed", "5", "--epsilon", "1e-300",
                                                  "--trials", "2", "--bits", "8"])
        assert rc == 1
        error = record["payload"]["error"]
        assert "--epsilon 1e-300" in error and "--delta 0.001" in error
        assert "--bits 8" in error and str(cli.MAX_SWEEP_N) in error

    def test_every_ceiling_is_checked_before_the_first_bisection(self, tmp_path, monkeypatch):
        # at 8 bits the ceiling passes the cap, at 64 it does not
        monkeypatch.setattr(cli, "sweep_minimal_n", lambda *args: pytest.fail("bisected"))
        delta = sys.float_info.min
        assert regime_threshold(Universe(8), 0.8, delta) <= cli.MAX_SWEEP_N
        rc, record = run(tmp_path, "sweep.json", ["sweep", "--seed", "5", "--epsilon", "0.8",
                                                  "--delta", repr(delta), "--bits", "8", "64"])
        assert rc == 1
        ceiling = regime_threshold(Universe(64), 0.8, delta)
        assert f"--bits 64 at {ceiling} points" in record["payload"]["error"]

    def test_cap_admits_epsilon_1_at_every_normal_delta(self):
        assert regime_threshold(Universe(64), 1.0, sys.float_info.min) <= cli.MAX_SWEEP_N

    def test_same_seed_bisects_identically(self):
        a = sweep_minimal_n(4, 1.0, 0.1, trials=5, seed=9)
        b = sweep_minimal_n(4, 1.0, 0.1, trials=5, seed=9)
        assert a == b > 0
