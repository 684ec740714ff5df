import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicedp import cli
from slicedp.cli import build_parser, load_dataset, main, sweep_minimal_n
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
        assert multiprocessing.active_children() == []

    def test_worker_exception_is_a_failure_record(self, tmp_path, monkeypatch, capsys):
        parent, original = os.getpid(), cli.simulate

        def broken_in_workers(*args):
            if os.getpid() != parent:
                raise ZeroDivisionError("worker failed")
            return original(*args)

        monkeypatch.setattr(cli, "simulate", broken_in_workers)
        _cpus(monkeypatch, 3)
        rc, record = run(tmp_path, "err.json", ["audit-sim", "--seed", "5",
                                                "--trials", "30"])
        assert rc == 1 and record["success"] is False
        assert record["payload"] == {"error": "worker failed"}
        assert "ZeroDivisionError" in capsys.readouterr().err
        assert multiprocessing.active_children() == []


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

    def test_same_seed_bisects_identically(self):
        a = sweep_minimal_n(4, 1.0, 0.1, trials=5, seed=9)
        b = sweep_minimal_n(4, 1.0, 0.1, trials=5, seed=9)
        assert a == b > 0
