"""Release gate: ten end-to-end checks, one per shipping claim.

Each test prints a single `[criterion NN] name: PASS/FAIL` line straight to
the terminal (bypassing capture) so a plain `pytest -v` run doubles as the
acceptance report.  Tolerances and trial counts are pinned here and nowhere
else; the statistical checks size their margins from the binomial standard
error at the pinned trial count.
"""

import json
import math
from collections import Counter

import numpy as np
import pytest

from slicedp import (
    LabeledSample,
    QcInstance,
    SliceComputation,
    Universe,
    ascending_map,
    audit_call_count,
    build_increment_dataset,
    cumulative_distance,
    cumulative_regime_threshold,
    descending_map,
    direct_run,
    geometric_pmf,
    hardness_reduction,
    ipp,
    is_quasi_concave,
    learn_rectangles,
    log_star,
    qc_optimize,
    regime_threshold,
    simulate,
    sync_gamma,
    sync_map_exact_dist,
    trim_parameter,
)
from slicedp.cli import main, sweep_minimal_n
from support import (
    chi_squared_critical,
    chi_squared_two_sample,
    clustered_instance,
    embedding,
    gamma_sensitivity_check,
    insertion_relabel_check,
    planted_box,
    random_quasi_concave,
)


@pytest.fixture
def report(capsys):
    def _report(num, name, ok, detail=""):
        line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return _report


def test_criterion_01_coupled_map_analytic(report):
    ok = True
    worst = 0.0
    for eps in (0.1, 0.3, 0.5, 0.9):
        cutoff = sync_gamma(eps) + 1
        d0 = sync_map_exact_dist(0, eps, cutoff)
        d1 = sync_map_exact_dist(1, eps, cutoff)
        p0, p1 = dict(d0.outcomes), dict(d1.outcomes)

        # the count an observer sees must stay exactly one-sided geometric
        for m in range(cutoff + 1):
            gap = abs(p0.get((m, 0), 0.0) + p0.get((m, 1), 0.0)
                      - geometric_pmf(eps, m))
            worst = max(worst, gap)
        worst = max(worst, abs(d0.tail - math.exp(-(cutoff + 1) * eps)))
        for m in range(cutoff + 2):
            pub = p1.get((m, 0), 0.0) + (p1.get((m - 1, 1), 0.0) if m else 0.0)
            worst = max(worst, abs(pub - geometric_pmf(eps, m)))
        worst = max(worst, abs(d1.tail - math.exp(-(cutoff + 2) * eps)))
        ok &= worst <= 1e-12

        lo, hi = math.exp(-eps), math.exp(eps)
        for key in set(p0) | set(p1):
            a, b = p0.get(key, 0.0), p1.get(key, 0.0)
            if a < 1e-15 and b < 1e-15:
                continue
            ok &= b > 0 and lo - 1e-9 <= a / b <= hi + 1e-9
        ok &= lo - 1e-9 <= d0.tail / d1.tail <= hi + 1e-9

        for dist in (d0, d1):
            synced = sum(p for (_, beta), p in dist.outcomes if beta == 1)
            ok &= synced + dist.tail >= 1.0 / 6.0
    report(1, "coupled geometric map", ok,
           f"worst marginal gap {worst:.1e}, ratio within e^eps at 1e-9")


def test_criterion_02_simulator_faithfulness(report):
    data = [3, 7, 1, 12, 9, 15, 4, 8]
    x, eps, trials = 5, 0.5, 100_000
    script = [
        SliceComputation(2, lambda s: int(s.max()) if s.size else -1,
                         ascending_map()),
        SliceComputation(2, lambda s: int(s.min()) if s.size else -1,
                         descending_map()),
    ]
    rng = np.random.default_rng(102)
    ok = True
    details = []
    for b in (0, 1):
        target = data + [x] if b == 1 else data
        sim = Counter(tuple(simulate(data, x, b, script, eps, rng).published)
                      for _ in range(trials))
        ref = Counter(tuple(direct_run(target, script, eps, rng))
                      for _ in range(trials))
        stat, df = chi_squared_two_sample(sim, ref)
        crit = chi_squared_critical(df, 0.99)
        ok &= stat <= crit
        details.append(f"b={b}: chi2 {stat:.1f} <= {crit:.1f} at df {df}")
    report(2, "simulator faithfulness", ok, "; ".join(details))


def test_criterion_03_holder_call_tail(report):
    # every one of the 16 min-queries brushes against the held-out x = 0
    stream = [SliceComputation(1, lambda s: int(s.min()) if s.size else -1,
                               ascending_map()) for _ in range(16)]
    trials = 100_000
    audit = audit_call_count(list(range(1, 49)), 0, 1, stream, 0.5,
                             trials=trials, rng=np.random.default_rng(103))
    ok = True
    worst_margin = 1.0
    for w, prob in audit.tail:
        if not 1 <= w <= 15:
            continue
        bound = (5.0 / 6.0) ** w
        allowed = bound + 3.0 * math.sqrt(bound * (1 - bound) / trials)
        ok &= prob <= allowed
        worst_margin = min(worst_margin, allowed - prob)
    report(3, "holder call tail", ok,
           f"mean {audit.mean:.2f} calls, min slack to (5/6)^w bound "
           f"{worst_margin:.3f}")


def test_criterion_04_interior_point_utility(report):
    u = Universe(32)
    eps, delta = 1.0, 1e-3
    t = trim_parameter(eps, delta)
    n = regime_threshold(u, eps, delta)
    ok = t == math.ceil(100 * math.log(1e3)) and n == 10 * t * log_star(u.size)

    rng = np.random.default_rng(104)
    top = u.size - 1
    families = {
        "all-equal": lambda: np.full(n, u.size // 2, dtype=np.uint64),
        "two-extremes": lambda: np.concatenate(
            [np.zeros(n // 2, dtype=np.uint64),
             np.full(n - n // 2, top, dtype=np.uint64)]),
        "uniform": lambda: rng.integers(0, u.size, size=n, dtype=np.uint64),
        "clustered": lambda: np.asarray(
            clustered_instance(rng, n, 32, outliers=40), dtype=np.uint64),
    }
    details = [f"n={n}"]
    for name, gen in families.items():
        hits = 0
        for _ in range(200):
            data = gen()
            z = ipp(u, data, eps, delta, rng)
            hits += int(int(data.min()) <= z <= int(data.max()))
        ok &= hits >= 190
        details.append(f"{name} {hits}/200")
    report(4, "interior point utility", ok, ", ".join(details))


def test_criterion_05_sample_complexity_scaling(report):
    # deterministic per seed: the bisection reuses one stream per trial index
    values = [sweep_minimal_n(bits, 1.0, 1e-3, trials=100, seed=20260815)
              for bits in (8, 16, 32, 64)]
    ceilings = [regime_threshold(Universe(bits), 1.0, 1e-3)
                for bits in (8, 16, 32, 64)]
    ok = all(0 < v <= c for v, c in zip(values, ceilings))
    # non-decreasing up to bisection granularity (1%): the curves for
    # different L are estimated from disjoint randomness
    for prev, cur in zip(values, values[1:]):
        ok &= cur >= prev - max(2, prev // 100)
    ok &= values[3] <= 2 * values[2]
    report(5, "sample complexity scaling", ok,
           f"minimal n {values}, ceilings {ceilings}")


def test_criterion_06_embedding_relabel_adjacency(report):
    rng = np.random.default_rng(106)
    u = Universe(16)
    ok = True
    for trial in range(1000):
        if trial % 4 == 0:
            # near-tie masses make the greedy paths actually diverge
            a, b = rng.integers(0, u.size, size=2)
            k = int(rng.integers(3, 40))
            data = [int(a)] * k + [int(b)] * (k + int(rng.integers(-1, 2)))
            data += [int(v) for v in rng.integers(0, u.size, size=4)]
        else:
            data = [int(v) for v in rng.integers(0, u.size,
                                                 size=rng.integers(2, 120))]
        x = int(rng.integers(0, u.size))
        ea = embedding(data, u)
        eb = embedding(data + [x], u)
        t = max(ea.gamma, eb.gamma) + 1
        ok &= insertion_relabel_check(ea, eb, x, 2 * t) <= 2 * t

    sens_ok = True
    for _ in range(10_000):
        data = rng.integers(0, u.size, size=200)
        x = int(rng.integers(0, u.size))
        sens_ok &= gamma_sensitivity_check(data, x, u) == 1
    report(6, "embedding relabel adjacency", ok and sens_ok,
           "1000 relabel pairs within 2t, sensitivity 1 on 10000 pairs")


def _nudged_table(rng, scores, n):
    # adjacent table: pointwise within 1, still unimodal, same peak
    for _ in range(50):
        lo = int(rng.integers(0, scores.size))
        hi = int(rng.integers(lo + 1, scores.size + 1))
        bump = int(rng.choice([-1, 1]))
        trial = scores.copy()
        trial[lo:hi] = np.clip(trial[lo:hi] + bump, 0, None)
        if is_quasi_concave(trial) and trial.max() == n:
            return trial
    return np.minimum(scores + 1, n)


def test_criterion_07_score_reduction_exactness(report):
    rng = np.random.default_rng(107)
    size_ok = True
    for _ in range(1000):
        size = int(rng.integers(2, 200))
        table = random_quasi_concave(rng, size)
        n = int(np.max(table))
        size_ok &= build_increment_dataset(table, n).size == n

    dist_ok = True
    for _ in range(1000):
        size = int(rng.integers(3, 120))
        peak = int(rng.integers(2, 60))
        table = random_quasi_concave(rng, size, peak_value=peak)
        other = _nudged_table(rng, table, peak)
        s1 = build_increment_dataset(table, peak)
        s2 = build_increment_dataset(other, peak)
        dist_ok &= cumulative_distance(s1.tolist(), s2.tolist()) <= 2
    report(7, "score reduction exactness", size_ok and dist_ok,
           "|S|=peak on 1000 tables, adjacent tables within distance 2")


def _to_base40_int(values):
    acc = 0
    for v in values:
        acc = acc * 40 + int(v)
    return acc


def _from_base40_int(value):
    out = []
    for _ in range(10):
        out.append(value % 40)
        value //= 40
    return tuple(reversed(out))


def test_criterion_08_optimizer_utility_and_mechanics(report):
    u = Universe(16)
    eps, delta, c = 4.0, 0.25, 4
    n = cumulative_regime_threshold(u, eps, delta, c)
    size = u.size
    y0 = size // 3
    slope = -(-4 * n // (size // 3))
    ys = np.arange(size, dtype=np.int64)
    inst = QcInstance(np.maximum(4 * n - slope * np.abs(ys - y0), 0))
    opt = int(inst.scores.max())
    rng = np.random.default_rng(108)
    hits = 0
    for _ in range(200):
        res = qc_optimize(inst, eps, delta, rng, constant_c=c)
        hits += int(res.branch == "interior" and opt - res.score <= n)
    tent_ok = hits >= 190

    # the tower lower bound is out of experimental reach; instead check the
    # reduction machinery loses at most the per-coordinate collision mass
    def uniform_interior(encoded):
        lo = min(_to_base40_int(t) for t in encoded)
        hi = max(_to_base40_int(t) for t in encoded)
        return _from_base40_int(int(rng.integers(lo, hi + 1)))

    trials = 1000
    wins = 0
    for _ in range(trials):
        data = sorted(rng.integers(1, 11, size=12).tolist())
        out = hardness_reduction(uniform_interior, data, rng)
        wins += int(min(data) <= out <= max(data))
    eps_est = 3.0 * math.sqrt((1 / 38) * (37 / 38) / trials)
    floor = 1.0 - 1.0 / 38.0 - eps_est
    hard_ok = wins / trials >= floor
    report(8, "optimizer utility and reduction mechanics", tent_ok and hard_ok,
           f"tent {hits}/200 within n={n}, reduction {wins}/{trials} "
           f">= {floor:.4f}")


def _box_trial(n_pos, d, u, eps, delta, rng):
    pts, labels, box = planted_box(rng, n_pos, 200, d, 16)
    hyp = learn_rectangles(LabeledSample(pts, labels, u), eps, delta, rng)
    if hyp.rectangle is None:
        return False
    fresh_pts, fresh_labels, _ = planted_box(rng, 4000, 4000, d, 16, box=box)
    pred = hyp.predict(fresh_pts)
    coverage = np.mean(pred[fresh_labels == 1])
    exclusion = np.mean(1 - pred[fresh_labels == 0])
    return coverage >= 0.9 and exclusion >= 0.9


def test_criterion_09_rectangle_learner(report):
    u = Universe(16)
    eps, delta = 1.0, 0.5
    m = regime_threshold(u, eps, delta)
    rng = np.random.default_rng(109)

    hits = sum(_box_trial(40 * 4 * m, 4, u, eps, delta, rng)
               for _ in range(100))
    main_ok = hits >= 90

    # minimal positive count per dimension count, coarse bisection with
    # common random numbers so the per-d curves are comparable
    minimal = {}
    for d in (2, 4, 8):
        lo, hi = 2 * d * m, 48 * d * m

        def meets(n):
            wins = sum(_box_trial(n, d, u, eps, delta,
                                  np.random.default_rng([600, d, tr]))
                       for tr in range(6))
            return wins >= 5

        if not meets(hi):
            minimal[d] = -1
            continue
        while hi - lo > max(200, (2 * d * m) // 20):
            mid = (lo + hi) // 2
            if meets(mid):
                hi = mid
            else:
                lo = mid + 1
        minimal[d] = hi

    per_d = {d: v / d for d, v in minimal.items()}
    scale_ok = (all(v > 0 for v in minimal.values())
                and max(per_d.values()) <= 2 * min(per_d.values()))
    report(9, "rectangle learner", main_ok and scale_ok,
           f"planted box {hits}/100 at n=160m, minimal n per dim "
           + str({d: round(v) for d, v in per_d.items()}))


def _run_twice(argv, out_path):
    records = []
    for _ in range(2):
        rc = main(argv + ["--output", str(out_path)])
        record = json.loads(out_path.read_text())
        record.pop("wall_clock_sec")
        records.append((rc, record))
    return records


def test_criterion_10_cli_determinism(report, tmp_path):
    rng = np.random.default_rng(110)
    ipp_in = tmp_path / "ipp.txt"
    ipp_in.write_text("77\n" * 9240)
    thresh_in = tmp_path / "thresh.csv"
    pts = rng.integers(0, 1 << 16, size=3000)
    thresh_in.write_text("".join(f"{p},{int(p <= 30000)}\n" for p in pts))
    rect_in = tmp_path / "rect.csv"
    rows = [f"{int(a)},{int(b)},1" for a, b in rng.integers(0, 1 << 16, (30, 2))]
    rows += [f"{int(a)},{int(b)},0" for a, b in rng.integers(0, 1 << 16, (30, 2))]
    rect_in.write_text("\n".join(rows) + "\n")
    qc_in = tmp_path / "scores.csv"
    qc_in.write_text("".join(f"{y},{min(y, 9)}\n" for y in range(30)))

    commands = {
        "account": ["account", "--seed", "11", "--tau", "6",
                    "--epsilon", "0.5", "--delta", "1e-4",
                    "--delta-hat", "1e-6", "--k", "1"],
        "ipp": ["ipp", "--seed", "11", "--input", str(ipp_in),
                "--bits", "8", "--delta", "0.1"],
        "learn-threshold": ["learn-threshold", "--seed", "11",
                            "--input", str(thresh_in), "--bits", "16",
                            "--delta", "0.5", "--xi", "0.2", "--beta", "0.2"],
        "learn-rect": ["learn-rect", "--seed", "11", "--input", str(rect_in),
                       "--bits", "16", "--delta", "0.5"],
        "qc-opt": ["qc-opt", "--seed", "11", "--input", str(qc_in),
                   "--epsilon", "4", "--delta", "0.25"],
        "audit-sync": ["audit-sync", "--seed", "11", "--epsilon", "0.5"],
        "audit-sim": ["audit-sim", "--seed", "11", "--epsilon", "0.5",
                      "--trials", "400", "--tau", "2", "--size", "6"],
        "sweep": ["sweep", "--seed", "11", "--epsilon", "1",
                  "--delta", "0.1", "--trials", "5", "--bits", "4"],
    }
    ok = True
    failing = []
    for name, argv in commands.items():
        out = tmp_path / f"{name}.json"
        (first_rc, first), (second_rc, second) = _run_twice(argv, out)
        same = first_rc == second_rc == 0 and first == second
        if name == "sweep":
            csv_bytes = (tmp_path / "sweep.json.csv").read_bytes()
            rc = main(argv + ["--output", str(out)])
            same &= rc == 0 and (tmp_path / "sweep.json.csv").read_bytes() == csv_bytes
        ok &= same
        if not same:
            failing.append(name)
    report(10, "CLI determinism", ok,
           "8 commands byte-stable" if ok else f"unstable: {failing}")
