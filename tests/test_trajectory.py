"""The summary step of tools/trajectory.py, on a recorded bench report.

The report is a real `bench/run.py --workload norm-ladder --seed 1
--seconds 1 --trace 0` output, with its two known trap failures and
the directories of its BLAS build dropped; no bench runs here.
"""

import copy
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("trajectory", ROOT / "tools" / "trajectory.py")
trajectory = importlib.util.module_from_spec(spec)
spec.loader.exec_module(trajectory)

RECORDED = json.loads((Path(__file__).parent / "data" / "norm-ladder-seed1-trace0.json")
                      .read_text())


def seeded(seed, wall_scale=1.0):
    report = copy.deepcopy(RECORDED)
    report["provenance"]["seed"] = seed
    report["metrics"]["wall_s"]["value"] *= wall_scale
    return report


def test_summary_gives_median_iqr_and_failed_counts():
    wall = RECORDED["metrics"]["wall_s"]["value"]
    # seeds out of order: the summary sorts them
    out = trajectory.summarise([seeded(3, 4.0), seeded(1), seeded(2, 2.0)])
    assert list(out) == ["norm-ladder"]
    row = out["norm-ladder"]
    assert row["seeds"] == [1, 2, 3]
    assert row["metrics"]["wall_s"]["values"] == [wall, 2.0 * wall, 4.0 * wall]
    # inclusive quartiles of (1, 2, 4) w are 1.5 w and 3 w
    assert row["metrics"]["wall_s"]["median"] == pytest.approx(2.0 * wall)
    assert row["metrics"]["wall_s"]["iqr"] == pytest.approx(1.5 * wall)
    assert row["metrics"]["peak_rss_mb"]["iqr"] == 0.0
    assert set(row["metrics"]) == {"setup_s", "wall_s", "cli_s", "peak_rss_mb"}
    assert row["metrics"]["peak_rss_mb"]["unit"] == "MB"
    assert row["failed"] == [2, 2, 2] and row["attempted"] == 21
    assert row["correct"]
    assert row["src_sha256"] == [RECORDED["provenance"]["src_sha256"]]


def test_summary_flags_a_failure_that_is_no_known_defect():
    bad = seeded(2)
    bad["failures"][0]["known_defect"] = False
    assert not trajectory.summarise([seeded(1), bad])["norm-ladder"]["correct"]


def test_one_run_has_no_spread():
    row = trajectory.summarise([seeded(1)])["norm-ladder"]["metrics"]["cli_s"]
    assert row["median"] == RECORDED["metrics"]["cli_s"]["value"] and row["iqr"] == 0.0


def test_paired_counts_the_seeds_the_second_checkout_wins():
    base = trajectory.summarise([seeded(s) for s in (1, 2, 3)])
    other = trajectory.summarise([seeded(1, 0.5), seeded(2, 0.5), seeded(3, 2.0)])
    wall = trajectory.paired(base, other)["norm-ladder"]["wall_s"]
    # the second's spread, IQR 0.75 w at median 0.5 w, is past the 0.25 bound
    assert wall == {"pairs": 3, "lower": 2, "higher": 1, "median_ratio": 0.5,
                    "verdict": "unresolved"}
    # equal runs are ties, counted on neither side
    assert trajectory.paired(base, base)["norm-ladder"]["cli_s"]["lower"] == 0


def test_op_medians_sum_to_wall_s():
    ops = trajectory.op_medians(RECORDED)
    assert set(ops) == set(RECORDED["op_s_per_pass"][0])
    # the last pass ran 5 of the 20 ops: each op's median is over the
    # passes that ran it, and is scaled by the run's slowdown, as the
    # bench's wall_s is
    assert sum(ops.values()) == pytest.approx(RECORDED["metrics"]["wall_s"]["value"],
                                              rel=1e-12)
    name = next(iter(ops))
    times = [p[name] for p in RECORDED["op_s_per_pass"] if name in p]
    assert ops[name] == pytest.approx(sorted(times)[len(times) // 2] / RECORDED["slowdown"])


def slowed(seed, op, factor):
    report = seeded(seed)
    for times in report["op_s_per_pass"]:
        if op in times:
            times[op] *= factor
    return report


def test_paired_ops_trace_a_change_to_the_op_that_moved():
    ops = list(RECORDED["op_s_per_pass"][0])
    moved, still = ops[0], ops[1]
    base = trajectory.summarise([seeded(s) for s in (1, 2, 3)])
    other = trajectory.summarise([slowed(1, moved, 0.5), slowed(2, moved, 0.5),
                                  slowed(3, moved, 2.0)])
    row = other["norm-ladder"]["ops"][moved]
    first = trajectory.op_medians(RECORDED)[moved]
    assert row["values"] == pytest.approx([0.5 * first, 0.5 * first, 2.0 * first])
    assert row["median"] == pytest.approx(0.5 * first)
    ops_paired = trajectory.paired(base, other, key="ops")["norm-ladder"]
    assert list(ops_paired) == ops
    assert ops_paired[moved] == {"pairs": 3, "lower": 2, "higher": 1,
                                 "median_ratio": pytest.approx(0.5)}
    assert ops_paired[still] == {"pairs": 3, "lower": 0, "higher": 0, "median_ratio": 1.0}


def test_machine_reads_the_provenance():
    report = copy.deepcopy(RECORDED)
    report["provenance"]["blas"]["lib directory"] = "build/lib"
    info = trajectory.machine(report)
    assert info["nproc"] == RECORDED["provenance"]["nproc"]
    assert info["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert {"platform", "python", "numpy", "blas"} <= set(info)
    assert info["blas"]["name"] == RECORDED["provenance"]["blas"]["name"]
    assert not any("directory" in key for key in info["blas"])


def test_full_support_xnorm_runs_in_a_fresh_process_on_the_checkout():
    # N = 16 is the least window with 13 in it, so every point of 1..16
    # is a window product
    run = trajectory.run_full_support(ROOT, 16)
    assert run["n_max"] == 16 and run["converged"] and run["iterations"] >= 1
    assert run["wall_s"] > 0.0 and run["peak_rss_mb"] > 0.0
    assert 0.0 < run["gap"] <= 1e-6 < run["value"]


def test_full_support_summary_gives_medians_per_window():
    runs = [{"n_max": n, "wall_s": wall, "iterations": 15, "converged": True,
             "value": 5.0, "gap": 1e-7, "peak_rss_mb": rss}
            for n, wall, rss in ((32, 0.3, 50.0), (64, 2.0, 90.0), (32, 0.1, 52.0),
                                 (32, 0.2, 51.0))]
    out = trajectory.summarise_full_support(runs)
    assert list(out) == ["32", "64"]
    assert out["32"]["wall_s"] == 0.2 and out["32"]["wall_s_values"] == [0.3, 0.1, 0.2]
    assert out["32"]["peak_rss_mb"] == 51.0 and out["32"]["iterations"] == [15]
    assert out["64"]["wall_s"] == 2.0 and out["64"]["converged"]


def summary(values, metric="wall_s"):
    """A one-workload summary of one metric, seeds 1, 2, ... in order."""
    median, iqr = trajectory.spread(values)
    return {"norm-ladder": {"seeds": list(range(1, len(values) + 1)),
                            "metrics": {metric: {"median": median, "iqr": iqr,
                                                 "values": values}}}}


BASE = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


def verdict_of(first, second, metric="wall_s"):
    return trajectory.paired(summary(first, metric),
                             summary(second, metric))["norm-ladder"][metric]["verdict"]


def test_verdict_gain_needs_nine_of_ten_pairs_and_medians_past_the_iqr():
    # 9 of 10 lower by 20%: a gain; 8 of 10: not yet
    assert verdict_of(BASE, [0.8 * x for x in BASE[:9]] + [1.2]) == "gain"
    assert verdict_of(BASE, [0.8 * x for x in BASE[:8]] + [1.2, 1.2]) == "unchanged"
    # lower on every pair, but the medians lie within the first IQR (0.045)
    assert verdict_of(BASE, [x - 0.01 for x in BASE]) == "unchanged"
    assert verdict_of(BASE, BASE) == "unchanged"


def test_verdict_regression_is_a_median_worse_by_more_than_the_bound():
    # wall_s has bound 0.25 and peak_rss_mb 0.1 in BENCHMARK.json
    assert verdict_of(BASE, [1.3 * x for x in BASE]) == "regression"
    assert verdict_of(BASE, [1.2 * x for x in BASE]) == "unchanged"
    rss = [157.0 + 0.1 * k for k in range(10)]
    assert verdict_of(rss, [1.074 * x for x in rss], "peak_rss_mb") == "unchanged"
    assert verdict_of(rss, [1.12 * x for x in rss], "peak_rss_mb") == "regression"


def test_verdict_unresolved_when_either_spread_passes_the_bound():
    wide = [1.0, 1.0, 1.0, 1.5, 1.5, 1.5, 2.0, 2.0, 2.0, 2.0]
    assert verdict_of(wide, [0.5 * x for x in wide]) == "unresolved"
    assert verdict_of(BASE, wide) == "unresolved"


def test_verdict_reads_the_better_direction():
    high = {"median": 1.0, "iqr": 0.01}
    low = {"median": 0.8, "iqr": 0.01}
    pairs = [(1.0, 0.8)] * 10
    assert trajectory.verdict(high, low, pairs, "lower", 0.25) == "gain"
    assert trajectory.verdict(high, low, pairs, "higher", 0.1) == "regression"
    assert trajectory.verdict(high, low, pairs, "higher", 0.25) == "unchanged"
    back = [(y, x) for x, y in pairs]
    assert trajectory.verdict(low, high, back, "higher", 0.25) == "gain"


def test_ops_get_no_verdict():
    base = trajectory.summarise([seeded(s) for s in (1, 2, 3)])
    ops = trajectory.paired(base, base, key="ops")["norm-ladder"]
    assert not any("verdict" in row for row in ops.values())


def test_children_read_and_write_no_bytecode(monkeypatch, tmp_path):
    # every bench child and full-support probe gets its own empty cache
    # prefix, so neither checkout reads bytecode another run left behind
    seen = []

    def fake_run(argv, cwd, env, check, **kwargs):
        prefix = Path(env["PYTHONPYCACHEPREFIX"])
        seen.append((env, prefix.is_dir() and not any(prefix.iterdir())))
        if "--full-support" in argv:
            return subprocess.CompletedProcess(argv, 0, stdout='{"n_max": 16}')
        out = Path(cwd) / ".bench_out"
        out.mkdir(exist_ok=True)
        (out / f"{argv[3]}-seed{argv[5]}-trace0.json").write_text(json.dumps(RECORDED))
        return subprocess.CompletedProcess(argv, 0)

    monkeypatch.setattr(trajectory.subprocess, "run", fake_run)
    assert trajectory.run_bench(tmp_path, "norm-ladder", 1) == RECORDED
    trajectory.run_bench(tmp_path, "norm-ladder", 2)
    assert trajectory.run_full_support(tmp_path, 16) == {"n_max": 16}
    assert [empty for _, empty in seen] == [True, True, True]
    prefixes = {env["PYTHONPYCACHEPREFIX"] for env, _ in seen}
    assert len(prefixes) == 3 and not any(Path(p).exists() for p in prefixes)
    for env, _ in seen:
        assert env["PYTHONDONTWRITEBYTECODE"] == "1"
    probe = seen[-1][0]
    assert probe["PYTHONPATH"] == str(tmp_path / "src")
    assert all(probe[var] == "1" for var in trajectory.THREAD_VARS)
