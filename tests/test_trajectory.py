"""The summary step of tools/trajectory.py, on a recorded bench report.

The report is a real `bench/run.py --workload norm-ladder --seed 1
--seconds 1 --trace 0` output, with its two known trap failures and
the directories of its BLAS build dropped; no bench runs here.
"""

import copy
import importlib.util
import json
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
    assert wall == {"pairs": 3, "lower": 2, "higher": 1, "median_ratio": 0.5}
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
