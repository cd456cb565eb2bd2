"""Self-tests of the benchmark: inputs, checkers, names and tracing.

    python3 -m pytest bench -q
"""

import dataclasses
import json
import statistics
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import helson as h  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_inputs_repeat_for_a_seed(name):
    make = workloads.INPUTS[name]
    assert json.dumps(make(5)) == json.dumps(make(5))
    assert json.dumps(make(5)) != json.dumps(make(6))


def test_builders_give_the_same_op_list(tmp_path):
    for name, build in workloads.BUILDERS.items():
        first, second = build(3, tmp_path), build(3, tmp_path)
        assert [op.name for op in first.ops] == [op.name for op in second.ops]
        assert first.cli.args == second.cli.args
        names = [op.name for op in first.ops]
        assert len(names) == len(set(names))


def test_norm_checker_rejects_relative_error_1e6():
    mat = h.assemble(h.MHilbertSymbol(), 32)
    ref = checks.svd_norm(mat.entries)
    assert checks.check_norm(h.operator_norm(mat).norm, ref) == []
    assert checks.check_norm(ref * (1 + 1e-6), ref)[0][0] == "norm_vs_svd"


def test_entry_checker_rejects_a_wrong_entry():
    values_at = workloads.reference_values("power:1")
    mat = h.assemble(h.PowerSymbol(1.0), 8)
    assert checks.check_entries(mat.entries, mat.indices, values_at) == []
    bad = mat.entries.copy()
    bad[2, 3] *= 1 + 1e-9
    assert checks.check_entries(bad, mat.indices, values_at)[0][0] == "entries"


def test_xnorm_checker_rejects_class_sums_that_miss_c():
    c = h.Sequence({1: 1.0, 2: 0.5j, 4: -0.25})
    indices = list(range(1, 5))
    result = h.xnorm(c, 4)
    bad = result.matrix.copy()
    bad[0, 1] += 1e-3
    planted = dataclasses.replace(result, matrix=bad)
    assert "class_sums" not in _ids(checks.check_xnorm(result, c, indices))
    assert "class_sums" in _ids(checks.check_xnorm(planted, c, indices))


def test_xnorm_checker_rejects_a_certificate_above_norm_one():
    c = h.Sequence({1: 1.0, 2: 0.5})
    result = h.xnorm(c, 4)
    cert_norm = checks.svd_norm(checks.symbol_matrix(
        checks.sequence_values(result.certificate), range(1, 5)))
    planted = dataclasses.replace(
        result, certificate=(1.0 + 1e-6) / cert_norm * result.certificate)
    assert "certificate_norm" in _ids(checks.check_xnorm(planted, c, list(range(1, 5))))


def _ids(fails):
    return [check_id for check_id, _ in fails]


def test_representation_checker_rejects_wrong_value_and_cost():
    c = h.Sequence({1: 1.0, 2: 0.5})
    assert checks.check_representation(c, 2.0, c, 2.0) == []
    other = h.Sequence({1: 1.0, 2: 0.6})
    assert [cid for cid, _ in checks.check_representation(other, 2.1, c, 2.0)] == [
        "rep_value", "rep_cost"]


def test_cli_checker_rejects_nonconverged_exit_0(tmp_path):
    workload = workloads.xnorm_ladder(1, tmp_path)
    twin = types.SimpleNamespace(value=1.5, converged=False, iterations=20000)
    payload = json.dumps({"value": 1.5, "converged": False, "iterations": 20000})
    assert workload.cli.check(3, payload, twin) == []
    fails = workload.cli.check(0, payload, twin)
    assert [cid for cid, _ in fails] == ["exit_code"]
    assert checks.parse_cli(2, "")[1][0][0] == "exit_code"
    # exit 3 with the estimate on stderr is within the contract when unconverged
    assert workload.cli.check(3, "", twin) == []
    converged = types.SimpleNamespace(value=1.5, converged=True, iterations=900)
    assert _ids(workload.cli.check(3, "", converged)) == ["exit_code"]


def test_approx_checker_rejects_weights_off_the_simplex():
    omega = checks.omega_table(64)
    symbol = h.MHilbertSymbol()
    res = h.best_convex_approx(symbol, (0.9, 0.99), 8)
    base = h.assemble(symbol, 8).entries
    assert checks.check_approx(res, base, range(1, 9), omega) == []
    skewed = types.SimpleNamespace(
        weights=types.SimpleNamespace(r_grid=(0.9, 0.99), weights=(0.7, 0.4)),
        value=res.value, converged=True)
    assert "simplex" in [cid for cid, _ in checks.check_approx(skewed, base, range(1, 9), omega)]


def test_reference_sieve_matches_definitions():
    omega = checks.omega_table(100)
    assert omega[1] == 0 and omega[2] == 1 and omega[3] == 2 and omega[12] == 4
    assert checks.smooth_numbers(20, 2) == [1, 2, 3, 4, 6, 8, 9, 12, 16, 18]
    assert checks.hs_reference(0.5) == pytest.approx(np.prod(1 / (1 - 0.25 ** np.arange(1, 60))))


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(workloads.BUILDERS) == sorted(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    setup = [{"import_s": 0.1, "sieve_s": 0.05}]
    emitted = run.layer_metrics({}, run.Counts(), setup, 0.0, 0.0)
    assert {name: unit for name, (_, unit) in emitted.items()} == run.PER_LAYER


def test_tracer_self_time():
    tracer = tracing.Tracer()
    leaf = tracer.leaf("fixtures.value", lambda: time.sleep(0.002))
    inner = tracer.span("inner", lambda: (leaf(), time.sleep(0.002)))
    outer = tracer.span("outer", lambda: (inner(), leaf(), time.sleep(0.002)))
    outer()
    stats = tracer.stats
    # self times plus hot-leaf time add up to the root span's duration
    assert stats["outer"][2] + stats["inner"][2] + stats["fixtures.value"][1] == pytest.approx(
        stats["outer"][1], abs=1e-9)
    assert 0 < stats["inner"][2] < stats["inner"][1]
    inner_span, outer_span = tracer.spans
    assert inner_span[1] == outer_span[0] and outer_span[1] is None


def test_install_patches_every_binding_and_restores():
    tracer = tracing.Tracer()
    counts = run.Counts()
    original = h.operator.assemble
    restore = tracing.install(tracer, counts.observers())
    try:
        assert h.assemble is not original and h.spectral.assemble is h.assemble
        symbol = workloads.Context(tracer).fixture("mhilbert")
        h.l2_lower_bound_check(symbol, 16)
    finally:
        restore()
    assert h.assemble is original and h.spectral.assemble is original
    assert tracer.stats["operator.assemble"][0] == 1
    # one evaluation per distinct product inside assemble, plus the l2 window
    assert counts.evals == counts.distinct_products()
    assert tracer.stats["fixtures.value"][0] == counts.evals + 16


def test_calibrator_paces_samples_and_reports_slowdown():
    cal = calibrate.Calibrator(every_s=60.0)
    cal.sample()
    cal.sample()  # less than every_s after the first: skipped
    cal.sample(force=True)
    assert len(cal.samples) == 2 and min(cal.samples) > 0
    assert cal.slowdown() == statistics.median(cal.samples) / calibrate.NOMINAL_S
