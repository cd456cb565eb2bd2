import argparse
import json
import math
import pathlib
import re
import shlex
import subprocess
import sys
import time

import numpy as np
import pytest

from helson import (
    MHilbertSymbol,
    Sequence,
    XNormConfig,
    assemble,
    best_convex_approx,
    bilinear_pair,
    load_sequence,
    save_sequence,
    sequence_from_triples,
    sieve_limit,
    xnorm,
)
from helson import spectral
from helson.sieve import factor_pairs
from helson.operator import Window
from helson.cli import COMMANDS, KNOBS, build_parser, main, parse_r_grid
from helson.fixtures import FIXTURES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -------------------------------------------------------------------- factor


def test_factor_output(capsys):
    code, out, _ = run(capsys, "factor", "360")
    assert code == 0
    assert out.strip() == "360 = 2^3 · 3^2 · 5, kappa=(3,2,1)"


def test_factor_one(capsys):
    code, out, _ = run(capsys, "factor", "1")
    assert code == 0
    assert out.strip() == "1 = 1, kappa=()"


def test_factor_domain_error(capsys):
    code, _, err = run(capsys, "factor", "0")
    assert code == 2
    assert "error" in err


# --------------------------------------------------------- convolve / dilate


def test_convolve_roundtrip(capsys, tmp_path):
    pa = tmp_path / "a.json"
    pb = tmp_path / "b.json"
    save_sequence(Sequence.delta(2), pa)
    save_sequence(Sequence.delta(3), pb)
    code, out, _ = run(capsys, "convolve", f"file:{pa}", f"file:{pb}")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert sequence_from_triples(doc["sequence"]) == Sequence.delta(6)


def test_convolve_output_reusable_as_input(capsys, tmp_path):
    out_path = tmp_path / "c.json"
    code = main(
        ["convolve", "delta:2", "delta:3", "--output", str(out_path)]
    )
    assert code == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "convolve", f"file:{out_path}", "delta:2")
    assert code == 0
    doc = json.loads(out)
    assert sequence_from_triples(doc["sequence"]) == Sequence.delta(12)


def test_convolve_computes_products_past_the_sieve(capsys):
    # products are never factored: 2048 * 1024 = 2^21 lies past the
    # sieve's range 2^20 and is computed
    code, out, _ = run(capsys, "convolve", "delta:2048", "delta:1024")
    assert code == 0
    assert json.loads(out)["sequence"] == [[2097152, 1.0, 0.0]]


def test_dilate(capsys):
    code, out, _ = run(capsys, "dilate", "0.5", "delta:3")
    assert code == 0
    doc = json.loads(out)
    assert doc["sequence"] == [[3, 0.25, 0.0]]


@pytest.mark.parametrize("command", ["norm", "xnorm"])
def test_index_beyond_int64_is_a_domain_error(capsys, tmp_path, command):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps([[1, 1.0, 0.0], [2**63, 1.0, 0.0]]))
    code, out, err = run(capsys, command, f"file:{path}", "--N", "4")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "2^63" in err


@pytest.mark.parametrize("content, message", [
    ({"n": 1}, "sequence file must be a JSON array of [n, re, im] triples"),
    ([[1, 2]], "malformed sequence triple: [1, 2]"),
    # the first two once printed a norm and exited 0
    ([[1, "1.5", 0]], "re at index 1 must be a real number, got str"),
    ([[1, True, 0]], "re at index 1 must be a real number, got bool"),
    ([[1, None, 0]], "re at index 1 must be a real number, got NoneType"),
])
def test_a_malformed_sequence_file_is_a_domain_error(capsys, tmp_path, content, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(content))
    code, out, err = run(capsys, "norm", f"file:{path}", "--N", "4")
    assert code == 2
    assert out == ""
    assert err == f"error: bad sequence file {path}: {message}\n"


# ---------------------------------------------------------------------- norm


def test_norm_delta1(capsys):
    code, out, _ = run(capsys, "norm", "delta:1", "--N", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["norm"] == pytest.approx(1.0, abs=1e-10)
    assert doc["N"] == 8
    assert doc["fixture"] == "delta:1"
    assert doc["schema"] == 1


def test_norm_power_rank_one(capsys):
    code, out, _ = run(capsys, "norm", "power:1", "--N", "2")
    assert code == 0
    assert json.loads(out)["norm"] == pytest.approx(1.25, rel=1e-10)


def test_norm_mhilbert_monotone(capsys):
    norms = {}
    for n in (32, 64, 128):
        code, out, _ = run(capsys, "norm", "mhilbert", "--N", str(n))
        assert code == 0
        norms[n] = json.loads(out)["norm"]
    assert norms[32] < norms[64] < norms[128]


def test_norm_requires_n(capsys):
    code, _, err = run(capsys, "norm", "delta:1")
    assert code == 2
    assert "--N" in err


@pytest.mark.parametrize("argv, message", [
    (("norm", "delta:0", "--N", "4"), "delta index must be >= 1, got 0"),
    (("norm", "random-decay:5", "--N", "4"),
     "bad fixture 'random-decay:5'; usage: random-decay:seed,rate"),
    (("essnorm", "mhilbert:2", "--grid", "0.5", "--N", "4"),
     "bad fixture 'mhilbert:2'; usage: mhilbert"),
    (("xnorm", "power:1", "--N", "4"),
     "fixture 'power:1' has infinite support; this argument needs a finite "
     "sequence (delta:n or file:path)"),
    # N, d and the tolerances are refused by the library, before any output
    (("norm", "delta:1", "--N", "0"), "truncation size must be >= 1, got 0"),
    (("norm", "delta:1", "--N", "4", "--primes", "0"), "prime budget must be >= 1, got 0"),
    (("convolve", "delta:2", "delta:3", "--primes", "0"), "prime budget must be >= 1, got 0"),
    (("essnorm", "delta:1", "--grid", "0.5", "--N", "4", "--norm-tol", "0"),
     "tolerance must lie in (0, 1e-4], got 0.0"),
    (("duality", "delta:1", "delta:1", "--N", "4", "--solver-tol", "0"),
     "tolerance must be positive and finite, got 0.0"),
])
def test_bad_inputs_exit_2_with_the_library_message(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_norm_unreachable_tolerance(capsys):
    # the uncertified norm is written in full, as xnorm's is
    code, out, err = run(capsys, "norm", "mhilbert", "--N", "16", "--norm-tol", "1e-30")
    assert code == 3
    assert "convergence" in err.lower()
    doc = json.loads(out)
    assert doc["converged"] is False
    assert 0 < doc["norm"] <= np.linalg.norm(assemble(MHilbertSymbol(), 16).entries, 2)


def test_norm_of_a_well_scaled_window_with_a_weak_start(capsys, tmp_path):
    # alpha = lambda off the multiples of 37, plus 2^-400 delta_37, at
    # N = 39: lambda is the Liouville function, completely multiplicative,
    # so M_39 is alpha alpha^T plus 2^-400 at (1, 37) and (37, 1), and the
    # row sums of alpha alpha^T cancel.  The all-ones start maps to norm
    # 2^-400 sqrt(2/39), and gives way to a column; 39 rows are past the
    # dense start, and ||alpha||^2 = 38
    def alpha(n):
        if n % 37:
            return (-1) ** sum(k for _, k in factor_pairs(n))
        return 2.0**-400 if n == 37 else 0

    path = tmp_path / "t.json"
    path.write_text(json.dumps([[n, alpha(n), 0] for n in range(1, 39 * 39 + 1) if alpha(n)]))
    code, out, _ = run(capsys, "norm", f"file:{path}", "--N", "39")
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    assert doc["norm"] == pytest.approx(38.0, rel=1e-12)


def test_norm_of_the_two_sided_trap(capsys, tmp_path):
    # M_2 = [[1, -0.5], [-0.5, 1]]: all-ones is the eigenvector of 0.5,
    # and the dense start of a small window finds the norm 1.5
    path = tmp_path / "t.json"
    path.write_text(json.dumps([[1, 1, 0], [2, -0.5, 0], [4, 1, 0]]))
    code, out, _ = run(capsys, "norm", f"file:{path}", "--N", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    assert doc["norm"] == pytest.approx(1.5, rel=1e-12)


def test_badly_scaled_symbols(capsys, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps([[1, 1e200, 0.0]]))
    code, out, _ = run(capsys, "norm", f"file:{path}", "--N", "2")
    assert code == 0
    assert '"norm": 1e+200,' in out
    assert json.loads(out)["converged"] is True
    # xnorm's first Newton decrement overflows; the bracket of the
    # projected zero matrix is still written
    for argv in (("xnorm", f"file:{path}"), ("duality", "mhilbert", f"file:{path}")):
        code, out, _ = run(capsys, *argv, "--N", "2")
        assert code == 3
        assert json.loads(out)["converged"] is False
    # values past the float range are refused where they are evaluated,
    # with one clean stderr line and no numpy warning
    for argv in (("norm", "power:-200", "--N", "64"),
                 ("essnorm", "power:-200", "--grid", "0.5", "--N", "64")):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: symbol power:-200 is not finite at index 35\n"


# ------------------------------------------------------------------- essnorm


def test_essnorm_delta1_zeros(capsys):
    code, out, _ = run(
        capsys, "essnorm", "delta:1", "--grid", "0.5,0.9", "--N", "4"
    )
    assert code == 0
    doc = json.loads(out)
    for _r, _n, value in doc["rows"]:
        assert value <= 1e-9
    for block in doc["weights"].values():
        assert block["value"] <= 1e-9
    assert doc["determinism"].startswith("seed-free")


def test_essnorm_prints_lower_next_to_value(capsys):
    grid = (0.9, 0.99, 0.999)
    code, out, _ = run(capsys, "essnorm", "mhilbert", "--grid", "0.9,0.99,0.999",
                       "--N", "16")
    assert code == 0
    block = json.loads(out)["weights"]["16"]
    res = best_convex_approx(MHilbertSymbol(), grid, 16)
    assert (block["lower"], block["value"]) == (res.lower, res.value)
    assert 0.0 < block["lower"] <= block["value"]


def test_essnorm_csv_and_manifest(capsys, tmp_path):
    out_path = tmp_path / "table.csv"
    code = main(
        [
            "essnorm",
            "delta:2",
            "--grid",
            "0.5,0.9",
            "--N",
            "2,4",
            "--format",
            "csv",
            "--output",
            str(out_path),
        ]
    )
    assert code == 0
    text = out_path.read_text()
    lines = text.splitlines()
    assert lines[0].startswith("# schema=1 config_hash=")
    assert lines[1] == "r,N,value"
    # delta_2 diagnostic values are exactly 1 - r
    rows = [ln.split(",") for ln in lines[2:]]
    for r, _n, v in rows:
        assert float(v) == pytest.approx(1 - float(r), abs=1e-9)
    manifest = json.loads((tmp_path / "table.csv.manifest.json").read_text())
    assert manifest["schema"] == 1
    assert manifest["grid"] == [0.5, 0.9]
    assert "determinism" in manifest


def test_essnorm_csv_to_stdout_skips_the_weights(capsys, tmp_path, monkeypatch):
    # without --output there is no manifest, so no weights are computed
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2])
        return best_convex_approx(*args, **kwargs)

    monkeypatch.setattr("helson.cli.best_convex_approx", counting)
    argv = ("essnorm", "power:1", "--grid", "geometric(0.9,0.1,3)", "--N", "4,8",
            "--format", "csv")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and calls == []
    assert out.splitlines()[1] == "r,N,value" and len(out.splitlines()) == 8
    assert "rows_converged" not in out.splitlines()[0]
    # the table is the one written next to the manifest
    out_path = tmp_path / "table.csv"
    code, _, _ = run(capsys, *argv, "--output", str(out_path))
    assert code == 0 and calls == [4, 8]
    assert out_path.read_text() == out


def test_essnorm_geometric_grid(capsys):
    code, out, _ = run(
        capsys, "essnorm", "delta:1", "--grid", "geometric(0.9,0.1,3)", "--N", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["grid"] == pytest.approx([0.9, 0.99, 0.999])


def test_parse_r_grid():
    assert parse_r_grid("0.5,0.9") == (0.5, 0.9)
    geo = parse_r_grid("geometric(0.5,0.5,3)")
    assert geo == pytest.approx((0.5, 0.75, 0.875))
    from helson import DomainError

    # geometric(0.9,0.1,20) reaches r = 1.0 in floating point at its 17th point
    for bad in ("", "1.5", "geometric(0.5,0.5,0)", "0.9,0.5", "geometric(0.9,0.1,20)",
                "geometric(abc,0.1,3)"):
        with pytest.raises(DomainError):
            parse_r_grid(bad)


# --------------------------------------------------------------------- xnorm


def test_xnorm_delta1(capsys):
    code, out, _ = run(capsys, "xnorm", "delta:1", "--N", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(1.0, abs=1e-6)
    assert doc["gap"] < 1e-6


def test_xnorm_delta4(capsys):
    code, out, _ = run(capsys, "xnorm", "delta:4", "--N", "4")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-6)


def test_xnorm_matrix_out(capsys, tmp_path):
    path = tmp_path / "x.csv"
    code = main(["xnorm", "delta:1", "--N", "2", "--matrix-out", str(path)])
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# schema=1 config_hash=")
    assert lines[1] == "re0,im0,re1,im1"
    assert len(lines) == 4
    cells = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
    expect = xnorm(Sequence.delta(1), 2).matrix
    assert np.array_equal(cells[:, 0::2] + 1j * cells[:, 1::2], expect)


def test_xnorm_matrix_out_covers_the_budget_window(capsys, tmp_path):
    # under --primes 2 the window is the 17 3-smooth integers <= 64, not 1..64
    path = tmp_path / "x.csv"
    argv = ["xnorm", "delta:12", "--N", "64", "--primes", "2", "--matrix-out", str(path)]
    assert main(argv) == 0
    header, *rows = path.read_text().splitlines()[1:]
    assert header.split(",")[-2:] == ["re16", "im16"]
    cells = np.array([[float(x) for x in row.split(",")] for row in rows])
    assert cells.shape == (17, 34)
    expect = xnorm(Sequence.delta(12), 64, prime_budget=2).matrix
    assert np.array_equal(cells[:, 0::2] + 1j * cells[:, 1::2], expect)


def test_xnorm_to_json(capsys):
    code, out, _ = run(capsys, "xnorm", "delta:1", "--N", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(1.0, abs=1e-6)
    assert doc["converged"] is True
    assert doc["certificate"] == [[1, pytest.approx(1.0, abs=1e-6), 0.0]]


def test_xnorm_unrepresentable(capsys):
    code, _, err = run(capsys, "xnorm", "delta:5", "--N", "4")
    assert code == 2
    assert "5" in err


def test_xnorm_unconverged_exits_3(capsys, tmp_path):
    path = tmp_path / "c.json"
    c = {1: -0.7, 2: 0.4, 3: 0.9, 4: -1.3, 6: 1.3}
    save_sequence(Sequence(c), path)
    code, out, err = run(
        capsys, "xnorm", f"file:{path}", "--N", "12", "--max-iter", "2"
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["converged"] is False
    assert doc["iterations"] == 2
    assert len(err.strip().splitlines()) == 1


# the Gaussian draw of numpy seed 7 on {1, 2, 3, 4, 6}: its dual
# certificate has a near-degenerate leading pair (xnorm scales it by a
# proven norm bound); stopped after 2 Newton steps its certified gap is
# far above the tolerance
STALLED_C = [
    [1, 0.0012301533574825742, 0.2987455375084699],
    [2, -0.2741378553622176, -0.8905918387572742],
    [3, -0.45467078517172255, -0.9916465549964624],
    [4, 0.060143602597438485, 1.3402152455545335],
    [6, -0.49220651855132963, -0.6204748998199404],
]


def test_xnorm_uncertified_certificate_keeps_payload(capsys, tmp_path):
    path = tmp_path / "c.json"
    save_sequence(sequence_from_triples(STALLED_C), path)
    code, out, err = run(
        capsys, "xnorm", f"file:{path}", "--N", "12", "--max-iter", "2"
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["converged"] is False
    assert doc["iterations"] == 2
    assert doc["value"] > 0 and doc["certificate"]
    assert len(err.strip().splitlines()) == 1
    assert "ran 2 of 2 Newton steps" in err
    assert f"gap {doc['gap']:.3e}" in err


@pytest.mark.parametrize("n_max", [12, 16, 32, 64, 256])
def test_stalled_c_converges_under_default_cap(n_max):
    c = sequence_from_triples(STALLED_C)
    res = xnorm(c, n_max)
    assert res.converged and res.iterations < XNormConfig.max_iter
    assert res.primal_dual_gap <= 1e-6
    cert = assemble(res.certificate, n_max).entries
    assert np.linalg.svd(cert, compute_uv=False)[0] <= 1.0
    pairing = abs(bilinear_pair(res.certificate, c))
    assert pairing == pytest.approx(res.value - res.primal_dual_gap, abs=1e-12)


def test_essnorm_unconverged_exits_3(capsys, tmp_path, monkeypatch):
    def uncertified(*args, **kwargs):
        res = best_convex_approx(*args, **kwargs)
        res.converged = False
        return res

    monkeypatch.setattr("helson.cli.best_convex_approx", uncertified)
    out_path = tmp_path / "ess.json"
    code, out, err = run(capsys, "essnorm", "delta:1", "--grid", "0.5,0.9",
                         "--N", "4", "--output", str(out_path))
    assert code == 3
    assert out == ""
    doc = json.loads(out_path.read_text())
    assert doc["weights"]["4"]["converged"] is False
    assert "N=4" in err


def test_essnorm_uncertified_diagnostic_keeps_the_payload(capsys, monkeypatch):
    # an unreachable --norm-tol flags the rows and the weights; the whole
    # payload is still written, and the exit code is 3
    monkeypatch.setattr("helson.spectral.NORM_MAX_ITER", 5)
    code, out, err = run(capsys, "essnorm", "mhilbert", "--grid", "0.5,0.9",
                         "--N", "8", "--norm-tol", "1e-17")
    assert code == 3
    doc = json.loads(out)
    assert doc["rows_converged"] is False
    assert [row[:2] for row in doc["rows"]] == [[0.5, 8], [0.9, 8]]
    assert all(row[2] > 0 for row in doc["rows"])
    assert doc["weights"]["8"]["converged"] is False
    assert "diagnostic" in err and "N=8" in err
    # csv to stdout has no manifest, and still prints the table
    code, out, err = run(capsys, "essnorm", "mhilbert", "--grid", "0.5,0.9",
                         "--N", "8", "--norm-tol", "1e-17", "--format", "csv")
    assert code == 3
    assert out.splitlines()[1] == "r,N,value" and len(out.splitlines()) == 4
    assert out.splitlines()[0].endswith(" rows_converged=false")
    assert "diagnostic" in err


def test_essnorm_unreachable_tol_stops_on_the_stalled_residual(capsys):
    # below rounding level the residual stalls; every norm gives up on
    # that, long before the iteration cap
    start = time.perf_counter()
    code, out, err = run(capsys, "essnorm", "mhilbert", "--grid", "0.5,0.9",
                         "--N", "8", "--norm-tol", "1e-17")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert json.loads(out)["rows_converged"] is False
    assert "diagnostic" in err


# ------------------------------------------------------------------- duality


def test_duality_inequality(capsys):
    code, out, _ = run(capsys, "duality", "power:1", "delta:1", "--N", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["ratio"] <= 1 + 1e-6
    assert doc["bound"] >= doc["pairing"] - 1e-9


def test_duality_equality(capsys):
    code, out, _ = run(capsys, "duality", "delta:1", "delta:1", "--N", "2")
    assert code == 0
    assert json.loads(out)["ratio"] == pytest.approx(1.0, abs=1e-6)


def test_duality_on_a_budget_window_past_the_sieve(capsys, tmp_path):
    # the 48 3-smooth indices up to 2048 have products up to 2048^2, past
    # the sieve's range; assembly and xnorm both take the window
    path = tmp_path / "c.json"
    save_sequence(Sequence({1: 1.0, 2: 0.5, 4: 0.25j, 8: -0.5}), path)
    code, out, _ = run(capsys, "duality", "mhilbert", f"file:{path}",
                       "--N", "2048", "--primes", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] and 0 < doc["ratio"] <= 1 + 1e-6


def test_duality_says_how_far_its_xnorm_got(capsys, tmp_path):
    big = tmp_path / "big.json"
    big.write_text(json.dumps([[1, 1e200, 0.0]]))
    # the first Newton decrement overflows: no step is taken
    code, out, err = run(capsys, "duality", "mhilbert", f"file:{big}", "--N", "2")
    assert code == 3
    assert json.loads(out)["iterations"] == 0
    assert f"ran 0 of {XNormConfig.max_iter} Newton steps" in err
    path = tmp_path / "c.json"
    save_sequence(Sequence({1: -0.7, 2: 0.4, 3: 0.9, 4: -1.3, 6: 1.3}), path)
    code, out, err = run(capsys, "duality", "power:1", f"file:{path}", "--N", "8",
                         "--max-iter", "5")
    assert code == 3
    assert json.loads(out)["iterations"] == 5
    assert err == ("convergence failure: xnorm inside the duality bound did not "
                   "converge: ran 5 of 5 Newton steps\n")
    code, out, _ = run(capsys, "duality", "power:1", f"file:{path}", "--N", "8")
    assert code == 0
    assert json.loads(out)["iterations"] == xnorm(load_sequence(path), 8).iterations


# ------------------------------------------------------------- plumbing


def test_duality_unconverged_exits_3(capsys, tmp_path):
    path = tmp_path / "c.json"
    save_sequence(Sequence({1: -0.7, 2: 0.4, 3: 0.9, 4: -1.3, 6: 1.3}), path)
    out_path = tmp_path / "duality.json"
    # the solve converges in 16 Newton steps; a cap of 10 leaves it open
    code, out, err = run(capsys, "duality", "power:1", f"file:{path}", "--N", "8",
                         "--max-iter", "10", "--output", str(out_path))
    assert code == 3
    assert out == ""
    doc = json.loads(out_path.read_text())
    assert doc["converged"] is False
    assert doc["ratio"] > 0
    assert "did not converge" in err
    code, out, _ = run(capsys, "duality", "power:1", "delta:1", "--N", "4")
    assert code == 0
    assert json.loads(out)["converged"] is True


def test_determinism_byte_identical(tmp_path, capsys):
    p1 = tmp_path / "r1.json"
    p2 = tmp_path / "r2.json"
    argv = ["norm", "power:1", "--N", "16", "--output"]
    assert main(argv + [str(p1)]) == 0
    assert main(argv + [str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


# per command but factor, which writes no file: a run that succeeds and,
# where the command can fail to converge, one that exits 3
WRITE_PATH_RUNS = [
    (0, ("convolve", "delta:2", "delta:3")),
    (0, ("dilate", "0.5", "delta:3")),
    (0, ("norm", "mhilbert", "--N", "8")),
    (3, ("norm", "mhilbert", "--N", "16", "--norm-tol", "1e-30")),
    (0, ("essnorm", "delta:2", "--grid", "0.5,0.9", "--N", "2,4")),
    (3, ("essnorm", "mhilbert", "--grid", "0.5,0.9", "--N", "8", "--norm-tol", "1e-17")),
    (0, ("xnorm", "delta:1", "--N", "2")),
    (3, ("xnorm", "delta:6", "--N", "8", "--max-iter", "1")),
    (0, ("duality", "power:1", "delta:1", "--N", "4")),
    (3, ("duality", "power:1", "delta:6", "--N", "8", "--max-iter", "1")),
]


@pytest.mark.parametrize("code, argv", WRITE_PATH_RUNS)
def test_output_file_holds_the_printed_bytes(capsys, tmp_path, code, argv):
    assert {a[0] for _, a in WRITE_PATH_RUNS} == set(COMMANDS) - {"factor"}
    printed = run(capsys, *argv)
    path = tmp_path / "out"
    written = run(capsys, *argv, "--output", str(path))
    assert printed[0] == written[0] == code
    assert written[1] == ""
    assert path.read_bytes() == printed[1].encode()
    assert written[2] == printed[2]
    assert bool(printed[2]) == (code == 3)


# per knob (a KeyError for a new row): a command that takes its flag, and a
# value other than the default
KNOB_CASES = {
    "N": (("norm", "delta:1"), "8"),
    "r_grid": (("essnorm", "delta:2", "--N", "2"), "0.5,0.9"),
    "primes": (("norm", "delta:1", "--N", "8"), "2"),
    "norm_tol": (("norm", "delta:1", "--N", "8"), "1e-9"),
    "solver_tol": (("xnorm", "delta:1", "--N", "2"), "1e-7"),
    "max_iter": (("xnorm", "delta:1", "--N", "2"), "300"),
    "format": (("essnorm", "delta:2", "--grid", "0.5,0.9", "--N", "2"), "csv"),
}


def test_config_file_equivalence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for knob in KNOBS:
        argv, value = KNOB_CASES[knob.key]
        assert argv[0] in knob.commands
        cfg.write_text(f"# comment\n{knob.key} = {value}\n")
        code, out_file, _ = run(capsys, *argv, "--config", str(cfg))
        code2, out_flags, _ = run(capsys, *argv, knob.flag, value)
        assert code == code2 == 0, knob.key
        assert out_file == out_flags, knob.key
        _, out_plain, _ = run(capsys, *argv)
        assert out_flags != out_plain, knob.key


def test_config_keys_of_other_commands_are_ignored(tmp_path, capsys):
    # keys a command does not take are neither parsed nor hashed
    _, want, _ = run(capsys, "norm", "delta:1", "--N", "8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N = 8\nmax_iter = 5\nr_grid = 0.5,0.9\nformat = csv\n")
    code, out, _ = run(capsys, "norm", "delta:1", "--config", str(cfg))
    assert code == 0 and out == want
    # an r-grid norm never uses is not validated either
    cfg.write_text("N = 8\nr_grid = 1.5\n")
    code, out, _ = run(capsys, "norm", "delta:1", "--config", str(cfg))
    assert code == 0 and out == want


def test_cli_flags_beat_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N = 4\n")
    code, out, _ = run(capsys, "norm", "delta:1", "--config", str(cfg), "--N", "8")
    assert code == 0
    assert json.loads(out)["N"] == 8


@pytest.mark.parametrize("argv, key", [
    (("norm", "mhilbert", "--N", "4"), "norm_tol"),
    (("xnorm", "delta:1", "--N", "4"), "solver_tol"),
    (("xnorm", "delta:1", "--N", "4"), "max_iter"),
    # best_convex_approx has no step cap left: argparse refuses the flag,
    # the config reader the key
    (("essnorm", "delta:2", "--grid", "0.5,0.9", "--N", "4"), "iterations"),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_explicit_zero_is_rejected(tmp_path, capsys, argv, key, source):
    # a 0 is a value like -1, not a request for the default
    knob = key in {k.key for k in KNOBS}
    if source == "flag":
        extra = ("--" + key.replace("_", "-"), "0")
        if not knob:
            with pytest.raises(SystemExit) as exc:
                main([*argv, *extra])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {extra[0]} 0" in capsys.readouterr().err
            return
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 0\n")
        extra = ("--config", str(cfg))
    code, out, err = run(capsys, *argv, *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert knob or key in err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_bad_format_is_rejected(tmp_path, capsys, source):
    # one check serves the flag and the config file
    argv = ("essnorm", "delta:1", "--grid", "0.5,0.9", "--N", "2")
    if source == "flag":
        extra = ("--format", "xml")
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = xml\n")
        extra = ("--config", str(cfg))
    code, out, err = run(capsys, *argv, *extra)
    assert code == 2
    assert out == ""
    assert "json or csv" in err


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frobnicate = 1\n")
    code, _, err = run(capsys, "norm", "delta:1", "--config", str(cfg))
    assert code == 2
    assert "frobnicate" in err


@pytest.mark.parametrize("argv", [
    ("norm", "mhilbert", "--N", "4", "--config", "{missing}/run.cfg"),
    ("norm", "mhilbert", "--N", "4", "--output", "{missing}/out.json"),
    ("xnorm", "delta:1", "--N", "2", "--matrix-out", "{missing}/x.csv"),
    ("essnorm", "delta:1", "--grid", "0.5", "--N", "4", "--format", "csv",
     "--output", "{missing}/ess.csv"),
    # an unconverged result whose output cannot be written
    ("xnorm", "delta:6", "--N", "8", "--max-iter", "1", "--output", "{missing}/x.json"),
])
def test_file_errors_exit_2(capsys, tmp_path, argv):
    missing = tmp_path / "missing"
    code, out, err = run(capsys, *(a.format(missing=missing) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(missing) in err


@pytest.mark.parametrize("argv, config, message", [
    (("norm", "mhilbert", "--N", "4x"), None, "bad integer list"),
    (("norm", "mhilbert", "--N", ","), None, "integer list must be nonempty"),
    (("norm", "mhilbert", "--N", "4,8"), None, "norm takes a single --N"),
    (("norm", "mhilbert", "--N", "4"), "N 4\n", "expected key=value"),
    (("xnorm", "delta:1", "--N", "4"), "max_iter = many\n", "bad value for max_iter"),
])
def test_bad_input_exits_2(capsys, tmp_path, argv, config, message):
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv += ("--config", str(cfg))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_undecodable_config_exits_2(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"N=4\n\xc2\x00\n")
    code, out, err = run(capsys, "norm", "mhilbert", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("tol", ["inf", "nan", "0"])
def test_xnorm_tolerance_must_be_positive_and_finite(capsys, tol):
    # --solver-tol inf once printed "converged": true after one step
    code, out, err = run(capsys, "xnorm", "delta:6", "--N", "8", "--solver-tol", tol)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_sieve_limit_has_no_flag_or_config_key(tmp_path, capsys):
    # the sieve range is a library constant: no flag or config key sets
    # it, and a refused one leaves it as it was
    before = sieve_limit()
    with pytest.raises(SystemExit) as exc:
        main(["norm", "delta:1", "--N", "4", "--sieve-limit", "100"])
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sieve_limit = 100\n")
    code, out, err = run(capsys, "norm", "delta:1", "--N", "4", "--config", str(cfg))
    assert code == 2 and out == ""
    assert "sieve_limit" in err
    assert sieve_limit() == before


@pytest.mark.parametrize("command", ["xnorm", "duality"])
def test_norm_tol_is_not_an_admm_flag(command):
    # xnorm and duality scale by a proven norm bound, which has no tolerance
    inputs = ["delta:1"] if command == "xnorm" else ["delta:1", "delta:1"]
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs, "--N", "2", "--norm-tol", "1e-9"])
    assert exc.value.code == 2


def _readme_section(heading):
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    return readme.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def _subcommands():
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_readme_lists_every_flag():
    section = _readme_section("CLI")
    taken = set()
    for name, sub in _subcommands().items():
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            for option in action.option_strings:
                assert f"`{option}" in section, f"{name} {option}"
                taken.add(option)
    # and back: no flag or config key that the CLI lacks lingers in the docs
    for option in re.findall(r"`(--[\w-]+)", section):
        assert option in taken, option
    sentence = section.split("--config", 1)[1].split(".", 1)[0]
    keys = re.findall(r"`(\w+)`", sentence.split("the keys", 1)[1])
    assert keys and set(keys) <= {knob.key for knob in KNOBS}, keys


def test_readme_states_the_norm_scale_range():
    # the iterated range of ||A||_F and the weak-start fraction, as
    # spectral derives them from _SAFE
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    power = "2([⁻⁰¹²³⁴⁵⁶⁷⁸⁹]+)"

    def value(exponent):
        return 2.0 ** int(exponent.translate(str.maketrans("⁻⁰¹²³⁴⁵⁶⁷⁸⁹", "-0123456789")))

    ranges = re.findall(rf"`\[{power}, {power}\]`", readme)
    assert [(value(lo), value(hi)) for lo, hi in ranges] == [spectral._FROB]
    weak = re.findall(rf"`{power}‖A‖_F`", readme)
    assert [value(e) for e in weak] == [spectral._WEAK]
    assert spectral._FROB == tuple(b ** 0.25 for b in spectral._SAFE)
    assert spectral._WEAK == spectral._SAFE[0]


def test_readme_states_the_seed7_xnorm_run():
    # README's reduced window sizes and Newton step counts for STALLED_C,
    # the seed-7 c of the benchmark
    readme = " ".join((pathlib.Path(__file__).resolve().parent.parent / "README.md")
                      .read_text().split())
    found = re.findall(r"`P = \{([\d, ]+)\}` shrinks the windows N = ([\d/]+) to "
                       r"([\d/]+) indices, and the solver converges in ([\d/]+) "
                       r"Newton steps", readme)
    assert len(found) == 1, found
    primes, sizes, dims, steps = found[0]
    sizes, dims, steps = ([int(x) for x in group.split("/")]
                          for group in (sizes, dims, steps))
    c = sequence_from_triples(STALLED_C)
    primes = {int(p) for p in primes.split(",")}
    assert primes == {p for n in c.support for p, _ in factor_pairs(n)}
    assert [Window.truncation(n).smooth_over(primes).size for n in sizes] == dims
    runs = [xnorm(c, n) for n in sizes]
    assert [r.iterations for r in runs] == steps
    assert all(r.converged for r in runs)


def _fenced(section, lang):
    return section.split(f"```{lang}\n", 1)[1].split("\n```", 1)[0]


def test_readme_quick_start_runs():
    exec(_fenced(_readme_section("Library quick start"), "python"), {})


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    # one example per command, each one shell line once continuations
    # are joined: bash checks its syntax, the CLI its exit code
    block = _fenced(_readme_section("CLI"), "sh").replace("\\\n", " ")
    lines = [line for line in block.splitlines() if line.startswith("helson ")]
    assert {line.split()[1] for line in lines} == set(_subcommands())
    monkeypatch.chdir(tmp_path)
    for line in lines:
        syntax = subprocess.run(["bash", "-n", "-c", line], capture_output=True, text=True)
        assert syntax.returncode == 0, (line, syntax.stderr)
        assert main(shlex.split(line, comments=True)[1:]) == 0, line


def test_readme_lists_every_fixture():
    # the fixture list is read off FIXTURES everywhere; the docs must keep up
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    subs = _subcommands()
    for _, usage in FIXTURES.values():
        assert f"`{usage}`" in readme, usage
        for name in ("norm", "essnorm", "duality"):
            assert usage in subs[name].format_help(), (name, usage)


def test_prime_budget_flag(capsys):
    code, out, _ = run(capsys, "norm", "delta:1", "--N", "10", "--primes", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["indices"] == [1, 2, 4, 8]


def test_console_script_installed():
    import os
    import pathlib

    import helson

    # the child interpreter imports the same helson as this one, installed or not
    env = dict(os.environ)
    home = str(pathlib.Path(helson.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (home, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "helson.cli", "factor", "12"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "12 = 2^2 · 3, kappa=(2,1)"


def test_version_matches_pyproject():
    import pathlib
    import re

    import helson

    text = (pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    try:
        import tomllib
    except ImportError:  # Python 3.10: read the [project] version line
        version = re.search(r'^version\s*=\s*"([^"]+)"', text, re.M).group(1)
    else:
        version = tomllib.loads(text)["project"]["version"]
    assert version == helson.__version__
