import argparse
import json
import math
import re
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
    save_sequence,
    sequence_from_triples,
    sieve_limit,
    xnorm,
)
from helson.cli import KNOBS, build_parser, main, parse_r_grid


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


def test_norm_unreachable_tolerance(capsys):
    code, _, err = run(capsys, "norm", "mhilbert", "--N", "16", "--norm-tol", "1e-30")
    assert code == 3
    assert "convergence" in err.lower()


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


# ------------------------------------------------------------- plumbing


def test_duality_unconverged_exits_3(capsys, tmp_path):
    path = tmp_path / "c.json"
    save_sequence(Sequence({1: -0.7, 2: 0.4, 3: 0.9, 4: -1.3, 6: 1.3}), path)
    out_path = tmp_path / "duality.json"
    # the solve converges in 20 Newton steps; a cap of 10 leaves it open
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


def test_readme_lists_every_flag():
    import pathlib

    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    taken = set()
    for name, sub in subs.choices.items():
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
