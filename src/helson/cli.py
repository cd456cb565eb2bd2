"""Batch front end: every library capability behind one executable.

Commands: factor, convolve, dilate, norm, essnorm, xnorm, duality.
Outputs are machine-readable (JSON, or CSV tables for essnorm), versioned
with "schema": 1, and stamped with a hash of the resolved configuration
so reruns with identical configs produce byte-identical files.  Exit
codes: 0 success, 2 input or file error, 3 convergence failure; a result
that did not converge (norm, xnorm, essnorm weights, duality) is still
written in full, marked "converged": false, and an essnorm table with an
uncertified norm is marked "rows_converged": false.  essnorm --format csv
without --output prints only the diagnostic table and computes no
weights, so its exit code follows the diagnostic alone.  An essnorm CSV
whose table is uncertified ends its stamp line with rows_converged=false.

The library returns data and this module renders it: _payload is the
one JSON writer and _csv the one CSV writer, each opening with the
schema and config_hash stamp.

Every command is one row of COMMANDS: its help, its positionals and its
handler.  A handler takes the resolved config and the parsed arguments
and returns its text with None or a one-line convergence failure,
writing only its side files (the essnorm manifest, --matrix-out).  main
resolves the config once, stamping the positionals into config_hash,
and writes the text to stdout or --output before it exits 3 on a
failure.

Every knob is one row of KNOBS: its config-file key, flag, type, library
default and the commands that take the flag.  Flags may also be preloaded
from a config file of key=value lines via --config; an explicit flag
beats the file, and the file beats the default.  The sieve's index
range is a library constant, so no flag, key or variable sets it; it
bounds only what is factored, and a window of --N has at most 1024 rows.
"""

import argparse
import hashlib
import json
import re
import sys
from typing import NamedTuple

from .errors import DomainError
from . import sieve
from .core import (
    dilate,
    dirichlet_convolve,
    filter_smooth,
    sequence_to_triples,
)
from .operator import assemble
from .spectral import NORM_TOL, operator_norm
from .approx import _grid, best_convex_approx, compactness_diagnostic
from .weakprod import XNormConfig, duality_gap, xnorm
from .fixtures import fixture_usages, parse_fixture, parse_sequence_arg
from . import __version__

SCHEMA = 1


class Knob(NamedTuple):
    """One CLI knob, declared once."""

    key: str  # config-file key
    flag: str
    dest: str  # attribute on the resolved config, and its config_hash key
    type: type  # cast for the flag and for the config-file value
    default: object
    commands: tuple  # subcommands that take the flag
    help: str


_SEQUENCES = ("convolve", "dilate", "norm", "essnorm", "xnorm", "duality")
_WINDOWS = ("norm", "essnorm", "xnorm", "duality")
_XNORM = ("xnorm", "duality")

KNOBS = (
    Knob("N", "--N", "N", str, None, _WINDOWS,
         "truncation size (comma list allowed for essnorm)"),
    Knob("r_grid", "--grid", "r_grid", str, None, ("essnorm",),
         'r-grid: "0.9,0.99,0.999" or "geometric(0.9,0.1,3)"'),
    Knob("primes", "--primes", "prime_budget", int, None, _SEQUENCES,
         "prime budget d: restrict indices to d-smooth integers"),
    Knob("norm_tol", "--norm-tol", "norm_tol", float, NORM_TOL, ("norm", "essnorm"),
         "relative residual that certifies an operator norm"),
    Knob("solver_tol", "--solver-tol", "solver_tol", float, XNormConfig.tol, _XNORM,
         "xnorm stop: absolute width of the certified bracket"),
    Knob("max_iter", "--max-iter", "max_iter", int, XNormConfig.max_iter, _XNORM,
         "xnorm Newton step cap"),
    Knob("format", "--format", "format", str, "json", ("essnorm",),
         "output format, json or csv"),
)


def parse_r_grid(text):
    """Comma list "0.9,0.99" or "geometric(r0, ratio, K)".

    The geometric form walks r toward 1: r_k = 1 - (1 - r0) * ratio^k
    for k = 0..K-1.  The grid is checked by the library's own rule:
    nonempty, strictly increasing, inside (0, 1).
    """
    text = str(text).strip()
    match = re.fullmatch(
        r"geometric\(\s*([^,\s]+)\s*,\s*([^,\s]+)\s*,\s*(\d+)\s*\)", text
    )
    try:
        if match:
            r0, ratio = float(match[1]), float(match[2])
            values = [1.0 - (1.0 - r0) * ratio**k for k in range(int(match[3]))]
        else:
            values = [float(p) for p in text.split(",") if p.strip()]
    except (ValueError, OverflowError):
        raise DomainError(f"bad r-grid {text!r}")
    return _grid(values)


def _parse_int_list(text):
    try:
        values = tuple(int(p) for p in str(text).split(",") if p.strip())
    except ValueError:
        raise DomainError(f"bad integer list {text!r}")
    if not values:
        raise DomainError("integer list must be nonempty")
    return values


def read_config_file(path):
    """key=value lines; blank lines and # comments ignored."""
    mapping = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise DomainError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            mapping[key.strip()] = value.strip()
    return mapping


def _resolve(args, inputs):
    """The run's knobs: an explicit flag beats the config file beats the default.

    One config file can serve every command: a known key whose flag this
    command does not take is skipped unparsed, so its knob keeps the
    default.  An unknown key is an error.
    """
    from_file = {}
    config = getattr(args, "config", None)  # factor takes no flags
    if config:
        by_key = {knob.key: knob for knob in KNOBS}
        for key, raw in read_config_file(config).items():
            if key not in by_key:
                raise DomainError(f"unknown config key {key!r} in {config}")
            knob = by_key[key]
            if args.command in knob.commands and getattr(args, knob.dest) is None:
                try:
                    from_file[knob.dest] = knob.type(raw)
                except ValueError:
                    raise DomainError(f"bad value for {key} in {config}: {raw!r}")
    cfg = argparse.Namespace(command=args.command, inputs=tuple(inputs))
    for knob in KNOBS:
        # an explicit 0 is a value, not a request for the default
        value = getattr(args, knob.dest, None)
        setattr(cfg, knob.dest,
                from_file.get(knob.dest, knob.default) if value is None else value)

    cfg.N_schedule = None
    if cfg.N is not None:
        schedule = _parse_int_list(cfg.N)
        if len(schedule) > 1:
            if cfg.command != "essnorm":
                raise DomainError(f"{cfg.command} takes a single --N, got {cfg.N!r}")
            cfg.N_schedule = schedule
        cfg.N = schedule[0]
    elif cfg.command in _WINDOWS:
        raise DomainError(f"{cfg.command} needs --N")
    if cfg.r_grid is not None:
        cfg.r_grid = parse_r_grid(cfg.r_grid)
    # the one check of the CLI's own: N, d and the tolerances are the library's
    if cfg.format not in ("json", "csv"):
        raise DomainError(f"format must be json or csv, got {cfg.format!r}")

    stamped = {knob.dest: getattr(cfg, knob.dest) for knob in KNOBS}
    stamped.update(command=cfg.command, N_schedule=cfg.N_schedule,
                   inputs=cfg.inputs, sieve_limit=sieve.sieve_limit(),
                   version=__version__)
    blob = json.dumps(stamped, sort_keys=True, default=str)
    cfg.config_hash = hashlib.sha256(blob.encode()).hexdigest()[:16]
    return cfg


def _payload(cfg, **fields):
    """The one JSON writer: the schema stamp, then the fields in order."""
    doc = {"schema": SCHEMA, "config_hash": cfg.config_hash, "command": cfg.command}
    return json.dumps({**doc, **fields}, indent=2) + "\n"


def _csv(cfg, header, rows, converged=True):
    """The one CSV writer: a stamp line, the header, then each cell by its repr.

    The stamp line of an uncertified table ends with rows_converged=false.
    """
    mark = "" if converged else " rows_converged=false"
    lines = [f"# schema={SCHEMA} config_hash={cfg.config_hash}{mark}", ",".join(header)]
    lines += [",".join(repr(cell) for cell in row) for row in rows]
    return "\n".join(lines) + "\n"


def _load_seq(spec, prime_budget):
    seq = parse_sequence_arg(spec)
    return filter_smooth(seq, prime_budget)


def cmd_factor(cfg, args):
    n = args.n
    pairs = sieve.factor_pairs(n)
    if pairs:
        prod = " · ".join(
            str(p) if e == 1 else f"{p}^{e}" for p, e in pairs
        )
    else:
        prod = "1"
    kappa = ",".join(str(e) for e in sieve.factorize(n))
    return f"{n} = {prod}, kappa=({kappa})\n", None


def cmd_convolve(cfg, args):
    a = _load_seq(args.a, cfg.prime_budget)
    b = _load_seq(args.b, cfg.prime_budget)
    result = dirichlet_convolve(a, b)
    return _payload(cfg, sequence=sequence_to_triples(result)), None


def cmd_dilate(cfg, args):
    a = _load_seq(args.a, cfg.prime_budget)
    result = dilate(args.r, a)
    return _payload(cfg, r=args.r, sequence=sequence_to_triples(result)), None


def cmd_norm(cfg, args):
    symbol = parse_fixture(args.fixture)
    matrix = assemble(symbol, cfg.N, cfg.prime_budget)
    report = operator_norm(matrix, tol=cfg.norm_tol)
    text = _payload(cfg, fixture=symbol.spec, N=cfg.N, prime_budget=cfg.prime_budget,
                    indices=matrix.indices, norm=report.norm,
                    residual=report.residual, iterations=report.iterations,
                    converged=report.converged)
    return text, None if report.converged else (
        f"operator norm did not certify: residual {report.residual:.3e} "
        f"after {report.iterations} iterations")


def cmd_essnorm(cfg, args):
    if cfg.r_grid is None:
        raise DomainError("essnorm needs --grid")
    symbol = parse_fixture(args.fixture)
    schedule = cfg.N_schedule or (cfg.N,)
    table = compactness_diagnostic(
        symbol, cfg.r_grid, schedule, cfg.prime_budget, tol=cfg.norm_tol
    )
    csv_text = _csv(cfg, ("r", "N", "value"), table.rows, table.converged)
    failed = [] if table.converged else ["compactness diagnostic not certified"]
    if cfg.format == "csv" and not args.output:
        # no manifest to write, so the weights would reach no output
        return csv_text, "; ".join(failed) or None
    weights = {}
    for n_max in schedule:
        res = best_convex_approx(
            symbol, cfg.r_grid, n_max, cfg.prime_budget, tol=cfg.norm_tol
        )
        weights[str(n_max)] = {
            "value": res.value,
            "lower": res.lower,
            "weights": res.weights.weights,
            "converged": res.converged,
        }
    manifest = _payload(
        cfg, fixture=symbol.spec, grid=cfg.r_grid, N_schedule=schedule,
        prime_budget=cfg.prime_budget, norm_tol=cfg.norm_tol,
        determinism="seed-free: largest-r vertex, then uniform point, Frank-Wolfe "
                    "vertex, golden-section sweeps while the bracket is open; "
                    "norm starts from the top Gram eigenvector up to 32 rows, "
                    "all-ones above",
        rows=table.rows, rows_converged=table.converged, weights=weights)
    unconverged = [n for n, w in weights.items() if not w["converged"]]
    if unconverged:
        failed.append(f"best convex approximant not certified at N={','.join(unconverged)}")
    if cfg.format == "json":
        return manifest, "; ".join(failed) or None
    with open(str(args.output) + ".manifest.json", "w") as fh:
        fh.write(manifest)
    return csv_text, "; ".join(failed) or None


def cmd_xnorm(cfg, args):
    c = _load_seq(args.sequence, cfg.prime_budget)
    solver = XNormConfig(tol=cfg.solver_tol, max_iter=cfg.max_iter)
    result = xnorm(c, cfg.N, config=solver, prime_budget=cfg.prime_budget)
    if args.matrix_out:
        header = [f"re{j},im{j}" for j in range(len(result.matrix))]
        cells = ([part for z in row for part in (z.real, z.imag)]
                 for row in result.matrix.tolist())
        with open(args.matrix_out, "w") as fh:
            fh.write(_csv(cfg, header, cells))
    text = _payload(cfg, input=args.sequence, N=cfg.N, prime_budget=cfg.prime_budget,
                    value=result.value, gap=result.primal_dual_gap,
                    iterations=result.iterations, converged=result.converged,
                    certificate=sequence_to_triples(result.certificate))
    return text, None if result.converged else (
        f"xnorm did not converge: gap {result.primal_dual_gap:.3e}, "
        f"ran {result.iterations} of {cfg.max_iter} Newton steps")


def cmd_duality(cfg, args):
    symbol = parse_fixture(args.fixture)
    c = _load_seq(args.sequence, cfg.prime_budget)
    solver = XNormConfig(tol=cfg.solver_tol, max_iter=cfg.max_iter)
    report = duality_gap(symbol, c, cfg.N, config=solver,
                         prime_budget=cfg.prime_budget)
    text = _payload(cfg, fixture=symbol.spec, input=args.sequence, N=cfg.N,
                    prime_budget=cfg.prime_budget, pairing=report.pairing,
                    bound=report.bound, ratio=report.ratio,
                    iterations=report.iterations, converged=report.converged)
    return text, None if report.converged else (
        f"xnorm inside the duality bound did not converge: "
        f"ran {report.iterations} of {cfg.max_iter} Newton steps")


class Command(NamedTuple):
    """One CLI command, declared once."""

    help: str
    positionals: tuple  # (name, type, help) in argument order
    handler: object  # (cfg, args) -> (text, None or a convergence failure)
    paths: tuple = ()  # (flag, help) of side files it also writes


_SEQUENCE = "finite sequence: " + " or ".join(fixture_usages(finite=True))
_FIXTURE = "symbol: " + " | ".join(fixture_usages())

COMMANDS = {
    "factor": Command("prime factorization and exponent tuple",
                      (("n", int, None),), cmd_factor),
    "convolve": Command("Dirichlet convolution of two sequences",
                        (("a", str, _SEQUENCE), ("b", str, _SEQUENCE)), cmd_convolve),
    "dilate": Command("apply the dilation weights r^omega(n)",
                      (("r", float, None), ("a", str, _SEQUENCE)), cmd_dilate),
    "norm": Command("certified operator norm of M_N(alpha)",
                    (("fixture", str, _FIXTURE),), cmd_norm),
    "essnorm": Command("compactness diagnostic and best convex approximant",
                       (("fixture", str, _FIXTURE),), cmd_essnorm),
    "xnorm": Command("weak-product norm with dual certificate",
                     (("sequence", str, _SEQUENCE),), cmd_xnorm,
                     (("--matrix-out", "also export the optimal window matrix as CSV"),)),
    "duality": Command("pairing against the norm product bound",
                       (("fixture", str, _FIXTURE), ("sequence", str, _SEQUENCE)),
                       cmd_duality),
}


class _HelpFormatter(argparse.HelpFormatter):
    # wraps help at spaces only, so no fixture usage splits at its hyphen
    def _split_lines(self, text, width):
        import textwrap  # only -h wraps help, so a run does not import it

        return textwrap.wrap(" ".join(text.split()), width, break_on_hyphens=False)


def build_parser():
    """One subparser per COMMANDS row; a command no knob serves takes no flags."""
    parser = argparse.ArgumentParser(
        prog="helson",
        description="Truncated multiplicative Hankel operators: norms, "
                    "compact approximants, weak-product norms.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sub = subs.add_parser(name, help=command.help, formatter_class=_HelpFormatter)
        for arg, kind, text in command.positionals:
            sub.add_argument(arg, type=kind, help=text)
        knobs = [knob for knob in KNOBS if name in knob.commands]
        if knobs:
            sub.add_argument("--config", default=None, metavar="FILE",
                             help="key=value file supplying defaults for these flags")
            sub.add_argument("--output", default=None, metavar="PATH",
                             help="write output here instead of stdout")
        for knob in knobs:
            default = "" if knob.default is None else f" (default {knob.default})"
            sub.add_argument(knob.flag, dest=knob.dest, type=knob.type, default=None,
                             help=knob.help + default)
        for flag, text in command.paths:
            sub.add_argument(flag, default=None, metavar="PATH", help=text)
    return parser


def main(argv=None):
    """Resolve the config, run the handler, write its text; return the exit code."""
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    # config_hash stamps the positionals as given, a float by its repr
    inputs = tuple(repr(getattr(args, arg)) if kind is float else getattr(args, arg)
                   for arg, kind, _ in command.positionals)
    try:
        text, failure = command.handler(_resolve(args, inputs), args)
        output = getattr(args, "output", None)
        if output:
            with open(output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (DomainError, OSError, UnicodeDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if failure:
        print(f"convergence failure: {failure}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
