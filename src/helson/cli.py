"""Batch front end: every library capability behind one executable.

Commands: factor, convolve, dilate, norm, essnorm, xnorm, duality.
Outputs are machine-readable (JSON, or CSV tables for essnorm), versioned
with "schema": 1, and stamped with a hash of the resolved configuration
so reruns with identical configs produce byte-identical files.  Exit
codes: 0 success, 2 domain/parse error, 3 convergence failure; a result
that did not converge (xnorm, essnorm weights, duality) is still written
in full, marked "converged": false.

Flags may also be preloaded from a config file of key=value lines via
--config; explicit flags win over the file, the file wins over defaults.
The environment variable HELSON_SIEVE_LIMIT overrides the sieve cap.
"""

import argparse
import hashlib
import json
import re
import sys
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, HelsonError
from . import sieve
from .core import (
    Sequence,
    dilate,
    dirichlet_convolve,
    factorize,
    filter_smooth,
    sequence_to_triples,
)
from .operator import assemble
from .spectral import operator_norm
from .approx import ApproxConfig, best_convex_approx, compactness_diagnostic
from .weakprod import XNormConfig, duality_gap, xnorm
from .fixtures import parse_fixture, parse_sequence_arg
from . import __version__

SCHEMA = 1


class _Unconverged(Exception):
    """Raised with (payload, message) by a run whose result did not converge."""


@dataclass
class RunConfig:
    """Resolved knobs for one command invocation."""

    command: str
    n_max: int = None
    n_schedule: tuple = None
    r_grid: tuple = None
    prime_budget: int = None
    norm_tol: float = 1e-10
    solver_tol: float = 1e-8
    iterations: int = 2000
    max_iter: int = 20000
    fmt: str = "json"
    inputs: tuple = ()

    def hashable(self):
        return {
            "command": self.command,
            "N": self.n_max,
            "N_schedule": self.n_schedule,
            "r_grid": self.r_grid,
            "prime_budget": self.prime_budget,
            "norm_tol": self.norm_tol,
            "solver_tol": self.solver_tol,
            "iterations": self.iterations,
            "max_iter": self.max_iter,
            "format": self.fmt,
            "inputs": self.inputs,
            "sieve_limit": sieve.sieve_limit(),
            "version": __version__,
        }

    def digest(self):
        blob = json.dumps(self.hashable(), sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def parse_r_grid(text):
    """Comma list "0.9,0.99" or "geometric(r0, ratio, K)".

    The geometric form walks r toward 1: r_k = 1 - (1 - r0) * ratio^k
    for k = 0..K-1.
    """
    text = str(text).strip()
    match = re.fullmatch(
        r"geometric\(\s*([^,\s]+)\s*,\s*([^,\s]+)\s*,\s*(\d+)\s*\)", text
    )
    if match:
        r0, ratio, count = float(match[1]), float(match[2]), int(match[3])
        if not (0.0 < r0 < 1.0) or not (0.0 < ratio < 1.0) or count < 1:
            raise DomainError(
                f"geometric grid needs 0 < r0, ratio < 1 and K >= 1, got {text!r}"
            )
        return tuple(1.0 - (1.0 - r0) * ratio**k for k in range(count))
    try:
        grid = tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise DomainError(f"bad r-grid {text!r}")
    if not grid:
        raise DomainError("r-grid must be nonempty")
    if any(not (0.0 < r < 1.0) for r in grid):
        raise DomainError(f"r-grid values must lie strictly in (0,1), got {text!r}")
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise DomainError(f"r-grid must be strictly increasing, got {text!r}")
    return grid


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
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise DomainError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            mapping[key.strip()] = value.strip()
    return mapping


_CONFIG_KEYS = {
    "N": ("n_max", str),
    "r_grid": ("grid", str),
    "primes": ("primes", int),
    "norm_tol": ("norm_tol", float),
    "solver_tol": ("solver_tol", float),
    "iterations": ("iterations", int),
    "max_iter": ("max_iter", int),
    "format": ("fmt", str),
    "sieve_limit": ("sieve_limit", int),
}


def _fill_from_config(args):
    if not getattr(args, "config", None):
        return
    mapping = read_config_file(args.config)
    for key, raw in mapping.items():
        if key not in _CONFIG_KEYS:
            raise DomainError(f"unknown config key {key!r} in {args.config}")
        attr, cast = _CONFIG_KEYS[key]
        if getattr(args, attr, None) is None:
            try:
                setattr(args, attr, cast(raw))
            except ValueError:
                raise DomainError(f"bad value for {key} in {args.config}: {raw!r}")


def _emit(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_doc(payload):
    return json.dumps(payload, indent=2) + "\n"


def _load_seq(spec, prime_budget):
    seq = parse_sequence_arg(spec)
    return filter_smooth(seq, prime_budget)


def cmd_factor(args):
    n = args.n
    pairs = sieve.factor_pairs(n)
    if pairs:
        prod = " · ".join(
            str(p) if e == 1 else f"{p}^{e}" for p, e in pairs
        )
    else:
        prod = "1"
    kappa = ",".join(str(e) for e in factorize(n).exponents)
    return f"{n} = {prod}, kappa=({kappa})\n"


def cmd_convolve(args):
    cfg = _resolve(args, "convolve", inputs=(args.a, args.b))
    a = _load_seq(args.a, cfg.prime_budget)
    b = _load_seq(args.b, cfg.prime_budget)
    result = dirichlet_convolve(a, b)
    return _json_doc({
        "schema": SCHEMA,
        "config_hash": cfg.digest(),
        "command": "convolve",
        "sequence": sequence_to_triples(result),
    })


def cmd_dilate(args):
    cfg = _resolve(args, "dilate", inputs=(repr(args.r), args.a))
    a = _load_seq(args.a, cfg.prime_budget)
    result = dilate(args.r, a)
    return _json_doc({
        "schema": SCHEMA,
        "config_hash": cfg.digest(),
        "command": "dilate",
        "r": args.r,
        "sequence": sequence_to_triples(result),
    })


def cmd_norm(args):
    cfg = _resolve(args, "norm", inputs=(args.fixture,))
    symbol = parse_fixture(args.fixture)
    matrix = assemble(symbol, cfg.n_max, cfg.prime_budget)
    report = operator_norm(matrix, tol=cfg.norm_tol)
    return _json_doc({
        "schema": SCHEMA,
        "config_hash": cfg.digest(),
        "command": "norm",
        "fixture": symbol.spec,
        "N": cfg.n_max,
        "prime_budget": cfg.prime_budget,
        "indices": list(matrix.indices),
        "norm": report.norm,
        "residual": report.residual,
        "iterations": report.iterations,
    })


def cmd_essnorm(args):
    cfg = _resolve(args, "essnorm", inputs=(args.fixture,))
    if cfg.r_grid is None:
        raise DomainError("essnorm needs --grid")
    symbol = parse_fixture(args.fixture)
    schedule = cfg.n_schedule or (cfg.n_max,)
    approx_cfg = ApproxConfig(iterations=cfg.iterations, final_tol=cfg.norm_tol)
    table = compactness_diagnostic(
        symbol, cfg.r_grid, schedule, cfg.prime_budget, tol=cfg.norm_tol
    )
    weights = {}
    for n_max in schedule:
        res = best_convex_approx(
            symbol, cfg.r_grid, n_max, config=approx_cfg,
            prime_budget=cfg.prime_budget,
        )
        weights[str(n_max)] = {
            "value": res.value,
            "weights": list(res.weights.weights),
            "converged": res.converged,
        }
    manifest = {
        "schema": SCHEMA,
        "config_hash": cfg.digest(),
        "command": "essnorm",
        "fixture": symbol.spec,
        "grid": list(cfg.r_grid),
        "N_schedule": list(schedule),
        "prime_budget": cfg.prime_budget,
        "norm_tol": cfg.norm_tol,
        "iterations": cfg.iterations,
        "determinism": "seed-free: uniform start, fixed step schedule",
        "rows": [[r, n, v] for r, n, v in table.rows],
        "weights": weights,
    }
    if cfg.fmt == "csv":
        header = f"# schema={SCHEMA} config_hash={cfg.digest()}\n"
        text = header + table.to_csv()
        if args.output:
            with open(str(args.output) + ".manifest.json", "w") as fh:
                fh.write(_json_doc(manifest))
    else:
        text = _json_doc(manifest)
    unconverged = [n for n, w in weights.items() if not w["converged"]]
    if unconverged:
        raise _Unconverged(
            text, f"best convex approximant not certified at N={','.join(unconverged)}"
        )
    return text


def cmd_xnorm(args):
    cfg = _resolve(args, "xnorm", inputs=(args.sequence,))
    c = _load_seq(args.sequence, cfg.prime_budget)
    solver = XNormConfig(tol=cfg.solver_tol, max_iter=cfg.max_iter,
                         cert_tol=cfg.norm_tol)
    result = xnorm(c, cfg.n_max, config=solver, prime_budget=cfg.prime_budget)
    if args.matrix_out:
        lines = [f"# schema={SCHEMA} config_hash={cfg.digest()}"]
        for row in result.matrix:
            lines.append(",".join(f"{float(v.real)!r},{float(v.imag)!r}" for v in row))
        with open(args.matrix_out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    doc = {
        "schema": SCHEMA,
        "config_hash": cfg.digest(),
        "command": "xnorm",
        "input": args.sequence,
        "N": cfg.n_max,
        "prime_budget": cfg.prime_budget,
    }
    doc.update(result.to_json())
    text = _json_doc(doc)
    if not result.converged:
        raise _Unconverged(
            text, f"xnorm did not converge: ADMM ran {result.iterations} of "
                  f"{cfg.max_iter} iterations, certificate norm "
                  f"{'certified' if result.certified else 'not certified'} "
                  f"(gap {result.primal_dual_gap:.3e})"
        )
    return text


def cmd_duality(args):
    cfg = _resolve(args, "duality", inputs=(args.fixture, args.sequence))
    symbol = parse_fixture(args.fixture)
    c = _load_seq(args.sequence, cfg.prime_budget)
    solver = XNormConfig(tol=cfg.solver_tol, max_iter=cfg.max_iter,
                         cert_tol=cfg.norm_tol)
    report = duality_gap(symbol, c, cfg.n_max, config=solver,
                         prime_budget=cfg.prime_budget)
    text = _json_doc({
        "schema": SCHEMA,
        "config_hash": cfg.digest(),
        "command": "duality",
        "fixture": symbol.spec,
        "input": args.sequence,
        "N": cfg.n_max,
        "prime_budget": cfg.prime_budget,
        "pairing": report.pairing,
        "bound": report.bound,
        "ratio": report.ratio,
        "converged": report.converged,
    })
    if not report.converged:
        raise _Unconverged(
            text, f"xnorm inside the duality bound did not converge within "
                  f"{cfg.max_iter} iterations"
        )
    return text


def _resolve(args, command, inputs=()):
    _fill_from_config(args)
    if getattr(args, "sieve_limit", None) is not None:
        sieve.set_sieve_limit(args.sieve_limit)
    n_attr = getattr(args, "n_max", None)
    n_schedule = None
    n_max = None
    if n_attr is not None:
        n_schedule = _parse_int_list(n_attr)
        n_max = n_schedule[0]
        if len(n_schedule) == 1:
            n_schedule = None
        elif command != "essnorm":
            raise DomainError(f"{command} takes a single --N, got {n_attr!r}")
    elif command in ("norm", "essnorm", "xnorm", "duality"):
        raise DomainError(f"{command} needs --N")
    grid = getattr(args, "grid", None)

    def given(attr, default):
        # an explicit 0 is a value, not a request for the default
        value = getattr(args, attr, None)
        return default if value is None else value

    cfg = RunConfig(
        command=command,
        n_max=n_max,
        n_schedule=n_schedule,
        r_grid=parse_r_grid(grid) if grid is not None else None,
        prime_budget=getattr(args, "primes", None),
        norm_tol=given("norm_tol", 1e-10),
        solver_tol=given("solver_tol", 1e-8),
        iterations=given("iterations", 2000),
        max_iter=given("max_iter", 20000),
        fmt=given("fmt", "json"),
        inputs=tuple(inputs),
    )
    if cfg.fmt not in ("json", "csv"):
        raise DomainError(f"format must be json or csv, got {cfg.fmt!r}")
    if cfg.n_max is not None and cfg.n_max < 1:
        raise DomainError(f"N must be >= 1, got {cfg.n_max}")
    if cfg.prime_budget is not None and cfg.prime_budget < 1:
        raise DomainError(f"prime budget must be >= 1, got {cfg.prime_budget}")
    if min(cfg.norm_tol, cfg.solver_tol) <= 0:
        raise DomainError("tolerances must be positive")
    return cfg


def _add_common(sub, *, n_flag=True, grid_flag=False, fmt_flag=False):
    sub.add_argument("--primes", type=int, default=None, metavar="D",
                     help="prime budget: restrict indices to D-smooth integers")
    sub.add_argument("--sieve-limit", dest="sieve_limit", type=int, default=None,
                     help="override the factorization sieve cap")
    sub.add_argument("--config", default=None, metavar="FILE",
                     help="key=value file supplying defaults for these flags")
    sub.add_argument("--output", default=None, metavar="PATH",
                     help="write output here instead of stdout")
    if n_flag:
        sub.add_argument("--N", dest="n_max", default=None,
                         help="truncation size (comma list allowed for essnorm)")
    if grid_flag:
        sub.add_argument("--grid", default=None,
                         help='r-grid: "0.9,0.99,0.999" or "geometric(0.9,0.1,3)"')
    if fmt_flag:
        sub.add_argument("--format", dest="fmt", choices=("json", "csv"),
                         default=None, help="output format (default json)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="helson",
        description="Truncated multiplicative Hankel operators: norms, "
                    "compact approximants, weak-product norms.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("factor", help="prime factorization and exponent tuple")
    p.add_argument("n", type=int)
    p.set_defaults(handler=cmd_factor)

    p = subs.add_parser("convolve", help="Dirichlet convolution of two sequences")
    p.add_argument("a", help="finite sequence: file:path or delta:n")
    p.add_argument("b", help="finite sequence: file:path or delta:n")
    _add_common(p, n_flag=False)
    p.set_defaults(handler=cmd_convolve)

    p = subs.add_parser("dilate", help="apply the dilation weights r^omega(n)")
    p.add_argument("r", type=float)
    p.add_argument("a", help="finite sequence: file:path or delta:n")
    _add_common(p, n_flag=False)
    p.set_defaults(handler=cmd_dilate)

    p = subs.add_parser("norm", help="certified operator norm of M_N(alpha)")
    p.add_argument("fixture", help="delta:n | power:s | mhilbert | "
                                   "random-decay:seed,rate | file:path")
    _add_common(p)
    p.add_argument("--norm-tol", dest="norm_tol", type=float, default=None)
    p.set_defaults(handler=cmd_norm)

    p = subs.add_parser("essnorm",
                        help="compactness diagnostic and best convex approximant")
    p.add_argument("fixture")
    _add_common(p, grid_flag=True, fmt_flag=True)
    p.add_argument("--norm-tol", dest="norm_tol", type=float, default=None)
    p.add_argument("--iterations", type=int, default=None,
                   help="subgradient iterations (default 2000)")
    p.set_defaults(handler=cmd_essnorm)

    p = subs.add_parser("xnorm", help="weak-product norm with dual certificate")
    p.add_argument("sequence", help="finite sequence: file:path or delta:n")
    _add_common(p)
    p.add_argument("--norm-tol", dest="norm_tol", type=float, default=None)
    p.add_argument("--solver-tol", dest="solver_tol", type=float, default=None)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    p.add_argument("--matrix-out", default=None, metavar="PATH",
                   help="also export the optimal window matrix as CSV")
    p.set_defaults(handler=cmd_xnorm)

    p = subs.add_parser("duality",
                        help="pairing against the norm product bound")
    p.add_argument("fixture")
    p.add_argument("sequence", help="finite sequence: file:path or delta:n")
    _add_common(p)
    p.add_argument("--norm-tol", dest="norm_tol", type=float, default=None)
    p.add_argument("--solver-tol", dest="solver_tol", type=float, default=None)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    p.set_defaults(handler=cmd_duality)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.handler(args)
        _emit(text, getattr(args, "output", None))
    except DomainError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except _Unconverged as err:
        text, message = err.args
        _emit(text, getattr(args, "output", None))
        print(f"convergence failure: {message}", file=sys.stderr)
        return 3
    except ConvergenceError as err:
        print(f"convergence failure: {err}", file=sys.stderr)
        return 3
    except HelsonError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
