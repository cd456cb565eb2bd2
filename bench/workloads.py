"""The benchmark's workloads: seeded inputs, one pass's op list, the CLI op.

A workload is a closed loop: one caller runs its ops back to back in a
single process.  Ops are seed-free names such as ``norm[mhilbert,N=512]``
so failures and timings line up across seeds.  Every op carries an
independent check (see checks.py) and a cheap summary that later passes
must reproduce.
"""

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

import helson as h

import checks

GRID3 = (0.9, 0.99, 0.999)
DEFAULT_LIMIT = 1 << 20

# op name -> the checks it fails at the parent of this benchmark; these
# failures count in ``failed`` but do not make the run incorrect
KNOWN_DEFECTS = {
    "norm[trap,N=2]": ("norm_vs_svd",),
    "l2check[trap,N=2]": ("norm_vs_svd", "l2_witness"),
    # xnorm scales its certificate by a power-iteration norm that can stop
    # at a smaller singular value (ROADMAP item 1), so ||M_N(beta)|| > 1
    "xnorm[N=8]": ("certificate_norm",),
    "xnorm[N=12]": ("converged", "certificate_norm"),
    "xnorm[N=16]": ("converged", "certificate_norm"),
    "cli[xnorm,N=12]": ("exit_code",),
}


@dataclass
class Op:
    name: str
    run: Callable  # run(ctx) -> output
    check: Callable  # check(output) -> [(check_id, message)]
    summary: Callable  # summary(output) -> tuple that later passes must repeat


@dataclass
class CliOp:
    name: str
    args: list  # helson command-line arguments
    twin: Callable  # twin(ctx) -> the same result computed in-process
    check: Callable  # check(returncode, stdout, twin_output) -> failures


@dataclass
class Workload:
    sieve_limit: int
    inputs: dict  # JSON-ready description of the seeded inputs
    ops: list
    cli: CliOp


class Context:
    """Builds fixtures for ops; a traced run counts their evaluations."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    def fixture(self, spec):
        symbol = h.parse_fixture(spec)
        if self.tracer is not None:
            symbol.value = self.tracer.leaf("fixtures.value", symbol.value)
        return symbol


def reference_values(spec):
    """Vectorized alpha(n) for a fixture spec.

    power and mhilbert use their closed forms.  random-decay values are
    defined by the library's generator, so a fresh instance supplies
    them; its checks therefore cover assembly and norms, not the values.
    """
    name, _, arg = spec.partition(":")
    if name == "power":
        sigma = float(arg)
        return lambda ns: np.asarray(ns, dtype=np.float64) ** -sigma + 0j
    if name == "mhilbert":
        def mhilbert(ns):
            ns = np.asarray(ns, dtype=np.float64)
            out = np.zeros(ns.shape, dtype=np.complex128)
            big = ns > 1
            out[big] = 1.0 / (np.sqrt(ns[big]) * np.log(ns[big]))
            return out
        return mhilbert
    if name == "random-decay":
        seed, rate = arg.split(",")
        fresh = h.RandomDecaySymbol(int(seed), float(rate))
        return lambda ns: np.array([fresh.value(int(n)) for n in np.ravel(ns)],
                                   dtype=np.complex128)
    raise ValueError(f"no reference for fixture {spec!r}")


def norm_chain(label, make_symbol, values_at, n_max, budget=None, sample=None,
               with_l2=True):
    """assemble -> operator_norm [-> l2_lower_bound_check] on one symbol."""
    state = {}

    def run_norm(ctx):
        symbol = make_symbol(ctx)
        matrix = h.assemble(symbol, n_max, budget)
        report = h.operator_norm(matrix)
        state["symbol"] = symbol
        return matrix, report

    def check_norm(out):
        matrix, report = out
        fails = []
        if budget is not None and list(matrix.indices) != checks.smooth_numbers(n_max, budget):
            fails.append(("indices", f"window is not the {budget}-smooth integers <= {n_max}"))
        fails += checks.check_entries(matrix.entries, matrix.indices, values_at, sample)
        state["svd"] = checks.svd_norm(matrix.entries)
        return fails + checks.check_norm(report.norm, state["svd"])

    tag = f"{label},N={n_max}" + (f",d={budget}" if budget is not None else "")
    ops = [Op(f"norm[{tag}]", run_norm, check_norm,
              lambda out: (out[1].norm, out[1].iterations))]
    if with_l2:
        def run_l2(ctx):
            return h.l2_lower_bound_check(state.pop("symbol"), n_max, budget)

        def check_l2(out):
            window = values_at(np.arange(1, n_max + 1))
            return checks.check_l2(out, state["svd"], window)

        ops.append(Op(f"l2check[{tag}]", run_l2, check_l2,
                      lambda out: (out.op_norm, out.l2_norm, out.ok)))
    return ops


def _approx_summary(res):
    return (res.value, res.converged) + tuple(res.weights.weights)


# --------------------------------------------------------------- norm-ladder


def norm_ladder_inputs(seed):
    return {
        "fixtures": ["power:1", "mhilbert", f"random-decay:{seed},0.5"],
        "sizes": [256, 512, 1024],
        "trap": {"triples": [[1, 1.0, 0.0], [2, -0.5, 0.0], [4, 1.0, 0.0]], "N": 2},
        "cli": ["norm", f"random-decay:{seed},0.5", "--N", "512"],
    }


def norm_ladder(seed, workdir):
    inputs = norm_ladder_inputs(seed)
    ops = []
    for spec in inputs["fixtures"]:
        label = spec.split(":")[0]
        values_at = reference_values(spec)
        # a random-decay reference costs as much as assembly: sample it
        sample = 256 if label == "random-decay" else None
        for n_max in inputs["sizes"]:
            ops += norm_chain(label, lambda ctx, spec=spec: ctx.fixture(spec),
                              values_at, n_max, sample=sample)
    trap = h.sequence_from_triples(inputs["trap"]["triples"])
    ops += norm_chain("trap", lambda ctx: trap, checks.sequence_values(trap),
                      inputs["trap"]["N"])

    def check_cli(returncode, stdout, twin):
        payload, fails = checks.parse_cli(returncode, stdout)
        if payload is None:
            return fails or checks.check_exit_contract(returncode, True)
        fails += checks.check_exit_contract(returncode, True)
        return fails + checks.check_match("norm", payload["norm"], twin.norm)

    def twin(ctx):
        return h.operator_norm(h.assemble(ctx.fixture(inputs["cli"][1]), 512))

    cli = CliOp("cli[norm,random-decay,N=512]", inputs["cli"], twin, check_cli)
    return Workload(DEFAULT_LIMIT, inputs, ops, cli)


# -------------------------------------------------------------- xnorm-ladder


XNORM_SUPPORT = (1, 2, 3, 4, 6)
# c is the seed-7 Gaussian draw on XNORM_SUPPORT: at N=8 ADMM converges in
# 9447 iterations, at N=12 and N=16 it stops at the 20000 cap.  Other draws
# converge in 68 to 20000+ iterations, which would make wall_s a property
# of the seed instead of the code.
XNORM_BASE_SEED = 7


def xnorm_ladder_inputs(seed):
    """c twisted by a seeded unimodular completely multiplicative character.

    chi(n) = e^(i theta) prod_p e^(i phi_p kappa_p) changes every input bit
    but not the problem: chi(i) chi(j) = chi(ij) is constant on each
    divisor class, so X -> D X D with D = diag(chi) maps the window program
    for c onto the one for chi * c, ||chi c||_X = ||c||_X, and ADMM runs
    the same iterations up to rounding.
    """
    draws = np.random.default_rng(XNORM_BASE_SEED).standard_normal((len(XNORM_SUPPORT), 2))
    theta, phi2, phi3 = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, 3)
    c = []
    for n, (re, im) in zip(XNORM_SUPPORT, draws):
        k2 = (n & -n).bit_length() - 1
        k3 = 1 if n % 3 == 0 else 0
        v = complex(re, im) * np.exp(1j * (theta + k2 * phi2 + k3 * phi3))
        c.append([n, float(v.real), float(v.imag)])
    return {"c": c, "sizes": [8, 12, 16], "cli": {"N": 12, "max_iter": 1000}}


def xnorm_chain(c, n_max):
    """xnorm -> representation_from_matrix -> Representation.value."""
    indices = tuple(range(1, n_max + 1))
    state = {}

    def run_xnorm(ctx):
        state["result"] = h.xnorm(c, n_max)
        return state["result"]

    def run_rep(ctx):
        result = state.pop("result")
        rep = h.representation_from_matrix(result.matrix, indices)
        return rep.value(), h.rep_cost(rep), result.value

    return [
        Op(f"xnorm[N={n_max}]", run_xnorm,
           lambda res: checks.check_xnorm(res, c, indices),
           lambda res: (res.value, res.iterations, res.converged)),
        Op(f"rep[N={n_max}]", run_rep,
           lambda out: checks.check_representation(out[0], out[1], c, out[2]),
           lambda out: (out[1],)),
    ]


def xnorm_ladder(seed, workdir):
    inputs = xnorm_ladder_inputs(seed)
    c = h.sequence_from_triples(inputs["c"])
    ops = []
    for n_max in inputs["sizes"]:
        ops += xnorm_chain(c, n_max)
    path = workdir / "c.json"
    path.write_text(json.dumps(inputs["c"]) + "\n")
    n_cli, cap = inputs["cli"]["N"], inputs["cli"]["max_iter"]

    def check_cli(returncode, stdout, twin):
        payload, fails = checks.parse_cli(returncode, stdout)
        if payload is None:
            return fails or checks.check_exit_contract(returncode, twin.converged)
        fails += checks.check_exit_contract(returncode, payload["converged"])
        fails += checks.check_match("value", payload["value"], twin.value)
        if (payload["converged"], payload["iterations"]) != (twin.converged, twin.iterations):
            fails.append(("cli_match", "converged/iterations differ from in-process"))
        return fails

    # capped so that nine fresh-process runs fit in one run of the
    # benchmark; 1000 iterations still end unconverged at N=12
    cli = CliOp(f"cli[xnorm,N={n_cli}]",
                ["xnorm", f"file:{path}", "--N", str(n_cli), "--max-iter", str(cap)],
                lambda ctx: h.xnorm(c, n_cli, h.XNormConfig(max_iter=cap)), check_cli)
    return Workload(DEFAULT_LIMIT, inputs, ops, cli)


# ------------------------------------------------------------- approx-smooth


# best_convex_approx on random-decay at N=64 took 3.3 to 16.8 s across six
# seeds (the power-iteration counts follow the singular-value gaps), so the
# fixture seed is fixed and --seed varies only the r of the dilate op,
# whose cost does not depend on r
APPROX_DECAY_SEED = 7


def approx_smooth_inputs(seed):
    r = float(np.random.default_rng(seed).uniform(0.5, 0.95))
    return {
        "sieve_limit": 1 << 22,
        "budgets": [1, 2, 3, 5],
        "budget_N": 2048,
        "fixtures": ["mhilbert", f"random-decay:{APPROX_DECAY_SEED},0.5"],
        "dilate": {"r": r, "N": 128},
        "diagnostic": {"r": [0.5, 0.9, 0.99], "N": [16, 32, 64, 128]},
        "approx_N": 64,
        "hs_r": [0.9, 0.99],
        "cli": ["essnorm", "mhilbert", "--grid", "0.9,0.99,0.999", "--N", "32,64"],
    }


def _approx_op(name, make_symbol, grid, n_max, base_of, omega, budget=None):
    def run(ctx):
        return h.best_convex_approx(make_symbol(ctx), grid, n_max, prime_budget=budget)

    def check(res):
        indices, base = base_of()
        return checks.check_approx(res, base, indices, omega)

    return Op(name, run, check, _approx_summary)


def approx_smooth(seed, workdir):
    inputs = approx_smooth_inputs(seed)
    n_big = inputs["budget_N"]
    dil = inputs["dilate"]
    omega = checks.omega_table(max(n_big, dil["N"] ** 2))
    mhilbert_at = reference_values("mhilbert")

    def mhilbert(ctx):
        return ctx.fixture("mhilbert")

    def reference(values_at, indices):
        return indices, checks.symbol_matrix(values_at, indices)

    ops = []
    for d in inputs["budgets"]:
        ops.append(Op(f"smooth[N={n_big},d={d}]",
                      lambda ctx, d=d: h.smooth_indices(n_big, d),
                      lambda out, d=d: [] if list(out) == checks.smooth_numbers(n_big, d)
                      else [("smooth", f"smooth_indices({n_big}, {d}) is wrong")],
                      lambda out: (len(out),)))
        ops += norm_chain("mhilbert", mhilbert, mhilbert_at, n_big, budget=d, with_l2=False)
        ops.append(_approx_op(
            f"bca[mhilbert,K=3,N={n_big},d={d}]", mhilbert, GRID3, n_big,
            lambda d=d: reference(mhilbert_at, checks.smooth_numbers(n_big, d)),
            omega, budget=d))

    for spec in inputs["fixtures"]:
        label = spec.split(":")[0]
        values_at = reference_values(spec)

        def make(ctx, spec=spec):
            return ctx.fixture(spec)

        ops.append(Op(f"dilate[{label},N={dil['N']}]",
                      lambda ctx, make=make: h.dilate_symbol(make(ctx), dil["r"], dil["N"]),
                      lambda seq, values_at=values_at: checks.check_dilated_sequence(
                          seq, dil["r"], values_at, omega, dil["N"] ** 2),
                      lambda seq: (len(seq), abs(sum(v for _, v in seq.items())))))
        diag = inputs["diagnostic"]

        def check_diag(table, values_at=values_at):
            bases = {n: reference(values_at, list(range(1, n + 1)))[1] for n in diag["N"]}
            return checks.check_diagnostic(table, bases, omega)

        ops.append(Op(f"diag[{label}]",
                      lambda ctx, make=make: h.compactness_diagnostic(
                          make(ctx), diag["r"], diag["N"]),
                      check_diag, lambda table: tuple(row[2] for row in table.rows)))
        n_small = inputs["approx_N"]
        for grid in (GRID3[:2], GRID3):
            ops.append(_approx_op(
                f"bca[{label},K={len(grid)},N={n_small}]", make, grid, n_small,
                lambda values_at=values_at: reference(values_at, list(range(1, n_small + 1))),
                omega))

    for r in inputs["hs_r"]:
        ops.append(Op(f"hs[r={r}]", lambda ctx, r=r: h.dilation_hs_sum(r, 1e-10),
                      lambda hs, r=r: checks.check_hs(hs, r, 1e-8),
                      lambda hs: (hs.partial_sum, hs.product_form, hs.terms_used)))

    sizes = (32, 64)

    def twin(ctx):
        symbol = mhilbert(ctx)
        table = h.compactness_diagnostic(symbol, GRID3, sizes)
        return table, {n: h.best_convex_approx(symbol, GRID3, n) for n in sizes}

    def check_cli(returncode, stdout, twin):
        table, approx = twin
        payload, fails = checks.parse_cli(returncode, stdout)
        if payload is None:
            converged = all(res.converged for res in approx.values())
            return fails or checks.check_exit_contract(returncode, converged)
        converged = all(w["converged"] for w in payload["weights"].values())
        fails += checks.check_exit_contract(returncode, converged)
        for got, want in zip(payload["rows"], table.rows):
            fails += checks.check_match(f"row r={want[0]} N={want[1]}", got[2], want[2])
        for n, res in approx.items():
            fails += checks.check_match(f"approx N={n}", payload["weights"][str(n)]["value"],
                                        res.value)
        return fails

    cli = CliOp("cli[essnorm,mhilbert,N=32,64]", inputs["cli"], twin, check_cli)
    return Workload(inputs["sieve_limit"], inputs, ops, cli)


BUILDERS = {
    "norm-ladder": norm_ladder,
    "xnorm-ladder": xnorm_ladder,
    "approx-smooth": approx_smooth,
}
INPUTS = {
    "norm-ladder": norm_ladder_inputs,
    "xnorm-ladder": xnorm_ladder_inputs,
    "approx-smooth": approx_smooth_inputs,
}
