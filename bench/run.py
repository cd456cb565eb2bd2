"""Benchmark of the helson library and CLI: one workload per invocation.

    python3 bench/run.py --workload norm-ladder --seed 1 --seconds 12 --trace 0

Runs the workload's op list in passes until ``--seconds`` of measured
time have passed (at least one pass), runs its CLI op in fresh
processes, checks every result against an independent reference, and
prints one JSON object as the last line of stdout.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs one untraced and one traced
pass and reports the per-layer metrics.  See bench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# BLAS/OpenMP threads pinned to one, below nproc on any host, so repeated
# runs do not depend on how many cores happen to be idle
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up probes and CLI runs per run, spread evenly over its measured op time
SETUP_SAMPLES = 9
CLI_RUNS = 9
# reference-kernel samples (calibrate.py): at most one per this many
# seconds, at least the minimum count per run
CALIBRATE_EVERY_S = 1.0
CALIBRATE_SAMPLES = 9
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cli_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "setup.import_s": "s",
    "sieve.build_s": "s",
    "fixtures.value.calls": "count",
    "fixtures.value.self_s": "s",
    "operator.assemble.calls": "count",
    "operator.assemble.self_s": "s",
    "operator.assemble.evals_per_product": "ratio",
    "operator.dilate_symbol.self_s": "s",
    "sieve.weighted_degree.calls": "count",
    "sieve.weighted_degree.self_s": "s",
    "sieve.smooth_indices.self_s": "s",
    "spectral.operator_norm.calls": "count",
    "spectral.operator_norm.self_s": "s",
    "spectral.operator_norm.iterations": "count",
    "approx.best_convex_approx.self_s": "s",
    "approx.steps": "count",
    "approx.improving_frac": "ratio",
    "approx.compactness_diagnostic.self_s": "s",
    "core.dilation_hs_sum.self_s": "s",
    "weakprod.xnorm.self_s": "s",
    "weakprod.xnorm.iterations": "count",
    "weakprod.xnorm.s_per_iter": "s",
    "weakprod.xnorm.converged_frac": "ratio",
    "weakprod.representation_from_matrix.self_s": "s",
    "core.dirichlet_convolve.self_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}
WORKLOAD_NAMES = ("norm-ladder", "xnorm-ladder", "approx-smooth")

# runs in a fresh interpreter: import helson, then build the sieve at
# HELSON_SIEVE_LIMIT, which is what every CLI call pays before its op
SETUP_PROBE = """
import json, sys, time
t0 = time.perf_counter()
import helson
t1 = time.perf_counter()
helson.sieve_limit()
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "sieve_s": t2 - t1}))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def child_env():
    """This process's environment, already pinned, with src/ first on PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC)] + ([path] if path else [])))


def same_summary(a, b):
    """Summaries of two passes agree: exact for ints and flags, 1e-9 for floats."""
    return len(a) == len(b) and all(
        x == y if isinstance(x, (bool, int, str)) else abs(x - y) <= 1e-9 * max(abs(y), 1e-300)
        for x, y in zip(a, b)
    )


def run_child(argv, env):
    """(seconds from spawn to exit, returncode, stdout) of one fresh process."""
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start, proc.returncode, proc.stdout


def checked(check, *args):
    """Run a checker; a checker that raises reports a failure, not a crash."""
    try:
        return check(*args)
    except Exception as exc:  # e.g. a CLI payload without the expected keys
        return [("check_raised", f"{type(exc).__name__}: {exc}")]


class Session:
    """One workload run: passes, set-up probes and CLI runs, and their checks.

    Machines shared with other tenants slow down in bursts lasting from
    under a second to minutes, so probes and CLI runs are interleaved
    with the ops of the untraced passes, paced by measured op time, and
    every timing is a median of samples spread over the whole run.
    """

    def __init__(self, workload, env, calibrator):
        self.workload = workload
        self.env = env
        self.calibrator = calibrator
        self.summaries = {}
        self.twin = None  # in-process result of the CLI op
        self.twin_s = None
        self.failures = {}  # op name -> {check_id: message}
        self.passes = []  # per pass: {op name: seconds}, a last pass may be partial
        self.op_s = 0.0  # measured op time of the untraced passes
        self.setup = []  # per probe: {"import_s", "sieve_s"}
        self.cli = []  # seconds per CLI run
        self.cli_timed_out = False

    def fail(self, name, fails):
        for check_id, message in fails:
            self.failures.setdefault(name, {}).setdefault(check_id, message)

    def probe(self):
        self.calibrator.sample()
        _, code, out = run_child([sys.executable, "-c", SETUP_PROBE], self.env)
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}")
        self.setup.append(json.loads(out))

    def run_pass(self, ctx, budget_s=None):
        """One timed pass; checks run between ops, outside the timed region.

        The first pass runs every op, checks every output against its
        reference and stores a summary; later passes must reproduce that
        summary, and stop after the op that brings the measured op time to
        ``budget_s``.  Untraced passes (``budget_s`` given) interleave
        probes and CLI runs with their ops.
        """
        first = not self.passes
        times = {}
        self.passes.append(times)
        for op in self.workload.ops:
            start = time.perf_counter()
            try:
                out = op.run(ctx)
                error = None
            except Exception as exc:  # an op that raises is a failed op, not a crash
                out, error = None, f"{type(exc).__name__}: {exc}"
            times[op.name] = time.perf_counter() - start
            if error is not None:
                self.fail(op.name, [("raised", error)])
            elif first:
                self.fail(op.name, checked(op.check, out))
                self.summaries[op.name] = op.summary(out)
            elif not same_summary(op.summary(out), self.summaries.get(op.name, ())):
                self.fail(op.name, [("repeat", "output differs from the first pass")])
            del out
            if budget_s is not None:
                self.op_s += times[op.name]
                self.keep_pace(budget_s)
                if not first and self.op_s >= budget_s:
                    break
        return sum(times.values())

    def run_twin(self, ctx):
        """The CLI op's result computed in-process, timed once."""
        start = time.perf_counter()
        try:
            self.twin = self.workload.cli.twin(ctx)
        except Exception as exc:  # reported like a failed op
            self.fail(self.workload.cli.name, [("twin", f"{type(exc).__name__}: {exc}")])
        self.twin_s = time.perf_counter() - start

    def run_cli(self):
        self.calibrator.sample()
        cli = self.workload.cli
        argv = [sys.executable, "-m", "helson.cli", *cli.args]
        try:
            seconds, code, stdout = run_child(argv, self.env)
        except subprocess.TimeoutExpired:
            self.fail(cli.name, [("timeout", f"over {CHILD_TIMEOUT_S} s")])
            self.cli_timed_out = True
            return
        self.cli.append(seconds)
        if self.twin is not None:
            self.fail(cli.name, checked(cli.check, code, stdout, self.twin))

    def keep_pace(self, budget_s):
        """Probes and CLI runs due by now, the first before any op and the
        last when the measured op time reaches ``budget_s``."""
        def due(count):
            return min(count, 1 + int(self.op_s * (count - 1) / budget_s))

        self.calibrator.sample()
        while len(self.setup) < due(SETUP_SAMPLES):
            self.probe()
        while len(self.cli) < due(CLI_RUNS) and not self.cli_timed_out:
            self.run_cli()

    def top_up(self):
        while len(self.setup) < SETUP_SAMPLES:
            self.probe()
        while len(self.cli) < CLI_RUNS and not self.cli_timed_out:
            self.run_cli()
        while len(self.calibrator.samples) < CALIBRATE_SAMPLES:
            self.calibrator.sample(force=True)

    def wall_s(self):
        """Sum over ops of each op's median time across the passes that ran it."""
        return sum(statistics.median(times[name] for times in self.passes if name in times)
                   for name in self.passes[0])


class Counts:
    """Counts read off returned objects during the traced pass."""

    def __init__(self):
        self.evals = 0
        self.windows = []
        self.norm_iterations = 0
        self.approx_steps = 0
        self.approx_improving = 0
        self.xnorm_iterations = 0
        self.xnorm_converged = 0

    def observers(self):
        def on_assemble(matrix, hot):
            if hot["fixtures.value"]:
                self.evals += hot["fixtures.value"]
                self.windows.append(matrix.indices)

        def on_norm(report, hot):
            self.norm_iterations += report.iterations

        def on_approx(result, hot):
            history = result.history
            self.approx_steps += len(history)
            best = history[0] if history else None
            for value in history[1:]:
                if value < best:
                    self.approx_improving += 1
                    best = value

        def on_xnorm(result, hot):
            self.xnorm_iterations += result.iterations
            self.xnorm_converged += bool(result.converged)

        return {
            "operator.assemble": on_assemble,
            "spectral.operator_norm": on_norm,
            "approx.best_convex_approx": on_approx,
            "weakprod.xnorm": on_xnorm,
        }

    def distinct_products(self):
        import numpy as np

        cache = {}
        total = 0
        for indices in self.windows:
            if indices not in cache:
                idx = np.asarray(indices, dtype=np.int64)
                cache[indices] = int(np.unique(idx[:, None] * idx[None, :]).size)
            total += cache[indices]
        return total


def layer_metrics(stats, counts, setup, trace_overhead_s, cli_overhead_s):
    """Per-layer metric values; layers that did not run read 0."""
    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    products = counts.distinct_products()
    xnorm_calls = calls("weakprod.xnorm")
    values = {
        "setup.import_s": statistics.median(s["import_s"] for s in setup),
        "sieve.build_s": statistics.median(s["sieve_s"] for s in setup),
        "fixtures.value.calls": calls("fixtures.value"),
        "fixtures.value.self_s": self_s("fixtures.value"),
        "operator.assemble.calls": calls("operator.assemble"),
        "operator.assemble.self_s": self_s("operator.assemble"),
        "operator.assemble.evals_per_product": counts.evals / products if products else 0.0,
        "operator.dilate_symbol.self_s": self_s("operator.dilate_symbol"),
        "sieve.weighted_degree.calls": calls("sieve.weighted_degree"),
        "sieve.weighted_degree.self_s": self_s("sieve.weighted_degree"),
        "sieve.smooth_indices.self_s": self_s("sieve.smooth_indices"),
        "spectral.operator_norm.calls": calls("spectral.operator_norm"),
        "spectral.operator_norm.self_s": self_s("spectral.operator_norm"),
        "spectral.operator_norm.iterations": counts.norm_iterations,
        "approx.best_convex_approx.self_s": self_s("approx.best_convex_approx"),
        "approx.steps": counts.approx_steps,
        "approx.improving_frac": (counts.approx_improving / counts.approx_steps
                                  if counts.approx_steps else 0.0),
        "approx.compactness_diagnostic.self_s": self_s("approx.compactness_diagnostic"),
        "core.dilation_hs_sum.self_s": self_s("core.dilation_hs_sum"),
        "weakprod.xnorm.self_s": self_s("weakprod.xnorm"),
        "weakprod.xnorm.iterations": counts.xnorm_iterations,
        "weakprod.xnorm.s_per_iter": (self_s("weakprod.xnorm") / counts.xnorm_iterations
                                      if counts.xnorm_iterations else 0.0),
        "weakprod.xnorm.converged_frac": (counts.xnorm_converged / xnorm_calls
                                          if xnorm_calls else 0.0),
        "weakprod.representation_from_matrix.self_s":
            self_s("weakprod.representation_from_matrix"),
        "core.dirichlet_convolve.self_s": self_s("core.dirichlet_convolve"),
        "cli.overhead_s": cli_overhead_s,
        "trace.overhead_s": trace_overhead_s,
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}


def provenance(seed, sieve_limit):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "helson").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
        "sieve_limit": sieve_limit,
        "git_commit": commit or None,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None):
    run_start = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "helson" / "__init__.py").is_file():
        print(f"error: no helson sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    # pin threads before numpy loads its BLAS
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    import helson

    if Path(helson.__file__).resolve().parent != SRC / "helson":
        print(f"error: imported helson from {helson.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import calibrate
    import tracing
    import workloads

    workdir = OUT / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.BUILDERS[args.workload](args.seed, workdir)
    os.environ["HELSON_SIEVE_LIMIT"] = str(workload.sieve_limit)
    env = child_env()
    helson.sieve_limit()  # this process's own set-up, outside every timing

    session = Session(workload, env, calibrate.Calibrator(CALIBRATE_EVERY_S))
    session.run_twin(workloads.Context())
    session.keep_pace(args.seconds)
    untraced_s = session.run_pass(workloads.Context(), args.seconds)
    if args.trace:
        tracer = tracing.Tracer()
        counts = Counts()
        restore = tracing.install(tracer, counts.observers())
        try:
            traced_s = session.run_pass(workloads.Context(tracer))
        finally:
            restore()
    else:
        while session.op_s < args.seconds:
            session.run_pass(workloads.Context(), args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    session.top_up()

    failures = session.failures
    failed_ops = sorted(failures)
    unexpected = [
        name for name in failed_ops
        if not set(failures[name]) <= set(workloads.KNOWN_DEFECTS.get(name, ()))
    ]
    attempted = len(workload.ops) + 1  # distinct ops plus the CLI op
    cli_s = statistics.median(session.cli) if session.cli else float("nan")
    # end-to-end times are divided by how much slower than nominal the host
    # ran the reference kernel during this run; raw times go to the report
    slowdown = session.calibrator.slowdown()

    if args.trace:
        metrics = layer_metrics(tracer.stats, counts, session.setup,
                                traced_s - untraced_s, cli_s - session.twin_s)
        samples = {name: 1 for name in metrics}
    else:
        raw = {
            "setup_s": statistics.median(p["import_s"] + p["sieve_s"] for p in session.setup),
            "wall_s": session.wall_s(),
            "cli_s": cli_s,
        }
        metrics = {name: (value / slowdown, "s") for name, value in raw.items()}
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        samples = {"setup_s": len(session.setup), "wall_s": len(session.passes),
                   "cli_s": len(session.cli), "peak_rss_mb": 1}

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args.seed, workload.sieve_limit),
        "inputs": workload.inputs,
        "load_model": "closed loop, one client, one process",
        "metrics": {name: {"value": value, "unit": unit, "samples": samples[name]}
                    for name, (value, unit) in metrics.items()},
        "fail_frac": {"value": len(failed_ops) / attempted, "unit": "ratio",
                      "failed": len(failed_ops), "attempted": attempted},
        "failures": [
            {"op": name, "check": check_id, "message": message,
             "known_defect": name not in unexpected}
            for name in failed_ops for check_id, message in failures[name].items()
        ],
        "op_s_per_pass": session.passes,
        "setup_samples": session.setup,
        "cli_samples_s": session.cli,
        "cli_twin_s": session.twin_s,
        "slowdown": slowdown,
        "calibrate_samples_s": session.calibrator.samples,
        "raw_s": None if args.trace else raw,
        "run_s": time.perf_counter() - run_start,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    if args.trace:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            for span_id, parent, name, start, end in tracer.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"report={OUT.name}/{stem}.json")
    for name, entry in report["metrics"].items():
        raw_note = f", raw {raw[name]:.6g} s" if not args.trace and name in raw else ""
        print(f"{name:44s} {entry['value']:.6g} {entry['unit']} "
              f"(samples={entry['samples']}{raw_note})")
    print(f"{'slowdown':44s} {slowdown:.4g} "
          f"(reference kernel, samples={len(session.calibrator.samples)})")
    print(f"{'fail_frac':44s} {report['fail_frac']['value']:.4g} ratio "
          f"({len(failed_ops)} of {attempted} ops failed)")
    for entry in report["failures"]:
        tag = "known defect" if entry["known_defect"] else "UNEXPECTED"
        print(f"  failed {entry['op']} [{entry['check']}, {tag}]: {entry['message']}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
