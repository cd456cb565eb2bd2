"""Benchmark trajectory: runs the three bench workloads and writes BENCH_<PR>.json.

    python3 tools/trajectory.py --pr N
    python3 tools/trajectory.py --pr N --checkout parent=../parent --checkout change=.
    python3 tools/trajectory.py --full-support 64

For each of ten fixed seeds and each workload, every checkout runs
``bench/run.py --workload W --seed S --seconds 12 --trace 0`` in its own
directory, the checkouts taking turns, seed by seed, to go first.  Each run leaves its
report in ``<checkout>/.bench_out/<workload>-seed<s>-trace0.json``; the
summary reads those reports and records, per checkout and workload, the
median and interquartile range over seeds of every end-to-end metric,
the median over seeds of each op's time, and the failed-op counts.  An
op's time in one run is its median over the passes, read from
``op_s_per_pass`` and scaled as wall_s is, so the op times of a run sum
to its wall_s.  Given two checkouts, it also records per workload and
metric, and per workload and op, how many seeds the second beat the
first on and the median ratio of their values: a change of wall_s is
traced to the ops that moved.

No bench op reaches the cost of xnorm's Newton system on a full
support, so each checkout also times, in process, xnorm of the complex
rng(5) c on 1..16 at N = 32 and 64: a fresh process per run imports
that checkout's sources, with BLAS threads pinned to one, and reports
wall time, Newton steps and its peak RSS.  The checkouts again take
turns to go first.  The output goes to ``BENCH_<PR>.json`` at the root
of this repository.
"""

import argparse
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
WORKLOADS = ("norm-ladder", "xnorm-ladder", "approx-smooth")
SEEDS = (401, 402, 403, 404, 405, 406, 407, 408, 409, 410)
# the run length BENCHMARK.json sets
SECONDS = 12
FULL_SUPPORT_SIZES = (32, 64)
FULL_SUPPORT_REPEATS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_bench(checkout, workload, seed):
    """One untraced bench run in checkout; its report, read back."""
    subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                    "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
                   cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    report = Path(checkout) / ".bench_out" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(report.read_text())


def full_support_xnorm(n_max):
    """xnorm of the rng(5) c on 1..16 in this process: wall time, steps, peak RSS."""
    import numpy as np
    from helson import Sequence, xnorm

    draw = np.random.default_rng(5).standard_normal((16, 2))
    c = Sequence({n + 1: complex(re, im) for n, (re, im) in enumerate(draw)})
    start = time.perf_counter()
    res = xnorm(c, n_max)
    wall = time.perf_counter() - start
    return {"n_max": n_max, "wall_s": wall, "iterations": res.iterations,
            "converged": res.converged, "value": res.value, "gap": res.primal_dual_gap,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def run_full_support(checkout, n_max):
    """full_support_xnorm in a fresh process on checkout's sources."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout) / "src"),
               **{var: "1" for var in THREAD_VARS})
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                          "--full-support", str(n_max)],
                         cwd=checkout, env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def summarise_full_support(runs):
    """Per N: median wall time and peak RSS over the runs, and their Newton steps."""
    out = {}
    for n_max in sorted({r["n_max"] for r in runs}):
        at = [r for r in runs if r["n_max"] == n_max]
        walls = [r["wall_s"] for r in at]
        out[str(n_max)] = {
            "wall_s": statistics.median(walls), "wall_s_values": walls,
            "iterations": sorted({r["iterations"] for r in at}),
            "converged": all(r["converged"] for r in at),
            "value": at[0]["value"], "gap": at[0]["gap"],
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in at),
        }
    return out


def spread(values):
    """Median and interquartile range (inclusive quartiles; 0 for one value)."""
    if len(values) < 2:
        return statistics.median(values), 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3 - q1


def op_medians(report):
    """Each op's median time over the passes of one report that ran it.

    Each is divided by the run's slowdown, as the end-to-end times are,
    so they sum to the report's wall_s.
    """
    passes, slowdown = report["op_s_per_pass"], report["slowdown"]
    return {name: statistics.median(p[name] for p in passes if name in p) / slowdown
            for name in passes[0]}


def summarise(reports):
    """Per workload: seeds, per-metric median and IQR, op times and failed-op counts.

    reports is a list of bench reports of one checkout, any workloads and
    seeds; a report is correct when each of its failures is a known defect.
    """
    out = {}
    for workload in sorted({r["workload"] for r in reports}):
        runs = sorted((r for r in reports if r["workload"] == workload),
                      key=lambda r: r["provenance"]["seed"])
        metrics = {}
        for name, entry in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median, iqr = spread(values)
            metrics[name] = {"unit": entry["unit"], "median": median, "iqr": iqr,
                             "values": values}
        per_run = [op_medians(r) for r in runs]
        ops = {}
        for name in per_run[0]:
            times = [m[name] for m in per_run]
            ops[name] = {"median": statistics.median(times), "values": times}
        out[workload] = {
            "seeds": [r["provenance"]["seed"] for r in runs],
            "src_sha256": sorted({r["provenance"]["src_sha256"] for r in runs}),
            "metrics": metrics,
            "ops": ops,
            "failed": [r["fail_frac"]["failed"] for r in runs],
            "attempted": runs[0]["fail_frac"]["attempted"],
            "correct": all(f["known_defect"] for r in runs for f in r["failures"]),
        }
    return out


def paired(first, second, key="metrics"):
    """Per workload and metric: seeds on which second reads lower than first.

    key="ops" compares the op times instead, so that a change of wall_s
    is traced to the ops that moved.
    """
    out = {}
    for workload in sorted(first.keys() & second.keys()):
        a, b = first[workload], second[workload]
        seeds = [s for s in a["seeds"] if s in b["seeds"]]
        out[workload] = {}
        for name in [n for n in a[key] if n in b[key]]:
            pairs = [(a[key][name]["values"][a["seeds"].index(s)],
                      b[key][name]["values"][b["seeds"].index(s)]) for s in seeds]
            ratios = [y / x for x, y in pairs if x]
            out[workload][name] = {
                "pairs": len(pairs),
                "lower": sum(y < x for x, y in pairs),
                "higher": sum(y > x for x, y in pairs),
                "median_ratio": statistics.median(ratios) if ratios else None,
            }
    return out


def machine(report):
    """Machine description: the bench's provenance fields plus the platform.

    The BLAS build's directories are dropped: they name the build host.
    """
    prov = report["provenance"]
    keep = ("nproc", "cpus_usable", "python", "numpy", "thread_env")
    blas = {key: value for key, value in (prov["blas"] or {}).items()
            if "directory" not in key}
    return {"platform": platform.platform(), "machine": platform.machine(),
            "blas": blas, **{key: prov[key] for key in keep}}


def parse_checkout(text):
    label, sep, path = text.partition("=")
    if not sep or not label or not path:
        raise argparse.ArgumentTypeError(f"expected LABEL=PATH, got {text!r}")
    return label, Path(path).resolve()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pr", type=int, help="number in the output file name")
    group.add_argument("--full-support", type=int, metavar="N",
                       help="only time the full-support xnorm at N in this process "
                            "and print it as JSON")
    p.add_argument("--checkout", type=parse_checkout, action="append",
                   help="LABEL=PATH of a checkout to run (repeatable; "
                        "default: this one, as head)")
    args = p.parse_args(argv)
    if args.full_support is not None:
        print(json.dumps(full_support_xnorm(args.full_support)))
        return 0
    checkouts = dict(args.checkout or [("head", ROOT)])

    reports = {label: [] for label in checkouts}
    for i, seed in enumerate(SEEDS):
        # every workload's pair alternates which checkout runs first
        order = list(checkouts.items())[::-1 if i % 2 else 1]
        for workload in WORKLOADS:
            for label, path in order:
                reports[label].append(run_bench(path, workload, seed))
                print(f"# {label} {workload} seed={seed} wall_s="
                      f"{reports[label][-1]['metrics']['wall_s']['value']:.6g}", flush=True)

    probes = {label: [] for label in checkouts}
    for i in range(FULL_SUPPORT_REPEATS):
        order = list(checkouts.items())[::-1 if i % 2 else 1]
        for n_max in FULL_SUPPORT_SIZES:
            for label, path in order:
                probes[label].append(run_full_support(path, n_max))
                print(f"# {label} full-support xnorm N={n_max} wall_s="
                      f"{probes[label][-1]['wall_s']:.6g}", flush=True)

    summaries = {label: summarise(runs) for label, runs in reports.items()}
    result = {
        "pr": args.pr,
        "machine": machine(next(iter(reports.values()))[0]),
        "command": f"bench/run.py --seconds {SECONDS:g} --trace 0",
        "seeds": list(SEEDS),
        "order": "checkouts alternate which runs first, seed by seed",
        "checkouts": summaries,
        "full_support_xnorm": {
            "c": "np.random.default_rng(5).standard_normal((16, 2)) on 1..16, complex",
            "repeats": FULL_SUPPORT_REPEATS,
            "checkouts": {label: summarise_full_support(runs)
                          for label, runs in probes.items()},
        },
    }
    if len(summaries) == 2:
        first, second = summaries.values()
        result["paired"] = {"base": list(summaries)[0], "other": list(summaries)[1],
                            "workloads": paired(first, second),
                            "ops": paired(first, second, key="ops")}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"# wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
