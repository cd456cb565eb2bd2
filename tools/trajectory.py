"""Benchmark trajectory: runs the three bench workloads and writes BENCH_<PR>.json.

    python3 tools/trajectory.py --pr N
    python3 tools/trajectory.py --pr N --checkout parent=../parent --checkout change=.

For each of ten fixed seeds and each workload, every checkout runs
``bench/run.py --workload W --seed S --seconds 12 --trace 0`` in its own
directory, the checkouts taking turns, seed by seed, to go first.  Each run leaves its
report in ``<checkout>/.bench_out/<workload>-seed<s>-trace0.json``; the
summary reads those reports and records, per checkout and workload, the
median and interquartile range over seeds of every end-to-end metric
and the failed-op counts.  Given two checkouts, it also records per
workload and metric how many seeds the second beat the first on.  The
output goes to ``BENCH_<PR>.json`` at the root of this repository.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("norm-ladder", "xnorm-ladder", "approx-smooth")
SEEDS = (401, 402, 403, 404, 405, 406, 407, 408, 409, 410)
# the run length BENCHMARK.json sets
SECONDS = 12


def run_bench(checkout, workload, seed):
    """One untraced bench run in checkout; its report, read back."""
    subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                    "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
                   cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    report = Path(checkout) / ".bench_out" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(report.read_text())


def spread(values):
    """Median and interquartile range (inclusive quartiles; 0 for one value)."""
    if len(values) < 2:
        return statistics.median(values), 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3 - q1


def summarise(reports):
    """Per workload: seeds, per-metric median and IQR, and failed-op counts.

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
        out[workload] = {
            "seeds": [r["provenance"]["seed"] for r in runs],
            "src_sha256": sorted({r["provenance"]["src_sha256"] for r in runs}),
            "metrics": metrics,
            "failed": [r["fail_frac"]["failed"] for r in runs],
            "attempted": runs[0]["fail_frac"]["attempted"],
            "correct": all(f["known_defect"] for r in runs for f in r["failures"]),
        }
    return out


def paired(first, second):
    """Per workload and metric: seeds on which second reads lower than first."""
    out = {}
    for workload in sorted(first.keys() & second.keys()):
        a, b = first[workload], second[workload]
        seeds = [s for s in a["seeds"] if s in b["seeds"]]
        out[workload] = {}
        for name in a["metrics"]:
            pairs = [(a["metrics"][name]["values"][a["seeds"].index(s)],
                      b["metrics"][name]["values"][b["seeds"].index(s)]) for s in seeds]
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
    p.add_argument("--pr", type=int, required=True, help="number in the output file name")
    p.add_argument("--checkout", type=parse_checkout, action="append",
                   help="LABEL=PATH of a checkout to run (repeatable; "
                        "default: this one, as head)")
    args = p.parse_args(argv)
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

    summaries = {label: summarise(runs) for label, runs in reports.items()}
    result = {
        "pr": args.pr,
        "machine": machine(next(iter(reports.values()))[0]),
        "command": f"bench/run.py --seconds {SECONDS:g} --trace 0",
        "seeds": list(SEEDS),
        "order": "checkouts alternate which runs first, seed by seed",
        "checkouts": summaries,
    }
    if len(summaries) == 2:
        first, second = summaries.values()
        result["paired"] = {"base": list(summaries)[0], "other": list(summaries)[1],
                            "workloads": paired(first, second)}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"# wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
