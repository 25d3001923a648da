"""Steadiness check: does the benchmark agree with itself?

    python3 bench/steady.py [--out FILE]

Runs bench/run.py once per workload and seed 1 ... 10, in two sets of the
same seeds.  For each set and end-to-end metric it reports the median and
the quartile spread (q3 - q1) / median over the seeds, from
statistics.quantiles(values, n=4).  It fails when a spread exceeds the
metric's bound in BENCHMARK.json, when the second set's median is worse than
the first set's by more than the bound, when any run reports a failed
command, or when the two sets give different output digests for the same
workload and seed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)
SETS = 2


def run_once(workload, seed, seconds):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"run.py {workload} seed {seed} exited with {proc.returncode}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out")
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    problems, report = [], {"python": platform.python_version(), "nproc": os.cpu_count(),
                            "seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload in names:
        sets = []
        for s in range(SETS):
            runs = []
            for seed in SEEDS:
                context, result = run_once(workload, seed, seconds)
                report.setdefault("git_sha", context["git_sha"])
                if not result["correct"]:
                    problems.append(f"{workload} seed {seed}: {context['reasons']}")
                runs.append((context["digest"], result["metrics"]))
                print(f"{workload} set {s} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                    file=sys.stderr)
            sets.append(runs)
        rows = {}
        for metric, (bound, better) in bounds.items():
            stats = [spread([m[metric]["value"] for _, m in runs]) for runs in sets]
            rows[metric] = [{"median": med, "spread": sp} for med, sp in stats]
            for i, (med, sp) in enumerate(stats):
                if sp > bound:
                    problems.append(f"{workload} {metric} set {i}: spread {sp:.3f} > {bound}")
                first = stats[0][0]
                worse = (med - first) / first if better == "lower" else (first - med) / first
                if worse > bound:
                    problems.append(f"{workload} {metric} set {i}: median worse by {worse:.3f}")
        for seed, *digests in zip(SEEDS, *[[d for d, _ in runs] for runs in sets]):
            if len(set(digests)) != 1:
                problems.append(f"{workload} seed {seed}: output digests differ between sets")
        report["workloads"][workload] = rows
        for metric, row in rows.items():
            print(f"{workload:13s} {metric:15s} " + "  ".join(
                f"median {r['median']:10.4f} spread {r['spread']:.4f}" for r in row)
                + f"  (bound {bounds[metric][0]})", file=sys.stderr)
    report["problems"] = problems
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
