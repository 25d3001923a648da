"""dansurf benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload cli-mix --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the program is imported from
`src/`).  With `--trace 0` the workload runs in a fresh interpreter and the
end-to-end metrics are printed; with `--trace 1` a separate interpreter runs
it untraced and then traced, and the per-layer metrics are printed.  The
line before the result carries the run's context: git sha, Python version,
nproc, output digest, fail ratio and the first failure reasons.

The result line is {"correct", "attempted", "failed", "metrics"}; `correct`
is false when any command failed its exit code or known-answer check.  Exit
code 0 means the run completed; 2 means the checkout has no program to run,
1 any other breakdown.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import PER_LAYER, unit  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Fresh interpreters that only time set-up, half before and half after the
# workload, so that the median spans two moments of the host.  One more
# probe first fills the bytecode cache and is not counted.
SETUP_PROBES = 20
DEADLINE_S = 175.0
E2E_UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def worker(args, deadline, env=None):
    """Run bench/worker.py in a fresh interpreter and parse its JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} did not finish in {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    return json.loads(lines[-1])


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def end_to_end(args, deadline):
    """Set-up probes around the timed workload; set-up is their median."""
    worker(["--probe"], deadline)
    probes = [worker(["--probe"], deadline) for _ in range(SETUP_PROBES // 2)]
    res = worker(["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds)], deadline)
    probes += [worker(["--probe"], deadline) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    setups = [p["setup_s"] for p in probes] + [res["setup_s"]]
    res["setup_s"] = statistics.median(setups)
    res["raw"]["setup_s"] = statistics.median([p["raw_setup_s"] for p in probes]
                                              + [res["raw"]["setup_s"]])
    res["setup_samples"] = len(setups)
    metrics = {name: {"value": res[name], "unit": u} for name, u in E2E_UNITS.items()}
    return res, metrics


def per_layer(args, deadline):
    # A fixed hash seed keeps set iteration, and so every count, repeatable.
    env = dict(os.environ, PYTHONHASHSEED="0")
    res = worker(["--workload", args.workload, "--seed", str(args.seed), "--trace"],
                 deadline, env)
    if res["problems"]:
        raise BenchError("trace self-check failed: " + "; ".join(res["problems"]))
    missing = [m for m in PER_LAYER if m not in res["metrics"]]
    if missing:
        raise BenchError("tracer did not report " + ", ".join(missing))
    metrics = {m: {"value": res["metrics"][m], "unit": unit(m)} for m in PER_LAYER}
    return res, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "dansurf", "cli.py")):
        print(f"no dansurf sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        res, metrics = (per_layer if args.trace else end_to_end)(args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted, failed = res["attempted"], res["failed"]
    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git_sha": git_sha(), "python": platform.python_version(), "nproc": os.cpu_count(),
        "fail_ratio": failed / attempted,
        **{k: v for k, v in res.items() if k not in metrics and k != "metrics"},
    }
    print(json.dumps(context))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
