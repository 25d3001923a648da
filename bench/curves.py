"""Scaling curves: a diagnostic report, not a workload and not gated.

    python3 bench/curves.py [--budget 30] [--out FILE]

Records the time of single CLI calls, each in a fresh interpreter:

* `exp-build` over F2 with F = U + U^(2^k), k = 6 ... 14;
* `normal-form` of z^k over Q and over F5, k = 100 ... 3200.

Each point runs under a per-point budget (seconds).  A point that exceeds it
is killed and recorded as over_budget; no point is ever dropped.  Read the
report to see how a cost grows with the exponent (for example, whether the
2^k curve is linear or logarithmic in the exponent).
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

from run import ROOT, git_sha

SERIES = {
    "exp-build F2 U^(2^k)": [
        (k, ["exp-build", "--ring", "R(n=2,h=1,field=F2)", "--coeff", "1:1",
             "--coeff", f"{2 ** k}:1"]) for k in range(6, 15)],
    "normal-form z^k over Q": [
        (k, ["normal-form", "--ring", "R(n=2,h=1,field=Q)", "--expr", f"z^{k}"])
        for k in (100, 200, 400, 800, 1600, 3200)],
    "normal-form z^k over F5": [
        (k, ["normal-form", "--ring", "R(n=2,h=1,field=F5)", "--expr", f"z^{k}"])
        for k in (100, 200, 400, 800, 1600, 3200)],
}


def point(argv):
    """Child side: time one dispatch and print a JSON line."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from dansurf.cli import dispatch

    t0 = time.perf_counter()
    code, out = dispatch(argv)
    seconds = time.perf_counter() - t0
    print(json.dumps({"seconds": seconds, "code": code, "out_chars": len(out),
                      "sha256": hashlib.sha256(out.encode()).hexdigest()}))


def measure(argv, budget):
    try:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--point", *argv],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        return {"over_budget": True, "budget_s": budget}
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "--point":
        point(sys.argv[2:])
        return 0
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--budget", type=float, default=30.0, help="seconds per point")
    parser.add_argument("--out")
    args = parser.parse_args()
    report = {"git_sha": git_sha(), "python": platform.python_version(), "nproc": os.cpu_count(),
              "budget_s": args.budget, "series": {}}
    for name, points in SERIES.items():
        rows = []
        for k, argv in points:
            row = {"k": k, "argv": argv, **measure(argv, args.budget)}
            rows.append(row)
            shown = "over_budget" if row.get("over_budget") else f"{row.get('seconds', 0):.3f} s"
            print(f"{name:26s} k={k:<5d} {shown}", file=sys.stderr)
        report["series"][name] = rows
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
