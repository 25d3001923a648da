"""Run one workload in this fresh interpreter; print one JSON line.

    python3 bench/worker.py --workload NAME --seed N --seconds S
    python3 bench/worker.py --workload NAME --seed N --trace
    python3 bench/worker.py --probe

The first thing the interpreter does is import dansurf.cli and complete one
trivial dispatch; that time is this interpreter's set-up time.  `--probe`
stops there.  Otherwise a warm-up runs, then the timed closed loop: one
client, one command at a time, whole passes until the next pass would end
after `--seconds`.  Pass 0 always runs in full, and the SHA-256 digest covers
its argv, exit codes and outputs.

Only the `dispatch` calls are timed, and each time is scaled to the nominal
host speed of bench/yardstick.py, read between commands.  The unscaled
figures are reported too, under `raw`.

`--trace` instead runs a fixed number of passes twice, untraced and then
with the tracer installed, and reports the per-layer metrics.
"""

import sys
import time

import yardstick  # imports nothing the program needs, so set-up stays cold

yardstick.reading(1)
_BEFORE = yardstick.reading()
_T0 = time.perf_counter()
import os  # noqa: E402  (already loaded by the interpreter)

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))
import dansurf.cli  # noqa: E402

dansurf.cli.dispatch(["normal-form", "--ring", "R(n=2,h=1,field=Q)", "--expr", "x"])
SETUP_S = time.perf_counter() - _T0
# Set-up scaled by the yardstick readings just before and just after it.
SETUP_SCALED_S = SETUP_S * yardstick.NOMINAL_S * 2 / (_BEFORE + yardstick.reading())

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, make_pass  # noqa: E402

WARMUP_S = 2.0
# Passes per traced run: fixed, so the per-layer counts repeat exactly.
TRACE_PASSES = {"cli-mix": 3, "charp-powers": 1, "cylinder": 1}


class Loop:
    """Closed-loop client state: latencies, failures and, with a clock, the
    yardstick reading that each latency is scaled by."""

    def __init__(self, clock=None):
        self.clock = clock
        self.latencies = []
        self.marks = []
        self.failed = 0
        self.reasons = []

    def record(self, latency, reason, mark):
        self.latencies.append(latency)
        self.marks.append(mark)
        if reason:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)

    def run_group(self, group, digest=None):
        """Send the group's commands one at a time through dispatch."""
        try:
            cmd = next(group)
            while True:
                mark = self.clock.mark() if self.clock else None
                t0 = time.perf_counter()
                try:
                    code, out = dansurf.cli.dispatch(cmd.argv)
                except Exception as exc:  # a traceback is a failed command
                    self.record(time.perf_counter() - t0,
                                f"{cmd.argv[0]}: {type(exc).__name__} escaped dispatch: {exc}",
                                mark)
                    return
                latency = time.perf_counter() - t0
                if code != cmd.code:
                    reason = f"exit {code}, expected {cmd.code}: {out[:120]!r}"
                else:
                    try:
                        reason = cmd.check(out) if cmd.check else None
                    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
                        reason = f"unreadable output ({type(exc).__name__}): {out[:120]!r}"
                self.record(latency, reason and f"{' '.join(cmd.argv)[:160]} -> {reason}", mark)
                if digest is not None:
                    digest.update(json.dumps([cmd.argv, code, out]).encode() + b"\n")
                if reason:  # later commands would be built from a wrong output
                    return
                cmd = group.send(out)
        except StopIteration:
            pass
        finally:
            group.close()

    def run_pass(self, workload, seed, index, digest=None, budget=None):
        t0 = time.perf_counter()
        for group in make_pass(workload, seed, index):
            if budget is not None and time.perf_counter() - t0 >= budget:
                break
            self.run_group(group, digest)
        return time.perf_counter() - t0


def timings(lat):
    """ops_per_s over the busy time of dispatch, and latency percentiles."""
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    return {"ops_per_s": len(lat) / sum(lat), "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_p90_ms": deciles[8] * 1e3}


def timed(workload, seed, seconds):
    clock = yardstick.Clock()
    Loop(clock).run_pass(workload, seed, "warm-up", budget=WARMUP_S)
    gc.collect()
    clock = yardstick.Clock()
    loop, digest = Loop(clock), hashlib.sha256()
    start = time.perf_counter()
    passes = 0
    while True:
        last = loop.run_pass(workload, seed, passes, digest if passes == 0 else None)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + last > seconds:
            break
    clock.tick()  # brackets the last commands
    factors = [clock.factor(k) for k in loop.marks]
    return {
        "setup_s": SETUP_SCALED_S,
        **timings([t * f for t, f in zip(loop.latencies, factors)]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(loop.latencies),
        "failed": loop.failed,
        "reasons": loop.reasons,
        "passes": passes,
        "elapsed_s": elapsed,
        "speed": statistics.median(yardstick.NOMINAL_S / r for r in clock.readings),
        "raw": {"setup_s": SETUP_S, **timings(loop.latencies)},
        "digest": digest.hexdigest(),
    }


def traced(workload, seed):
    Loop().run_pass(workload, seed, "warm-up", budget=WARMUP_S)
    gc.collect()
    plain = Loop()
    t0 = time.perf_counter()
    for index in range(TRACE_PASSES[workload]):
        plain.run_pass(workload, seed, index)
    untraced_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    gc.collect()
    loop = Loop()
    t0 = time.perf_counter()
    for index in range(TRACE_PASSES[workload]):
        loop.run_pass(workload, seed, index)
    traced_s = time.perf_counter() - t0
    metrics = tracer.metrics(len(loop.latencies))
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    return {
        "metrics": metrics,
        "problems": tracer.problems(workload, traced_s),
        "attempted": len(loop.latencies) + len(plain.latencies),
        "failed": loop.failed + plain.failed,
        "reasons": (plain.reasons + loop.reasons)[:5],
        "traced_s": traced_s,
        "untraced_s": untraced_s,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if not args.probe and not args.trace and args.seconds is None:
        parser.error("a timed run needs --seconds")
    if args.probe:
        result = {"setup_s": SETUP_SCALED_S, "raw_setup_s": SETUP_S}
    elif args.trace:
        result = traced(args.workload, args.seed)
    else:
        result = timed(args.workload, args.seed, args.seconds)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
