"""A fixed pure-Python computation that measures how fast the host is now.

The host this benchmark was built on is a 2-vCPU VM whose vCPUs each switch,
within a fraction of a second, between two speeds about 1.7x apart, so a
timing spreads between runs by more than any bound worth having.  The
yardstick is timed next to the program: sparse polynomial products with
big-integer coefficients (dict of exponent tuples, the same kind of work as
the dansurf kernel), printed and parsed back.  It uses nothing of dansurf,
and it imports nothing, so it can run before the program is imported.

Every time the benchmark reports is scaled by NOMINAL_S / (the yardstick's
time around that moment).  It reads as the time the command would take on a
host that runs the yardstick in NOMINAL_S.  A change of host speed moves the
command and the yardstick alike and cancels; a change of the program does
not.
"""

import gc
from time import perf_counter

# The yardstick's time in the faster mode of the VM the benchmark was built
# on (Python 3.11); it only sets the scale of the reported times.
NOMINAL_S = 0.0013
# Readings between commands are at least this far apart: a speed mode lasts
# a few tenths of a second or more, and a reading costs about 1 % of that.
EVERY_S = 0.2

_TERMS = {(i, j, k): (i + 1) * 10**12 + 7 * j + k
          for i in range(4) for j in range(4) for k in range(3)}


def _work() -> int:
    out = {}
    for (a0, a1, a2), ca in _TERMS.items():
        for (b0, b1, b2), cb in _TERMS.items():
            e = (a0 + b0, a1 + b1, a2 + b2)
            out[e] = out.get(e, 0) + ca * cb * ca
    text = " + ".join(f"{c}*x^{e[0]}*y^{e[1]}*z^{e[2]}" for e, c in sorted(out.items()))
    back = {}
    for term in text.split(" + "):
        c, *mono = term.split("*")
        back[tuple(int(m.partition("^")[2]) for m in mono)] = int(c)
    if back != out:
        raise AssertionError("yardstick round trip failed")
    return len(back)


def median(values):
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


def reading(repeats: int = 3) -> float:
    """Median time of `repeats` yardstick runs, with the collector off so the
    program's heap does not enter the reading."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            _work()
            times.append(perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return median(times)


class Clock:
    """Readings taken at least EVERY_S apart, between commands.

    `mark()` is called before each command and returns the index of the
    latest reading.  `factor(k)` is NOMINAL_S over the median of the
    readings k-1 ... k+2, which bracket the commands marked k.
    """

    def __init__(self):
        self.readings = []
        self.last = float("-inf")

    def tick(self):
        self.readings.append(reading())
        self.last = perf_counter()

    def mark(self) -> int:
        if perf_counter() - self.last >= EVERY_S:
            self.tick()
        return len(self.readings) - 1

    def factor(self, k: int) -> float:
        return NOMINAL_S / median(self.readings[max(0, k - 1): k + 3])
