"""Shared builders for randomized algebra tests (seeded, deterministic)."""

import random
from fractions import Fraction

from hypothesis import settings

from dansurf import FieldSpec, InputError, IsoVerdict, Poly, RElem, RingSpec
from dansurf.polyring import mono

Q = FieldSpec(0)
F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)
F7 = FieldSpec(7)
F101 = FieldSpec(101)

# Every hypothesis test draws the same examples on every run: derandomized,
# with no example database carried between runs and no per-example deadline.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def rng(seed=0):
    return random.Random(seed)


def random_scalar(r, field, nonzero=False):
    while True:
        if field.characteristic:
            v = r.randrange(field.characteristic)
        else:
            v = Fraction(r.randint(-4, 4), r.randint(1, 3))
        s = field.scalar(v)
        if not nonzero or not s.is_zero():
            return s


def random_poly(r, field, variables=("x", "y"), max_terms=3, max_exp=2, nonzero=False):
    while True:
        items = []
        for _ in range(r.randint(0, max_terms)):
            exps = {v: r.randint(0, max_exp) for v in variables}
            items.append((mono(**exps), random_scalar(r, field)))
        p = Poly.from_items(field, items)
        if not nonzero or not p.is_zero():
            return p


def random_relem(r, spec, variables=("x", "y"), max_terms=2, max_exp=2, nonzero=False):
    while True:
        f1 = random_poly(r, spec.field, variables, max_terms, max_exp)
        f2 = random_poly(r, spec.field, variables, max_terms, max_exp)
        a = RElem(spec, f1, f2)
        if not nonzero or not a.is_zero():
            return a


def scan_roots(c, d):
    """Every mu with mu^d = c, ascending, by trying each candidate with plain
    int powers: all of F_p*, or over Q (for c = 1 only) the rational roots
    of unity -1 and 1.  An oracle independent of nth_roots."""
    field = c.field
    p = field.characteristic
    if p:
        return [field.scalar(v) for v in range(1, p) if pow(v, d, p) == c.value]
    assert c == 1, "the Q scan covers roots of unity only"
    return [field.scalar(v) for v in (-1, 1) if v**d == 1]


def standard_spec(field, n=2, h_text="1"):
    from dansurf import parse_poly

    return RingSpec(field, n, parse_poly(h_text, field))


def enumerate_oracle(spec1, spec2):
    """Brute-force isomorphism test over F_p, p <= 101: try every (eta, mu)
    in residue order, mu first.  An oracle independent of classify."""
    field = spec1.field
    p = field.characteristic
    if spec2.field != field or not (spec1.standard and spec2.standard):
        raise InputError("the oracle compares standard specs over one field")
    if p == 0 or p > 101:
        raise InputError("oracle needs a prime field with p <= 101")
    if spec1.n != spec2.n:
        return IsoVerdict(False, None, None, "n_mismatch")
    x = Poly.variable(field, "x")
    for mu in range(1, p):
        h1_mu = spec1.h.substitute({"x": x.scale(mu)})
        for eta in range(1, p):
            if h1_mu.scale(eta) == spec2.h:
                return IsoVerdict(True, field.scalar(eta), field.scalar(mu), "ok")
    return IsoVerdict(False, None, None, "no_root")
