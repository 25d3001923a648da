"""Shared builders for randomized algebra tests (seeded, deterministic)."""

import random
from fractions import Fraction

from dansurf import FieldSpec, Poly, RElem, RingSpec
from dansurf.polyring import mono

Q = FieldSpec(0)
F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)
F7 = FieldSpec(7)
F101 = FieldSpec(101)


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
