"""The view-based Poly and RElem operations against a reference on Scalars.

A Poly stores its reduced integer view and forms its Scalars only when
`.terms` is read.  Each operation here is checked, on random operands over
Q (integral and fractional coefficients), F2, F3, F5 and F2147483647,
against the same operation on {monomial: value} dicts read from `.terms`
and computed with exact rationals or residues.  Every operand comes in two
forms, one that holds only its view and one built from Scalars, and each
binary operation runs on all four pairings.  Every result must be reduced:
its view is the one its own Scalars give.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from dansurf import FieldSpec, Poly, RElem, RingSpec, WeightVector
from dansurf.polyring import VARS, format_mono, format_poly, terms_view

from conftest import F2, F3, F5, Q

F_BIG = FieldSpec(2147483647)
# (label, field, coefficient strategy)
FIELDS = [
    ("Q-int", Q, st.integers(-40, 40)),
    ("Q-frac", Q, st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))),
    ("F2", F2, st.integers(0, 1)),
    ("F3", F3, st.integers(0, 2)),
    ("F5", F5, st.integers(0, 4)),
    ("F2147483647", F_BIG, st.integers(0, 2147483646)),
]
IDS = [label for label, _, _ in FIELDS]
EXAMPLES = settings(max_examples=40)


def monos(z_top=3):
    return st.tuples(st.integers(0, z_top), *[st.integers(0, 3)] * 5)


def values(field, coeff, z_top=3):
    """A {monomial: exact value} dict with no zero value."""
    def canonical(items):
        out = {}
        for m, c in items:
            v = field.scalar(c).value
            if v:
                out[m] = v
        return out
    return st.lists(st.tuples(monos(z_top), coeff), max_size=6).map(canonical)


def _view(field, vals):
    """The reduced view of a value dict, computed here from Fractions."""
    if field.characteristic:
        return 1, list(vals.items())
    d = lcm(*[Fraction(v).denominator for v in vals.values()])
    return d, [(m, int(v * d)) for m, v in vals.items()]


def both_forms(field, vals):
    """The polynomial of vals as a view-only Poly and as one built from Scalars."""
    view_only = Poly._of_view(field, _view(field, vals))
    scalar_built = Poly(field, {m: field.scalar(v) for m, v in vals.items()})
    assert view_only._terms is None and scalar_built._terms is not None
    return view_only, scalar_built


def ref(p):
    """The reference value dict of a result, read from its Scalars."""
    return {m: c.value for m, c in p.terms.items()}


def ref_norm(field, vals):
    """vals with each value reduced (mod p) and zeros dropped."""
    p = field.characteristic
    out = {}
    for m, v in vals.items():
        v = v % p if p else Fraction(v)
        if v:
            out[m] = v if p else (v.numerator if v.denominator == 1 else v)
    return out


def ref_add(field, a, b, sign=1):
    out = dict(a)
    for m, v in b.items():
        out[m] = out.get(m, 0) + sign * v
    return ref_norm(field, out)


def ref_mul(field, a, b):
    out = {}
    for ma, va in a.items():
        for mb, vb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + va * vb
    return ref_norm(field, out)


def check_reduced(p):
    """p's view is the one its own Scalars give: reduced and canonical."""
    d, items = p.ints()
    ref_d, ref_items = terms_view(p.field, p.terms)
    assert d == ref_d and sorted(items) == sorted(ref_items)
    assert all(type(v) is int and v for _, v in items)


def ref_format(p):
    """The canonical text, printed from the Scalars of the terms."""
    if not p.terms:
        return "0"
    signed = not p.field.characteristic
    pieces = []
    for m, c in sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True):
        negative = signed and c.value < 0
        mag = -c if negative else c
        ms = format_mono(m)
        body = str(mag) if not ms else ms if mag == 1 else f"{mag}*{ms}"
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f" - {body}" if negative else f" + {body}")
    return "".join(pieces)


def pairs(field, a, b):
    """The four pairings of a view-only and a Scalar-built form of a and b."""
    fa, fb = both_forms(field, a), both_forms(field, b)
    return [(x, y) for x in fa for y in fb]


@pytest.mark.parametrize("label, field, coeff", FIELDS, ids=IDS)
def test_ring_operations_match_the_scalar_reference(label, field, coeff):
    @EXAMPLES
    @given(values(field, coeff), values(field, coeff), coeff)
    def check(a, b, c):
        expected = {"+": ref_add(field, a, b), "-": ref_add(field, a, b, -1),
                    "*": ref_mul(field, a, b)}
        for x, y in pairs(field, a, b):
            for op, result in (("+", x + y), ("-", x - y), ("*", x * y)):
                assert ref(result) == expected[op], (op, a, b)
                check_reduced(result)
            # == and hash agree with the reference, whatever the forms
            assert (x == y) == (ref_norm(field, a) == ref_norm(field, b))
            if x == y:
                assert hash(x) == hash(y)
        for x in both_forms(field, a):
            assert ref(-x) == ref_add(field, {}, a, -1)
            check_reduced(-x)
            scaled = x.scale(c)
            assert ref(scaled) == ref_norm(field, {m: v * field.scalar(c).value
                                                   for m, v in a.items()})
            check_reduced(scaled)
            assert x == both_forms(field, a)[0] == both_forms(field, a)[1]
            assert len({hash(y) for y in both_forms(field, a) + (x,)}) == 1

    check()


@pytest.mark.parametrize("label, field, coeff", FIELDS, ids=IDS)
def test_readers_match_the_scalar_reference(label, field, coeff):
    weights = st.lists(st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
                       min_size=6, max_size=6)

    @EXAMPLES
    @given(values(field, coeff), st.sampled_from(VARS), st.integers(0, 3), weights)
    def check(a, var, k, ws):
        i = VARS.index(var)
        w = WeightVector(dict(zip(VARS, ws)))
        for x in both_forms(field, a):
            coeff_of = x.coeff_of(var, k)
            assert ref(coeff_of) == {m[:i] + (0,) + m[i + 1:]: v
                                     for m, v in a.items() if m[i] == k}
            check_reduced(coeff_of)
            assert format_poly(x) == ref_format(x)
            if a:
                best = max(w.mono_weight(m) for m in a)
                assert x.weighted_degree(w) == best
                top = x.top_part(w)
                assert ref(top) == {m: v for m, v in a.items() if w.mono_weight(m) == best}
                check_reduced(top)
            if field.characteristic:
                p = field.characteristic
                frob = x.frobenius()
                assert ref(frob) == {tuple(e * p for e in m): v for m, v in a.items()}
                check_reduced(frob)

    check()


def ref_normal_form(spec, vals):
    """vals reduced by z^2 -> x^n*y - h*z, one term at a time on dicts."""
    field = spec.field
    z2 = ref_add(field, {(0, 1, spec.n, 0, 0, 0): 1},
                 ref_mul(field, ref(spec.h), {(1, 0, 0, 0, 0, 0): 1}), -1)
    vals = ref_norm(field, vals)
    while True:
        high = [m for m in vals if m[0] >= 2]
        if not high:
            return vals
        m = high[0]
        v = vals.pop(m)
        lowered = {(m[0] - 2,) + m[1:]: v}
        vals = ref_add(field, vals, ref_mul(field, lowered, z2))


@pytest.mark.parametrize("label, field, coeff", FIELDS, ids=IDS)
def test_ring_elements_match_the_scalar_reference(label, field, coeff):
    # u_coefficients, ==, + and * on elements, and Frobenius powers reduced
    # by the relation, with h over the field
    @EXAMPLES
    @given(values(field, coeff, 1), values(field, coeff, 1), coeff)
    def check(a, b, h0):
        h = Poly.const(field, h0 if field.scalar(h0) else 1) + Poly.variable(field, "x")
        spec = RingSpec(field, 2, h)

        def elem(p):
            if p._terms is None:
                return RElem._trusted(spec, None, p.ints())
            return RElem._trusted(spec, p.terms)

        for x, y in pairs(field, a, b):
            ex, ey = elem(x), elem(y)
            parts = ex.u_coefficients()
            assert list(parts) == sorted({m[4] for m in a})
            for u, part in parts.items():
                assert type(part) is RElem and part.spec is spec
                assert ref(part) == {m[:4] + (0,) + m[5:]: v for m, v in a.items() if m[4] == u}
                check_reduced(part)
            assert ref(ex + ey) == ref_add(field, a, b)
            assert ref(ex * ey) == ref_normal_form(spec, ref_mul(field, a, b))
            check_reduced(ex * ey)
            assert (ex == ey) == (ref_norm(field, a) == ref_norm(field, b))
            if field.characteristic in (2, 3, 5):  # z^p by p - 1 products
                p = field.characteristic
                frob = ex.frobenius()
                assert ref(frob) == ref_normal_form(
                    spec, {tuple(e * p for e in m): v for m, v in a.items()})
                check_reduced(frob)

    check()
