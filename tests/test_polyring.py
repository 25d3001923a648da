from fractions import Fraction

import pytest

from dansurf import (
    AlgebraError,
    InputError,
    NotDivisible,
    Poly,
    RElem,
    RingSpec,
    WeightVector,
    normal_form,
    parse_poly,
    substitute_poly,
)
from dansurf.polyring import (Accumulator, fold_product, format_poly, mono, reduce_view,
                              view_terms)
from dansurf.scalars import FieldSpec, Scalar
from conftest import F2, F3, F5, F101, Q, random_poly, rng

W1 = WeightVector({"x": 0, "y": 2, "z": 1})


def P(text, field=Q):
    return parse_poly(text, field)


def test_arith_examples():
    assert P("x+1") * P("x-1") == P("x^2-1")
    assert P("x+1", F2) * P("x+1", F2) == P("x^2+1", F2)
    assert P("z+x") * P("z+y") == P("z^2 + (x+y)*z + x*y")


def test_field_mismatch():
    with pytest.raises(InputError, match="polynomials over different fields"):
        P("x") + P("x", F2)


def test_substitute_examples():
    mu = Q.scalar(3)
    assert P("x^2").substitute({"x": Poly.variable(Q, "x").scale(mu)}) == P("9*x^2")
    assert P("z^2+z").substitute({"z": P("z + x^2*U")}) == P(
        "z^2 + 2*x^2*U*z + x^4*U^2 + z + x^2*U"
    )
    h = P("1 + x + x^3")
    assert h.substitute({"x": P("x")}) == h


def test_substitute_is_homomorphism():
    r = rng(1)
    for field in (Q, F3):
        for _ in range(100):
            a = random_poly(r, field, ("x", "y", "z"))
            b = random_poly(r, field, ("x", "y", "z"))
            binding = {
                "x": random_poly(r, field, ("x", "U")),
                "z": random_poly(r, field, ("z", "y")),
            }
            assert (a * b).substitute(binding) == a.substitute(binding) * b.substitute(binding)
            assert (a + b).substitute(binding) == a.substitute(binding) + b.substitute(binding)


def test_coeff_of_examples():
    assert P("z + x^2*U").coeff_of("U", 1) == P("x^2")
    assert P("z + x^2*U").coeff_of("U", 0) == P("z")
    assert P("y + (2*z+1)*U + x^2*U^2").coeff_of("U", 2) == P("x^2")


def test_coeff_reconstruction():
    r = rng(2)
    for _ in range(50):
        p = random_poly(r, Q, ("x", "y", "U"), max_terms=5, max_exp=3)
        u = Poly.variable(Q, "U")
        total = Poly.zero(Q)
        for k in range(4):
            total = total + p.coeff_of("U", k) * u**k
        assert total == p


def test_weighted_degree_examples():
    assert P("z*y").weighted_degree(W1) == 3
    assert Poly.zero(Q).weighted_degree(W1) == float("-inf")
    w2 = WeightVector({"x": -1, "y": 3, "z": 0})
    assert P("x^3*y").weighted_degree(w2) == 0


def test_weighted_degree_rational_weights():
    w = WeightVector({"x": Fraction(1, 5), "U": Fraction(-2, 5)})
    assert P("x^2*U").weighted_degree(w) == 0


def test_weighted_degree_additive_on_products():
    r = rng(3)
    w = WeightVector({"x": 1, "y": Fraction(2, 3), "z": -1, "U": 0})
    for _ in range(60):
        a = random_poly(r, Q, ("x", "y", "z"), nonzero=True)
        b = random_poly(r, Q, ("x", "y", "z"), nonzero=True)
        assert (a * b).weighted_degree(w) == a.weighted_degree(w) + b.weighted_degree(w)
        assert (a + b).weighted_degree(w) <= max(
            a.weighted_degree(w), b.weighted_degree(w)
        )


def test_top_part_examples():
    assert P("y + z").top_part(W1) == P("y")
    assert P("x^2 + x").top_part(WeightVector({"x": 1})) == P("x^2")
    with pytest.raises(AlgebraError):
        Poly.zero(Q).top_part(W1)


def test_top_part_parity_separation():
    # under W1, the z-free part has even weight while z*f2 has odd weight,
    # so a top part never mixes the two
    r = rng(4)
    for _ in range(40):
        f1 = random_poly(r, Q, ("x", "y"))
        f2 = random_poly(r, Q, ("x", "y"))
        p = f1 + Poly.variable(Q, "z") * f2
        if p.is_zero():
            continue
        top = p.top_part(W1)
        zdeg = {m[0] for m in top.terms}
        assert zdeg in ({0}, {1})


def test_top_part_multiplicative():
    r = rng(5)
    for _ in range(40):
        a = random_poly(r, Q, ("x", "y", "z"), nonzero=True)
        b = random_poly(r, Q, ("x", "y", "z"), nonzero=True)
        assert (a * b).top_part(W1) == a.top_part(W1) * b.top_part(W1)


def test_x_power_divide_examples():
    assert P("x^3 + x^2").divide_var_power("x", 2) == P("x + 1")
    with pytest.raises(NotDivisible):
        P("x + 1").divide_var_power("x", 1)
    # lambda*mu^-n*(x - c)^n with c != 0 is not divisible by x^n
    n = 3
    p = (P("x - 2") ** n).scale(Fraction(5, 8))
    with pytest.raises(NotDivisible):
        p.divide_var_power("x", n)


def test_x_power_divide_inverse():
    r = rng(6)
    for _ in range(30):
        p = random_poly(r, Q, ("x", "y"))
        m = r.randint(0, 3)
        shifted = p * Poly.variable(Q, "x", m)
        assert shifted.divide_var_power("x", m) == p


@pytest.mark.parametrize("field", [Q, F2, F3, F5, F101])
def test_ring_axioms(field):
    r = rng(hash(field.label) % 1000)
    for _ in range(100):
        a = random_poly(r, field, ("x", "y", "z"))
        b = random_poly(r, field, ("x", "y", "z"))
        c = random_poly(r, field, ("x", "y", "z"))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + Poly.zero(field) == a
        assert a * Poly.const(field, 1) == a
        assert a - a == Poly.zero(field)


def test_canonical_equality():
    assert P("x + 0*y") == P("x")
    assert P("x - x") == Poly.zero(Q)
    assert hash(P("2*x")) == hash(P("x + x"))


def test_power():
    assert P("x + 1") ** 0 == P("1")
    assert P("x + 1") ** 3 == P("x^3 + 3*x^2 + 3*x + 1")
    with pytest.raises(AlgebraError):
        P("x") ** -1


def test_format_signs_by_field():
    # over Q a negative coefficient prints with a minus sign, integral or not
    assert format_poly(P("-x^2 - 2*x + 3")) == "-x^2 - 2*x + 3"
    assert format_poly(P("-1")) == "-1"
    assert format_poly(P("3 - 7*y")) == "-7*y + 3"
    assert format_poly(P("-1/2*x - 3")) == "-1/2*x - 3"
    assert format_poly(P("2*x") - P("4*x")) == "-2*x"
    # over F_p residues lie in [0, p) and print unsigned
    assert format_poly(P("-x - 1", F5)) == "4*x + 4"


# Coefficient sources for the product-kernel tests: over Q integral,
# fractional and mixed values, over F_p any residue.  Near 2^31 the raw sums
# of the kernel run far past p before their one reduction.
F_BIG = FieldSpec(2147483647)
KERNEL_FIELDS = (
    ("Q integral", Q, lambda r: r.randint(-10**12, 10**12)),
    ("Q fractional", Q, lambda r: Fraction(r.randint(-9, 9) or 1, r.randint(2, 12))),
    ("Q mixed", Q, lambda r: r.choice((r.randint(-20, 20), Fraction(r.randint(-9, 9), 7)))),
    ("F2", F2, lambda r: r.randrange(2)),
    ("F3", F3, lambda r: r.randrange(3)),
    ("F5", F5, lambda r: r.randrange(5)),
    ("F2147483647", F_BIG, lambda r: r.randrange(F_BIG.characteristic - 999,
                                                  F_BIG.characteristic)),
)


def per_pair_product(a, b):
    """The reference product: every term pair's coefficient is formed and
    summed with Scalar arithmetic, zeros dropped at the end."""
    terms = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = tuple(i + j for i, j in zip(m1, m2))
            terms[m] = terms.get(m, a.field.zero) + c1 * c2
    return Poly(a.field, {m: c for m, c in terms.items() if c})


def kernel_poly(r, field, coeff, n_terms, max_exp=3):
    items = [(mono(x=r.randint(0, max_exp), y=r.randint(0, max_exp), U=r.randint(0, 1)),
              coeff(r)) for _ in range(n_terms)]
    return Poly.from_items(field, items)


def assert_canonical(p):
    for c in p.terms.values():
        assert c, p
        if p.field.characteristic:
            assert type(c.value) is int and 0 < c.value < p.field.characteristic
        else:
            assert type(c.value) is int or c.value.denominator != 1


@pytest.mark.parametrize("label, field, coeff", KERNEL_FIELDS, ids=[k[0] for k in KERNEL_FIELDS])
def test_product_kernel_matches_per_pair_reference(label, field, coeff):
    r = rng(len(label))
    zero, one = Poly.zero(field), Poly.const(field, 1)
    for _ in range(60):
        a = kernel_poly(r, field, coeff, r.randint(0, 9))
        b = kernel_poly(r, field, coeff, r.randint(0, 9))
        for left, right in ((a, b), (b, a), (a, zero), (zero, b), (a, one),
                            (kernel_poly(r, field, coeff, 1), b)):
            product = left * right
            assert product == per_pair_product(left, right), (left, right)
            assert_canonical(product)
        # a sum of products that cancels to zero term by term
        acc = Accumulator()
        fold_product(acc, a.ints(), b.ints())
        fold_product(acc, (-a).ints(), b.ints())
        assert view_terms(field, reduce_view(field, acc)) == {}
    # (x - y)(x + y): the mixed terms cancel inside one product
    x, y = Poly.variable(field, "x"), Poly.variable(field, "y")
    assert (x - y) * (x + y) == x * x - y * y
    # many pairs meet on one monomial: (sum c*x^i*y^(8-i))^2 at x^8*y^8
    dense = Poly.from_items(field, [(mono(x=i, y=8 - i), coeff(r)) for i in range(9)])
    assert dense * dense == per_pair_product(dense, dense)
    assert_canonical(dense * dense)


def test_multi_term_products_form_no_scalar_per_pair(monkeypatch):
    # the kernel multiplies raw values and wraps one Scalar per output term;
    # only a monomial factor scales term by term through Scalar.__mul__
    calls = []
    scalar_mul = Scalar.__mul__

    def counting(self, other):
        calls.append(1)
        return scalar_mul(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counting)
    monkeypatch.setattr(Scalar, "__rmul__", counting)
    for field in (Q, F3, F_BIG):
        a = P("x + 2*y + 3/2*U", field) if field is Q else P("x + 2*y + 3*U", field)
        b = P("x^2 - y + 5", field)
        expected = per_pair_product(a, b)
        calls.clear()
        assert a * b == expected
        assert not calls
    a, b, expected = P("x + y"), P("3*x"), P("3*x^2 + 3*x*y")
    calls.clear()
    assert a * b == expected
    assert len(calls) == 2


# Operands whose coefficient denominators have lcm 1, 2, 3, 6 and 10 (the
# last with coefficient 7/10), for the common-denominator accumulator.
MIXED_DENOMINATORS = ("3*x - 2*y + 5", "1/2*x + 3*y*U - 1", "2/3*y - x^2 + 4/3",
                      "1/6*x*y - 1/2*U + 1/3", "7/10*x - 3*y^2 + U")


def test_accumulator_takes_every_denominator_in_any_order():
    from itertools import permutations

    polys = [P(text) for text in MIXED_DENOMINATORS]
    assert [p.ints()[0] for p in polys] == [1, 2, 3, 6, 10]
    # five folds, each pairing two operands of different denominators
    folds = [(polys[i], polys[(i + 1) % 5]) for i in range(5)]
    expected = Poly.zero(Q)
    for a, b in folds:
        expected = expected + per_pair_product(a, b)
    for order in permutations(folds):
        acc = Accumulator()
        for a, b in order:
            fold_product(acc, a.ints(), b.ints())
        result = Poly(Q, view_terms(Q, reduce_view(Q, acc)))
        assert result == expected, order
        assert_canonical(result)
    # each product folded again with its negation written over other
    # denominators: -a*10/7 times b*7/10, so the sum cancels to nothing
    for a, b in folds:
        acc = Accumulator()
        fold_product(acc, a.ints(), b.ints())
        fold_product(acc, a.scale(Fraction(-10, 7)).ints(), b.scale(Fraction(7, 10)).ints())
        assert view_terms(Q, reduce_view(Q, acc)) == {}
    # an integral fold after a fractional one rescales the integral product
    acc = Accumulator()
    fold_product(acc, polys[4].ints(), polys[0].ints())
    fold_product(acc, polys[0].ints(), polys[0].ints())
    result = Poly(Q, view_terms(Q, reduce_view(Q, acc)))
    assert result == per_pair_product(polys[4], polys[0]) + per_pair_product(polys[0], polys[0])
    assert_canonical(result)


@pytest.mark.parametrize("label, field, coeff", KERNEL_FIELDS, ids=[k[0] for k in KERNEL_FIELDS])
def test_reduced_view_is_the_integer_view_of_the_reduced_terms(label, field, coeff):
    # a reduced view reads as the view of its Scalar terms: over Q the
    # common denominator divided by the gcd is the lcm of the reduced
    # denominators, whatever the accumulator's denominator was
    def check(acc):
        d, items = reduce_view(field, acc)
        terms = view_terms(field, (d, items))
        reference = Poly(field, terms).ints()
        assert (d, sorted(items)) == (reference[0], sorted(reference[1]))
        assert all(type(v) is int and v for _, v in items)
        # and its terms are the raw sums each divided by the denominator
        raw = {m: field.scalar(Fraction(v, acc.den)) for m, v in acc.sums.items()}
        assert terms == {m: c for m, c in raw.items() if not c.is_zero()}

    r = rng(len(label) + 1)
    for _ in range(40):
        acc = Accumulator()
        for _ in range(r.randint(1, 3)):
            a = kernel_poly(r, field, coeff, r.randint(0, 6))
            b = kernel_poly(r, field, coeff, r.randint(0, 6))
            fold_product(acc, a.ints(), b.ints())
        check(acc)
    if not field.characteristic:
        # 3/2*x times 2/3*y over the denominator 6 is the integral x*y
        acc = Accumulator()
        fold_product(acc, P("3/2*x").ints(), P("2/3*y").ints())
        assert acc.den == 6 and reduce_view(Q, acc) == (1, [(mono(x=1, y=1), 1)])
        # (3/2*x + 1/2)(2/3*y + 4/3) = x*y + 2*x + 1/3*y + 2/3: 6 cancels to 3
        acc = Accumulator()
        fold_product(acc, P("3/2*x + 1/2").ints(), P("2/3*y + 4/3").ints())
        assert reduce_view(Q, acc)[0] == 3
        check(acc)
        # a sum that cancels to nothing over a fractional denominator
        fold_product(acc, P("-3/2*x - 1/2").ints(), P("2/3*y + 4/3").ints())
        assert reduce_view(Q, acc) == (1, [])


@pytest.mark.parametrize("label, field, coeff", KERNEL_FIELDS, ids=[k[0] for k in KERNEL_FIELDS])
def test_fold_results_keep_the_view_they_were_reduced_to(label, field, coeff):
    # every value a fold makes stores the reduced view it was built from,
    # and that view is what Poly.ints() derives from its Scalars afresh:
    # the same denominator and the same items in the same order
    def check(value):
        assert value._ints is not None, value
        assert value._ints == Poly(field, value.terms).ints(), value

    def nonzero(r):
        c = coeff(r)
        return c if field.scalar(c) else 1

    r = rng(len(label) + 2)
    x, y5 = Poly.variable(field, "x"), Poly.variable(field, "y", 5)
    for _ in range(12):
        a = kernel_poly(r, field, coeff, r.randint(2, 6)) + x + y5
        b = kernel_poly(r, field, coeff, r.randint(2, 6)) + y5
        for value in (a * b, b * a, a**3, a.substitute({"x": b, "U": a})):
            check(value)
        # h with a fractional constant over Q, and elements with a z-part,
        # so that every product needs the z^2 step
        spec = RingSpec(field, 2, Poly.const(field, nonzero(r)) + x.scale(coeff(r)))
        ea = RElem(spec, kernel_poly(r, field, coeff, 3), kernel_poly(r, field, coeff, 3) + y5)
        eb = RElem(spec, kernel_poly(r, field, coeff, 3), y5.scale(nonzero(r)))
        expr = Poly.from_items(field, [(mono(z=r.randint(0, 3), x=r.randint(0, 2),
                                             U=r.randint(0, 1)), coeff(r)) for _ in range(5)])
        for value in (ea * eb, ea**3, substitute_poly(spec, ea, {"x": eb, "U": ea})):
            check(value)
        # a substitution folds unless expr is its own image (unmoved and of
        # z-degree at most 1), which is returned as it is
        for value, unmoved in ((normal_form(spec, expr), expr.degree_in("z") < 2),
                               (substitute_poly(spec, expr, {"x": eb, "z": ea}),
                                set(expr.variables()) <= {"U"})):
            if unmoved:
                assert value.terms is expr.terms
            else:
                check(value)


def test_integer_view_is_formed_once_and_exact():
    for field, text, den in ((Q, "x + 2*y - 3", 1), (Q, "1/4*x - 5/6*y + 2", 12),
                             (F5, "3*x + 4*y", 1)):
        p = P(text, field)
        d, items = p.ints()
        assert d == den and all(type(v) is int for _, v in items)
        assert {m: field.scalar(Fraction(v, d)) for m, v in items} == p.terms
        assert p.ints() is p.ints()
    assert Poly.zero(Q).ints() == (1, [])


def test_fractional_products_do_no_fraction_arithmetic(monkeypatch):
    # the kernel folds ints over a common denominator: no Fraction product
    # or sum in multi-term Poly and RElem products or in a substitution
    # with fractional images
    spec = RingSpec(Q, 2, P("1/2 + 2/3*x"))
    a, b = P("1/2*x + 2/3*y*U - 3/5"), P("5/7*x^2 - 1/3*y + 4")
    ea = RElem(spec, P("1/3*x - y"), P("3/4 + 1/6*x*U"))
    eb = RElem(spec, P("2/5*y + 7"), P("1/2*x - 5/3"))
    images = {"x": RElem(spec, P("1/2*x + 3/4"), P("0")), "z": ea}
    expr = P("z^3 + 1/2*x^2*z - 2/3*x*y + 1/5*z^2*x")
    # references, formed before counting: the per-pair product, the normal
    # form of the product of the components' sums, and a term-by-term sum
    # of products of images
    expected_element = normal_form(spec, ea.to_poly() * eb.to_poly())
    expected_substituted = RElem.zero(spec)
    for (z, y, x, _, _, _), c in expr.terms.items():
        term = RElem.const(spec, c) * RElem.var(spec, "y") ** y
        expected_substituted = expected_substituted + term * images["x"] ** x * ea**z
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        method = getattr(Fraction, name)

        def counting(self, other, method=method, name=name):
            calls.append(name)
            return method(self, other)

        monkeypatch.setattr(Fraction, name, counting)
    product, element, substituted = a * b, ea * eb, substitute_poly(spec, expr, images)
    assert calls == []
    monkeypatch.undo()
    assert product == per_pair_product(a, b)
    assert element == expected_element
    assert substituted == expected_substituted
