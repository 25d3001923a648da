import math
from fractions import Fraction

import pytest

from dansurf import (
    AlgebraError,
    Automorphism,
    FieldSpec,
    InputError,
    NotDivisible,
    Poly,
    RElem,
    RingSpec,
    WeightVector,
    build_exponential,
    normal_form,
    parse_poly,
    r_x_divide,
    reduce_presentation,
    shear,
    substitute_poly,
)
from dansurf.polyring import VARS
from conftest import F2, F3, F5, F7, Q, random_poly, random_relem, rng, standard_spec

SPEC21 = standard_spec(Q, 2, "1")


def NF(spec, text):
    return normal_form(spec, parse_poly(text, spec.field))


def test_spec_validation():
    with pytest.raises(InputError, match="n must be at least 2, got 1"):
        RingSpec(Q, 1, Poly.const(Q, 1))
    with pytest.raises(InputError, match=r"h\(0\) must be nonzero"):
        RingSpec(Q, 2, parse_poly("x", Q))
    with pytest.raises(InputError, match=r"deg_x\(h\) = 2 >= n = 2; apply reduce_presentation"):
        RingSpec(Q, 2, parse_poly("1 + x^2", Q))
    with pytest.raises(InputError, match="h must be a polynomial in x alone"):
        RingSpec(Q, 2, parse_poly("1 + y", Q))
    RingSpec(Q, 2, Poly.zero(Q), graded=True)
    RingSpec(Q, 2, Poly.zero(Q), free=True)
    with pytest.raises(InputError, match="graded and free specs require h = 0"):
        RingSpec(Q, 2, Poly.const(Q, 1), graded=True)


def test_normal_form_examples():
    assert NF(SPEC21, "z^2") == NF(SPEC21, "x^2*y - z")
    assert NF(SPEC21, "z^3") == NF(SPEC21, "x^2*y*z - x^2*y + z")
    assert NF(SPEC21, "x^2*y - z^2 - z").is_zero()


def test_normal_form_idempotent():
    r = rng(10)
    for _ in range(30):
        p = random_poly(r, Q, ("x", "y", "z"), max_terms=4, max_exp=3)
        a = normal_form(SPEC21, p)
        assert normal_form(SPEC21, a.to_poly()) == a


def test_r_arith_examples():
    z = RElem.var(SPEC21, "z")
    assert z * (z + 1) == NF(SPEC21, "x^2*y")
    spec31 = standard_spec(Q, 3, "1 + x")
    z3 = RElem.var(spec31, "z")
    assert z3 * z3 == NF(spec31, "x^3*y - (1 + x)*z")
    lhs = NF(SPEC21, "z + x^2*U")
    assert lhs * lhs == NF(SPEC21, "x^2*y - z + 2*x^2*U*z + x^4*U^2")


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("field", [Q, F2, F3, F5])
def test_normal_form_is_multiplicative(n, field):
    spec = standard_spec(field, n, "1")
    r = rng(n * 100 + field.characteristic)
    for _ in range(100):
        p = random_poly(r, field, ("x", "y", "z"), max_terms=3, max_exp=2)
        q = random_poly(r, field, ("x", "y", "z"), max_terms=3, max_exp=2)
        assert normal_form(spec, p * q) == normal_form(spec, p) * normal_form(spec, q)
        assert normal_form(spec, p + q) == normal_form(spec, p) + normal_form(spec, q)


@pytest.mark.parametrize("field", [Q, F2, F3, F5, FieldSpec(2147483647)],
                         ids=lambda f: f.label)
def test_relem_products_match_normal_form_of_poly_products(field):
    # RElem.__mul__ folds the product of the two normal forms and then the
    # z^2 sums with z^2 = x^n*y - h*z; the reference is the closed form
    # (f1 + z*f2)(g1 + z*g2) = f1*g1 + x^n*y*f2*g2 + z*(f1*g2 + f2*g1 - h*f2*g2)
    # in Poly arithmetic alone.  Over Q a fractional h makes the z^2 rewrite
    # fold numerators over a denominator other than 1.
    specs = [standard_spec(field, 2, "1"), standard_spec(field, 3, "1 + x^2"),
             RingSpec(field, 2, Poly.zero(field), graded=True),
             RingSpec(field, 3, Poly.zero(field), free=True)]
    if not field.characteristic:
        specs.append(standard_spec(field, 3, "1/2 + 2/3*x"))
    r = rng(field.characteristic % 1000 + 7)
    for spec in specs:
        zero = RElem.zero(spec)
        xny = parse_poly(f"x^{spec.n}*y", field)
        for _ in range(40):
            a = random_relem(r, spec, ("x", "y", "U"), max_terms=4, max_exp=3)
            b = random_relem(r, spec, ("x", "y", "U"), max_terms=4, max_exp=3)
            if spec.free:
                b = RElem(spec, b.f1, Poly.zero(field))  # no z^2 to form
            for left, right in ((a, b), (b, a), (a, zero), (a, RElem.one(spec))):
                f1, f2, g1, g2 = left.f1, left.f2, right.f1, right.f2
                expected = RElem(spec, f1 * g1 + xny * f2 * g2,
                                 f1 * g2 + f2 * g1 - spec.h * f2 * g2)
                assert left * right == expected
        z = RElem.var(spec, "z")
        if spec.free:
            with pytest.raises(AlgebraError, match="z\\^2"):
                (z + 1) * z
        else:
            # (z + h)*z = x^n*y: h*1 and -h*1 cancel in the z-part's accumulator
            product = (z + RElem(spec, spec.h, Poly.zero(field))) * z
            assert product == NF(spec, f"x^{spec.n}*y") and not product.f2


def test_domain_at_desk_scale():
    r = rng(11)
    for spec in (SPEC21, standard_spec(F3, 3, "1 + x")):
        for _ in range(50):
            a = random_relem(r, spec, nonzero=True)
            b = random_relem(r, spec, nonzero=True)
            assert not (a * b).is_zero()


def test_r_x_divide_examples():
    a = NF(SPEC21, "x^2*y + x^2*z")
    assert r_x_divide(a, 2) == NF(SPEC21, "y + z")
    # z^2 + h*z normal-forms to x^n*y; dividing by x^n gives y
    b = NF(SPEC21, "z^2 + z")
    assert r_x_divide(b, 2) == NF(SPEC21, "y")
    with pytest.raises(NotDivisible):
        r_x_divide(NF(SPEC21, "z + x"), 1)


def test_r_x_divide_inverse():
    r = rng(12)
    x = RElem.var(SPEC21, "x")
    for _ in range(30):
        a = random_relem(r, SPEC21)
        m = r.randint(0, 3)
        assert r_x_divide(a * x**m, m) == a


def test_reduce_presentation_one_step():
    spec, g = reduce_presentation(Q, 2, parse_poly("1 + x^2", Q))
    assert spec.h == parse_poly("1", Q)
    assert g == parse_poly("1", Q)  # y -> y + z


def test_reduce_presentation_identity():
    spec, g = reduce_presentation(Q, 2, parse_poly("1", Q))
    assert spec.h == parse_poly("1", Q)
    assert g.is_zero()


def test_reduce_presentation_high_degree():
    h_raw = parse_poly("2 + x^4", Q)
    spec, g = reduce_presentation(Q, 3, h_raw)
    assert spec.h.degree_in("x") < 3
    assert spec.h == parse_poly("2", Q)
    # the substituted relation equals the reduced relation exactly:
    # x^n (y + g z) - z^2 - h_raw z == x^n y - z^2 - h_new z
    n = 3
    xn = parse_poly("x^3", Q)
    y, zv = parse_poly("y", Q), parse_poly("z", Q)
    substituted = xn * (y + g * zv) - parse_poly("z^2", Q) - h_raw * zv
    reduced = xn * y - parse_poly("z^2", Q) - spec.h * zv
    assert substituted == reduced


def test_reduce_presentation_multi_step():
    # leading-term removal exposes another too-high term, forcing iteration
    h_raw = parse_poly("1 + x^2 + x^3", Q)
    spec, g = reduce_presentation(Q, 2, h_raw)
    assert spec.h == parse_poly("1", Q)
    assert g == parse_poly("x + 1", Q)
    xn = parse_poly("x^2", Q)
    y, zv = parse_poly("y", Q), parse_poly("z", Q)
    substituted = xn * (y + g * zv) - parse_poly("z^2", Q) - h_raw * zv
    reduced = xn * y - parse_poly("z^2", Q) - spec.h * zv
    assert substituted == reduced


def test_reduce_presentation_preconditions():
    # the hypotheses RingSpec checks, with the same messages
    with pytest.raises(InputError, match=r"^h\(0\) must be nonzero$"):
        reduce_presentation(Q, 2, parse_poly("x", Q))
    with pytest.raises(InputError, match="^n must be at least 2, got 1$"):
        reduce_presentation(Q, 1, parse_poly("1", Q))
    with pytest.raises(InputError, match="^h is defined over a different field$"):
        reduce_presentation(Q, 2, parse_poly("1 + x^3", F3))
    with pytest.raises(InputError, match="^h must be a polynomial in x alone$"):
        reduce_presentation(Q, 2, parse_poly("1 + y", Q))


def test_free_spec_rejects_z_square():
    free = RingSpec(Q, 2, Poly.zero(Q), free=True)
    with pytest.raises(AlgebraError):
        normal_form(free, parse_poly("z^2", Q))
    a = normal_form(free, parse_poly("x + z", Q))
    with pytest.raises(AlgebraError):
        a * a


def test_graded_spec_relation():
    graded = RingSpec(Q, 2, Poly.zero(Q), graded=True)
    assert normal_form(graded, parse_poly("z^2", Q)) == normal_form(
        graded, parse_poly("x^2*y", Q)
    )


def test_parameters_commute_through_normal_form():
    spec = SPEC21
    a = NF(spec, "T*z^2 + U*z")
    assert a == NF(spec, "T*(x^2*y - z) + U*z")


# Bases for the shared power routine: a monomial, a univariate base, a
# binomial, a dense multivariate base and a base with a z-part, for Poly and
# for RElem.
POWER_BASES = ("-x^2*U", "1 - x", "x - 2*y*T", "1 + x + y", "x - z + 1")


@pytest.mark.parametrize("field", [Q, F2, F3, F5], ids=lambda f: f.label)
@pytest.mark.parametrize("text", POWER_BASES)
def test_power_memo_matches_repeated_multiplication(field, text):
    from dansurf.polyring import power

    spec = standard_spec(field, 2, "1 + x")
    poly = parse_poly(text, field)
    bases = [normal_form(spec, poly)]
    if "z" not in text:
        bases.append(poly)
    for base in bases:
        dense = base.dense_over_q()
        assert dense == (field == Q and text in POWER_BASES[3:])
        expected = [base**0]
        for _ in range(40):
            expected.append(expected[-1] * base)
        order = list(range(1, 41))
        rng(len(text)).shuffle(order)
        memo = {1: base}
        for e in order:
            assert power(memo, e) == expected[e]
        assert base**0 == expected[0]
        # a one-term base (-x^2*U, and x - 2*y*T over F2) gets c^e*m^e in
        # one step, and a dense base over Q steps from 1: both keep only the
        # power asked for; the squaring chain reaches 40 through a handful
        # of powers; over F_p, base^e = frobenius(base^(e // p)) *
        # base^(e % p) from e = p on
        one_term = text == "-x^2*U" or (field == F2 and text == "x - 2*y*T")
        assert base.is_monomial() == one_term
        fresh = {1: base}
        power(fresh, 40)
        keys = FRESH_40_KEYS[field.characteristic]
        assert sorted(fresh) == ([1, 40] if dense or one_term else keys)


@pytest.mark.parametrize("field", [Q, F2, F3, F5], ids=lambda f: f.label)
def test_zero_and_constant_bases_power_in_one_step(field):
    from dansurf.polyring import power

    spec = standard_spec(field, 2, "1 + x")
    for text in ("0", "1", "-1", "2", "1/2" if field == Q else "4", "3*U"):
        poly = parse_poly(text, field)
        for base in (poly, normal_form(spec, poly)):
            assert base.is_monomial()
            expected = base**0
            for e in range(1, 12):
                expected = expected * base
                fresh = {1: base}
                assert power(fresh, e) == expected
                assert sorted(fresh) == sorted({1, e})
            squared = base
            for _ in range(8):  # base^256 by eight squarings, without power()
                squared = squared * squared
            memo = {1: base}
            assert power(memo, 256) == squared
            assert sorted(memo) == [1, 256]


# The memo keys of a fresh e = 40 chain: squaring over Q; over F2 40 is
# frobenius of 20, of 10, of 5 = frobenius(2) * 1, and 2 = frobenius(1);
# over F3 40 = frobenius(13) * 1, 13 = frobenius(4) * 1 and 4 =
# frobenius(1) * 1; over F5 40 = frobenius(8), 8 = frobenius(1) * 3, and 3
# is below p = 5, so 3 = 2 * 1 and 2 = 1 * 1.
FRESH_40_KEYS = {0: [1, 2, 4, 5, 10, 20, 40], 2: [1, 2, 5, 10, 20, 40],
                 3: [1, 4, 13, 40], 5: [1, 2, 3, 8, 40]}


@pytest.mark.parametrize("field", [Q, F2, F3, F5], ids=lambda f: f.label)
def test_z_powers_match_the_lucas_closed_form(field):
    # z^2 = P z + Q with P = -h and Q = x^n y, so z^k = U_k z + Q U_(k-1)
    # with U_k = sum_j C(k-1-j, j) P^(k-1-2j) Q^j: an oracle that forms its
    # powers of P and Q by repeated multiplication, never through power()
    n, h = 3, parse_poly("1 + x", field)
    spec = RingSpec(field, n, h)
    top = 150 if field == Q else 300  # z^150 over Q has 5625 terms per part
    P, Qxy = -h, parse_poly("x^3*y", field)
    p_pow, q_pow = [Poly.const(field, 1)], [Poly.const(field, 1)]
    for _ in range(top):
        p_pow.append(p_pow[-1] * P)
        q_pow.append(q_pow[-1] * Qxy)

    def lucas(k):
        total = Poly.zero(field)
        for j in range((k - 1) // 2 + 1):
            total = total + (p_pow[k - 1 - 2 * j] * q_pow[j]).scale(math.comb(k - 1 - j, j))
        return total

    for k in (1, 2, 3, 7, 64, top):
        assert NF(spec, f"z^{k}") == RElem(spec, Qxy * lucas(k - 1), lucas(k)), k


def test_u_coefficients_match_componentwise_coeff_of():
    # the one-walk read against Poly.coeff_of on each component, on elements
    # with z-parts and parameters T, U, S
    for field in (Q, F2, F3, F5):
        spec = standard_spec(field, 2, "1 + x")
        r = rng(field.characteristic + 11)
        for _ in range(30):
            a = random_relem(r, spec, ("x", "y", "T", "U", "S"), max_terms=4, max_exp=3)
            coeffs = a.u_coefficients()
            assert list(coeffs) == sorted(coeffs)
            top = int(a.degree_in("U")) if a else -1
            for i in range(top + 2):
                reference = RElem(spec, a.f1.coeff_of("U", i), a.f2.coeff_of("U", i))
                assert coeffs.get(i, RElem.zero(spec)) == reference
                assert (i in coeffs) == bool(reference)
        assert RElem.zero(spec).u_coefficients() == {}


# Bases over F_p with the parameters T, U and S: as Poly and as RElem on
# standard (h = 1 and h = 1 + x), graded (h = 0) and free specs, and with a
# z-part on the specs that can square z.  Their powers up to 3p^2 + 1 stay
# small enough for the repeated-multiplication reference.
FROBENIUS_BASES = (("S + U", ("h = 1", "graded", "free")),
                   ("x*T + 1", ("h = 1", "graded", "free")),
                   ("z + 1", ("h = 1", "graded")), ("z*U", ("h = 1", "h = 1 + x", "graded")))


@pytest.mark.parametrize("field", [F2, F3, F5, F7], ids=lambda f: f.label)
def test_frobenius_power_matches_repeated_multiplication(field):
    from dansurf.polyring import power

    p = field.characteristic
    specs = {"h = 1": standard_spec(field, 2, "1"), "h = 1 + x": standard_spec(field, 2, "1 + x"),
             "graded": RingSpec(field, 2, Poly.zero(field), graded=True),
             "free": RingSpec(field, 2, Poly.zero(field), free=True)}
    top = 3 * p * p + 1
    r = rng(p)
    for text, kinds in FROBENIUS_BASES:
        poly = parse_poly(text, field)
        bases = [normal_form(specs[kind], poly) for kind in kinds]
        if "z" not in text:
            bases.append(poly)
        for base in bases:
            expected = [base**0, base]
            for _ in range(top - 1):
                expected.append(expected[-1] * base)
            order = list(range(1, top + 1))
            r.shuffle(order)
            memo = {1: base}
            for e in order:
                assert power(memo, e) == expected[e], (text, e)
            for e in (p, 2 * p - 1, 2 * p, p * p, top - 1, top):
                assert power({1: base}, e) == expected[e], (text, e)
            assert base**top == expected[top]


def test_free_spec_frobenius_needs_no_z():
    # x and y have no z-part, so their p-th powers never form z^p, which a
    # free spec cannot reduce; a z-part still cannot be squared there
    free = RingSpec(F2, 2, Poly.zero(F2), free=True)
    a = normal_form(free, parse_poly("x + y", F2))
    assert a**4 == normal_form(free, parse_poly("x^4 + y^4", F2))
    assert a**64 == normal_form(free, parse_poly("x^64 + y^64", F2))
    with pytest.raises(AlgebraError, match="z\\^2"):
        normal_form(free, parse_poly("x + z", F2)) ** 4


def test_z_to_p_is_formed_once_per_spec():
    spec = standard_spec(F3, 2, "1 + x")
    z = RElem.var(spec, "z")
    # the spec caches the integer view of z^p (an element would point back at it)
    assert "_z_to_p_view" not in vars(spec)
    assert (z**27).f1
    first = spec._z_to_p_view
    d, items = (NF(spec, "z^2") * z).ints()
    assert first[0] == d and dict(first[1]) == dict(items)
    z**81
    assert spec._z_to_p_view is first
    # an element without a z-part leaves it unformed
    other = standard_spec(F3, 2, "1 + x")
    RElem.var(other, "x") ** 81
    assert "_z_to_p_view" not in vars(other)


@pytest.mark.parametrize("field", [Q, F2, F3, F5], ids=lambda f: f.label)
def test_generators_and_constants_match_the_checking_constructor(field):
    # var, const, zero and one skip the checks; they build what the public
    # constructor builds from (f1, f2)
    zero = Poly.zero(field)
    fractions = () if field.characteristic else (Fraction(1, 2), Fraction(-3, 4))
    for spec in (standard_spec(field, 2, "1"), RingSpec(field, 3, zero, graded=True),
                 RingSpec(field, 2, zero, free=True)):
        for name in VARS:
            split = ((zero, Poly.const(field, 1)) if name == "z"
                     else (Poly.variable(field, name), zero))
            assert RElem.var(spec, name) == RElem(spec, *split)
        for value in (0, 1, -1, 2, 7, 10**20, field.scalar(3)) + fractions:
            assert RElem.const(spec, value) == RElem(spec, Poly.const(field, value), zero)
        assert RElem.zero(spec) == RElem(spec, zero, zero)
        assert RElem.one(spec) == RElem(spec, Poly.const(field, 1), zero)


def test_specs_hold_no_elements():
    # a spec caches integer views only: an element or a terms dict in it
    # would point back at the spec or hold what arithmetic made
    for field, text, p in ((F3, "z^81", 3), (F5, "(z + x)^25", 5)):
        spec = standard_spec(field, 2, "1 + x")
        a = NF(spec, text)
        z, x = RElem.var(spec, "z"), RElem.var(spec, "x")
        assert a == (z**81 if p == 3 else (z + x) ** 25)
        substitute_poly(spec, parse_poly("y*z^2 + x*U", field), {"x": x + z, "U": z})
        assert "_z_to_p_view" in vars(spec)
        for key, value in vars(spec).items():
            assert not isinstance(value, (RElem, dict)), key


def test_public_constructor_checks_components():
    # results of RElem arithmetic skip the checks; the public constructor keeps them
    spec = SPEC21
    x, with_z = parse_poly("x", Q), parse_poly("x*z + 1", Q)
    zero = Poly.zero(Q)
    for f1, f2 in ((with_z, zero), (zero, with_z), (x, parse_poly("z", Q))):
        with pytest.raises(AlgebraError, match="must not contain z"):
            RElem(spec, f1, f2)
    for f1, f2 in ((parse_poly("x", F2), zero), (x, parse_poly("1", F3))):
        with pytest.raises(InputError, match="component over a different field"):
            RElem(spec, f1, f2)


def test_relem_and_poly_do_not_mix():
    # an element of R is no polynomial: mixed arithmetic and equality are
    # refused, every RElem result keeps its ring, and the documented views
    # are plain polynomials
    spec = standard_spec(Q, 2, "1 + x")
    p, a = parse_poly("x + y", Q), NF(spec, "x*z + y*U + 2")
    for mixed in (lambda: p + a, lambda: a + p, lambda: a - p, lambda: p - a,
                  lambda: p * a, lambda: a * p):
        with pytest.raises(TypeError):
            mixed()
    assert not p == a and not a == p and p != a
    assert not a.to_poly() == a
    with pytest.raises(TypeError):
        hash(a)
    w = WeightVector({"x": 1, "y": 2, "z": 1, "U": 0})
    results = [a + a, a + 1, a - 3, -a, a.scale(2), a * 2, a.top_part(w),
               r_x_divide(NF(spec, "x^2*z + x*y"), 1), NF(spec, "3*x^2*U").monomial_power(4),
               *a.u_coefficients().values()]
    for r in results:
        assert type(r) is RElem and r.spec is spec, r
    for view in (a.f1, a.f2, a.to_poly()):
        assert type(view) is Poly, view
    assert (a.f1, a.f2) == (parse_poly("y*U + 2", Q), parse_poly("x", Q))


def test_plain_poly_inputs_refuse_an_relem():
    # the inputs documented as a plain Poly do not take an element of R
    spec = standard_spec(Q, 2, "1")
    a = RElem.var(spec, "x")
    with pytest.raises(TypeError):
        parse_poly("x + y", Q).substitute({"x": a})
    with pytest.raises(TypeError):
        shear(spec, a)
    with pytest.raises(TypeError):
        build_exponential(spec, [(1, a)])
    # an RElem in x alone would pass every condition on h and f
    with pytest.raises((TypeError, AttributeError)):
        RingSpec(Q, 2, RElem.const(spec, 1))
    with pytest.raises((TypeError, AttributeError)):
        Automorphism(spec, Q.one, 1, RElem.var(spec, "x") ** 2)


def test_relem_is_a_poly_that_keeps_its_ring():
    # what an RElem inherits: the Poly methods whose result has the kind of
    # self return an RElem of the same ring, the others a plain Poly
    spec = standard_spec(F3, 2, "1 + x")
    a = NF(spec, "x^3*z + 2*x*y*T")
    assert isinstance(a, Poly) and not hasattr(a, "__dict__")
    divided = a.divide_var_power("x", 1)
    assert type(divided) is RElem and divided.spec is spec
    assert divided == NF(spec, "x^2*z + 2*y*T")
    for view in (a.coeff_of("z", 1), a.substitute({"T": Poly.const(F3, 1)})):
        assert type(view) is Poly, view
    assert a**0 == RElem.one(spec) and (a**0).spec is spec
    # the Poly constructors that RElem inherits still build a plain Poly
    assert type(RElem.variable(F3, "x")) is Poly
    assert type(RElem.from_items(F3, [((0,) * 6, 1)])) is Poly


def test_substitute_poly_checks_its_inputs():
    # the kernel folds raw coefficients, so the field and ring are checked first
    images = {"x": RElem.var(SPEC21, "x")}
    with pytest.raises(InputError, match="polynomial over a different field"):
        substitute_poly(SPEC21, parse_poly("x + 1", F3), images)
    other = standard_spec(Q, 3, "1")
    with pytest.raises(AlgebraError, match="different rings"):
        substitute_poly(SPEC21, parse_poly("y + 1", Q), {"x": RElem.var(other, "x")})


def term_by_term(p, images, one, var):
    """The reference substitution: every term on its own, each variable
    raised to its exponent by repeated multiplication."""
    total = one * 0
    for m, c in p.terms.items():
        piece = one * c
        for name, e in zip(VARS, m):
            for _ in range(e):
                piece = piece * images.get(name, var(name))
        total = total + piece
    return total


# Images for the reference checks: identity images, images binding only some
# variables, and images of the parameters T and U.  Monomial images (zero and
# constants too) act in place; the reference binds them like any other: the
# scalings of L(mu), swapped images, z -> 2*x (z stays bound), x*z (in place
# in a Poly, bound in an RElem), and x*y^2*T, whose x the 3-term x-image
# must not substitute a second time.
SUBSTITUTIONS = (
    {"x": "x", "y": "y", "z": "z"},
    {"x": "x", "y": "y + x^2*U", "z": "z + x^2*U"},
    {"y": "x*y - 1"},
    {"z": "z", "T": "T + U"},
    {"x": "x*T", "U": "U^2 - x"},
    {"T": "1", "U": "0"},
    {"x": "7/11*x", "y": "121/49*y"},
    {"x": "3/7*y", "y": "-2*x"},
    {"z": "2*x", "T": "-1", "U": "0*x"},
    {"x": "-5/7*x", "y": "x*z"},
    {"x": "x + y + T", "y": "x*y^2*T"},
)


@pytest.mark.parametrize("field", [Q, F2, F3, F5, FieldSpec(2147483647)],
                         ids=lambda f: f.label)
def test_substitutions_match_term_by_term_reference(field):
    spec = standard_spec(field, 2, "1 + x")
    r = rng(field.characteristic + 13)
    for _ in range(4):
        p = random_poly(r, field, ("x", "y", "z", "T", "U"), max_terms=12, max_exp=3)
        for images in SUBSTITUTIONS:
            polys = {v: parse_poly(text, field) for v, text in images.items()}
            assert p.substitute(polys) == term_by_term(
                p, polys, Poly.const(field, 1), lambda v: Poly.variable(field, v)), images
            elems = {v: normal_form(spec, q) for v, q in polys.items()}
            assert substitute_poly(spec, p, elems) == term_by_term(
                p, elems, RElem.one(spec), lambda v: RElem.var(spec, v)), images


def per_group_reference(spec, p, images):
    """The reference substitution: p's terms grouped by their exponents in
    z, y, x, each group's bound powers multiplied as RElems (the images of
    z, y and x, in that order), and the group's free part times that
    product summed."""
    bound = {"z": RElem.var(spec, "z"), **images}
    groups = {}
    for (z, y, x, t, u, s), c in p.terms.items():
        groups.setdefault((z, y, x), []).append(((0, 0, 0, t, u, s), c))
    total = RElem.zero(spec)
    for exps, free in groups.items():
        product = RElem.one(spec)
        for var, e in zip("zyx", exps):
            if e:
                product = product * bound[var] ** e
        part = RElem(spec, Poly(spec.field, dict(free)), Poly.zero(spec.field))
        total = total + part * product
    return total


def test_group_products_multiply_no_relem(monkeypatch):
    # a group binding z, y and x multiplies its bound powers on integer
    # views: RElem.__mul__ runs only inside power()'s chains
    import sys

    spec = standard_spec(Q, 2, "1 + x")
    images = {"x": NF(spec, "x + z*U"), "y": NF(spec, "y + 2*z*U + x^2*U^2 + U")}
    p = parse_poly("x^2*y^3*z^2 + 3*x*y*z*U + y^2*z - 2*x^3*y + x*z^3", Q)
    expected = per_group_reference(spec, p, images)
    callers = []
    mul = RElem.__mul__

    def counting(self, other):
        callers.append(sys._getframe(1).f_code.co_name)
        return mul(self, other)

    monkeypatch.setattr(RElem, "__mul__", counting)
    result = substitute_poly(spec, p, images)
    monkeypatch.undo()
    assert result == expected
    assert callers and set(callers) == {"power"}, callers


# Fractional images over h = 1/2 + 2/3*x, whose group products cancel part
# or all of their common denominator: (3/2*x)(2/3*y) = x*y, and
# (3/2*x + 1/2)(2/3*y + 4/3) has denominator 3, not 6.
CANCELLING_IMAGES = (
    {"x": "3/2*x", "y": "2/3*y"},
    {"x": "3/2*x + 1/2", "y": "2/3*y + 4/3"},
    {"x": "3/2*x + 1/2", "y": "2/3*y + 4/3", "z": "1/2*z + 3/4*x"},
    {"x": "2/5*x*U + 5/2", "y": "5/2*y - 2/5*z*U", "z": "-z + 1/3*U"},
)


@pytest.mark.parametrize("images", CANCELLING_IMAGES, ids=range(len(CANCELLING_IMAGES)))
def test_fractional_group_products_match_per_group_reference(images):
    spec = standard_spec(Q, 2, "1/2 + 2/3*x")
    elems = {v: NF(spec, text) for v, text in images.items()}
    r = rng(len(images))
    for _ in range(6):
        p = random_poly(r, Q, ("x", "y", "z", "U"), max_terms=6, max_exp=3)
        assert substitute_poly(spec, p, elems) == per_group_reference(spec, p, elems), p
    p = parse_poly("x*y + x^2*y^2*z - 6*x^3*y*z^2", Q)
    assert substitute_poly(spec, p, elems) == per_group_reference(spec, p, elems)
