"""Each direct path of the exponential-map commands against the simple path.

The parser keeps a product of scalars and variables raw; axiom_i reads the
U-free part of an image and axiom_ii renames U to S instead of
substituting, and expands phi_(S+U)(g) by binomial rows (Lucas' theorem
over F_p); `substitute_poly` and `Poly.substitute` return an unmoved
polynomial as it is; and `WeightVector.mono_weight` sums in ints.  Each is
checked here against the computation it replaces, over Q, F2, F3 and F5,
and verify_exponential's whole report against the substitutions it
replaced, its y certified from the relation included; monomial images, which act in place, and prime-power rows
against closed forms near the exponent bound.  Work counts pin the number
of substitutions the map, automorphism and cancellation commands make, the
products of a Frobenius power and of cancel-verify, and the term pairs
that cancel-verify and a scaling's aut-apply fold and the Scalars they form.
"""

import re
import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from dansurf import (FieldSpec, InputError, ParseError, Poly, RElem, WeightVector, build_exponential,
                     build_witness, homogenize, parse_poly)
from dansurf import ioformats, polyring, scalars, surface
from dansurf.cli import dispatch
from dansurf.expmaps import (CheckResult, ExponentialMap, VerificationReport, at_u_zero,
                             binomial_row, solve_generator_images, u_renamed_s, u_shifted,
                             verify_exponential)
from dansurf.ioformats import MAX_EXPONENT
from dansurf.polyring import SubstitutionMemo, VARS, mono, substitute_terms, unmoved, view_terms
from dansurf.scalars import digits_to_int
from dansurf.surface import RingSpec, substitute_poly, substitute_view

from conftest import F2, F3, F5, Q, random_poly, random_relem, random_scalar, rng
from test_fuzz import expressions

FIELDS = (Q, F2, F3, F5)
IDS = [f.label for f in FIELDS]
_TOKEN = re.compile(r"\s*(?:([0-9]+)|([A-Za-z]+)|(\S))")


class _Refused(Exception):
    """The reference's bound on exponents was passed."""


def _tops(p: Poly) -> list:
    return [max((m[i] for m in p.terms), default=0) for i in range(6)]


def reference_parse(text: str, field) -> Poly:
    """The grammar evaluated with Poly arithmetic at every step: each scalar
    and variable a Poly, each product and power formed; _Refused where a
    product's or a power's top exponent passes MAX_EXPONENT."""
    toks = [(mt.lastindex, mt.group(mt.lastindex)) for mt in _TOKEN.finditer(text)]
    toks.append((None, ""))
    pos = 0

    def peek():
        return toks[pos][1]

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def expr():
        sign = take()[1] if peek() in ("+", "-") else "+"
        total = Poly.zero(field)
        while True:
            t = term()
            total = total + t if sign == "+" else total - t
            if peek() not in ("+", "-"):
                return total
            sign = take()[1]

    def term():
        p = factor()
        while peek() == "*":
            take()
            q = factor()
            if max(a + b for a, b in zip(_tops(p), _tops(q))) > MAX_EXPONENT:
                raise _Refused
            p = p * q
        return p

    def factor():
        p = base()
        if peek() == "^":
            take()
            e = int(take()[1])
            if max(_tops(p)) * e > MAX_EXPONENT:
                raise _Refused
            p = p**e
        return p

    def base():
        kind, tok = take()
        if kind == 1:
            if peek() == "/":
                take()
                return Poly.const(field, Fraction(digits_to_int(tok), int(take()[1])))
            return Poly.const(field, digits_to_int(tok))
        if kind == 2:
            return Poly.variable(field, tok.lower() if tok in "XYZ" else tok)
        assert tok == "("
        p = expr()
        assert take()[1] == ")"
        return p

    p = expr()
    assert peek() == ""
    return p


def _canonical(p: Poly) -> bool:
    """Every coefficient nonzero, and a residue in [0, p) or over Q an int
    when integral."""
    q = p.field.characteristic
    for c in p.terms.values():
        v = c.value
        if not v or (q and not (type(v) is int and 0 <= v < q)):
            return False
        if not q and type(v) is not int and v.denominator == 1:
            return False
    return True


@settings(max_examples=150)
@given(expressions(), st.sampled_from(FIELDS))
def test_parser_matches_poly_arithmetic(drawn, field):
    text = drawn[0]
    try:
        expected = reference_parse(text, field)
    except _Refused:
        with pytest.raises(ParseError, match="exceeds"):
            parse_poly(text, field)
        return
    except InputError:  # a scalar a/b with p dividing b
        with pytest.raises(ParseError, match="is 0 in"):
            parse_poly(text, field)
        return
    got = parse_poly(text, field)
    assert got == expected and _canonical(got), text


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_parser_on_sums_that_cancel_and_rational_products(field):
    for text in ("x - x", "2*x*y - 4/2*x*y", "1/3*x*3*y - (x*y)", "(x - x)^0",
                 "0*x^1000000*x^1000000", "(0*x)^3*y", "-(x + 1)*(x - 1) + x^2",
                 "((1/5)*(x + y))^2*5", "((x))^2 - x*x", "5*x + 0", "-(-(x))", "2*3*x - x"):
        try:
            expected = reference_parse(text, field)
        except InputError:  # a denominator that p divides
            with pytest.raises(ParseError, match="is 0 in"):
                parse_poly(text, field)
            continue
        got = parse_poly(text, field)
        assert got == expected and _canonical(got), (text, field)


_FLAT_VARS = ("x", "y", "z", "T", "U", "S", "X", "Y", "Z")
# Each tuple lists the forms the grammar takes (repeated, to draw them more
# often) before those that the parser refuses.
_VAR_POWERS = ("", "", "^0", "^3", " ^ 2", "^999999", "^500000", "^1000000", "^00000002",
               "^1000001", "^12345678")
_FLAT_SCALARS = ("0", "1", "2", "7", "0/3", "1/2", "3/6", "5/3", "7/2147483647",
                 "12345678901234567890", "9" * 5000, "1" + "0" * 4999 + "/3", "2/0")
# The parenthesized scalars bench/workloads.py writes in h, --coeff and
# element texts; {c} is a signed scalar, {m} a variable power.
_PAREN_SCALARS = ("({c})*{m}", "(({c}))", "({c})^2", "({c})^0", "({c})*({m} - {m})")
_SPACES = ("", "", " ", "  ", "\t", "\n", "\u2003")
_OPS = ("*", "*", "+", "-", "", "^", "/", "**", ")")


@st.composite
def flat_texts(draw):
    """Text mostly of the grammar: signed products of variables (exponents
    up to and past 10^6, and past seven digits), scalars (zero, 5000
    digits, denominators 0 or divisible by p) and parenthesized scalars,
    amid whitespace; in one text of four, operators missing or out of
    place."""
    ops = _OPS if draw(st.integers(0, 3)) == 0 else _OPS[:4]
    pieces = [draw(st.sampled_from(("", "+", "-")))]
    for i in range(draw(st.integers(0, 6))):  # no factor: the empty text
        if i:
            pieces.append(draw(st.sampled_from(ops)))
        pieces.append(draw(st.sampled_from(_SPACES)))
        powers = _VAR_POWERS if draw(st.integers(0, 3)) == 0 else _VAR_POWERS[:-2]
        scalars = _FLAT_SCALARS if draw(st.integers(0, 3)) == 0 else _FLAT_SCALARS[:-1]
        var = draw(st.sampled_from(_FLAT_VARS)) + draw(st.sampled_from(powers))
        kind = draw(st.integers(0, 2))
        if kind == 0:
            pieces.append(var)
        elif kind == 1:
            pieces.append(draw(st.sampled_from(scalars))
                          + draw(st.sampled_from(("", "^0", "^2", "^ 3"))))
        else:
            c = draw(st.sampled_from(("", "-"))) + draw(st.sampled_from(scalars))
            pieces.append(draw(st.sampled_from(_PAREN_SCALARS)).format(c=c, m=var))
        pieces.append(draw(st.sampled_from(_SPACES)))
    return "".join(pieces)


def _reference_refusal(text: str, field) -> str:
    """What refuses a text in reference_parse: 'bound', 'denominator' (a
    zero one, or one that p divides) or 'syntax' (a token out of place);
    None if the reference reads it."""
    try:
        reference_parse(text, field)
    except _Refused:
        return "bound"
    except (InputError, ZeroDivisionError):
        return "denominator"
    except (AssertionError, IndexError, ValueError):
        return "syntax"
    return None


def _refusal_kind(message: str) -> str:
    if "exceeds" in message:
        return "bound"
    if message == "zero denominator" or " is 0 in " in message:
        return "denominator"
    return "syntax"


@settings(max_examples=400)
@given(flat_texts(), st.sampled_from(FIELDS + (FieldSpec(2147483647),)))
def test_flat_reader_matches_the_parser(text, field):
    # parse_poly reads a text the reference reads to the same Poly, with
    # canonical coefficients, and refuses the others for the reason the
    # reference refuses them, at an offset inside the text
    try:
        got = parse_poly(text, field)
    except ParseError as exc:
        assert 0 <= exc.offset <= len(text), text
        assert _reference_refusal(text, field) == _refusal_kind(exc.message), text
        return
    assert got == reference_parse(text, field) and _canonical(got), text


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_flat_reader_takes_flat_texts_and_leaves_the_rest(field):
    for text in ("x^4*U^4 + x^2*U^2 + x*U^2 + y + U", "-z^2 - x", " 3/7*X*y^3 ", "0*x^1000000",
                 "2*x^999999*x", "7", "x - x + 0", "(x + 1)^2", "x^00000001",
                 "1 + (1)*x^1 + (-2)*x^2", "((3))*y", "(2/7)^2*x", "(5)*(x^2 - x^2) + z"):
        got = parse_poly(text, field)
        assert got == reference_parse(text, field) and _canonical(got), text
    # refusals, each with its message and offset
    for text, message, offset in (
            ("", "unexpected end of input", 0), ("x + ", "unexpected end of input", 4),
            ("--x", "unexpected '-'", 1), ("2x", "unexpected 'x'", 1),
            ("x^2^3", "unexpected '^'", 3), ("x*y/2", "unexpected '/'", 3),
            ("x^1000001", "exponent 1000001 exceeds 1000000", 2),
            ("x^999999*x^2", "product has exponent 999999 + 2, which exceeds 1000000", 9),
            ("1/0", "zero denominator", 2), ("x\u00b2", "unexpected character '\u00b2'", 1)):
        with pytest.raises(ParseError) as exc:
            parse_poly(text, field)
        assert (exc.value.message, exc.value.offset) == (message, offset), text
    if field == F3:  # a denominator that p divides
        with pytest.raises(ParseError) as exc:
            parse_poly("1/3", field)
        assert (exc.value.message, exc.value.offset) == ("denominator 3 is 0 in F3", 0)
    else:
        assert parse_poly("1/3", field) == reference_parse("1/3", field)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_parenthesized_scalars_form_no_poly(field, monkeypatch):
    # a parenthesized scalar or monomial stays a raw coefficient; only a
    # parenthesized sum of two or more terms is multiplied as a Poly
    texts = ("1 + (1)*x^1 + (-2/7)*x^2", "((3))*y^2 - (2)^3*(x)", "(5)*(x^2 - x^2) + z",
             "-(x^2*y)^3*(4)")
    expected = [reference_parse(text, field) for text in texts]
    ops = []
    mul, power = Poly.__mul__, Poly.__pow__
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: ops.append("*") or mul(a, b))
    monkeypatch.setattr(Poly, "__pow__", lambda a, e: ops.append("^") or power(a, e))
    assert [parse_poly(text, field) for text in texts] == expected
    assert ops == []
    parse_poly("(x + 1)*(x - 1)", field)
    assert ops == ["*"]
    # a character that no token takes is refused before any power is formed
    with pytest.raises(ParseError) as exc:
        parse_poly("(x + T + 1)^200\u00b2", field)
    assert (exc.value.message, exc.value.offset) == ("unexpected character '\u00b2'", 15)
    assert ops == ["*"]


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_axiom_reads_match_substitutions(field):
    r = rng(71 + field.characteristic)
    spec = RingSpec(field, 2, Poly.const(field, 1) + Poly.variable(field, "x"))
    s = Poly.variable(field, "S")
    for _ in range(40):
        img = random_relem(r, spec, variables=("x", "y", "T", "U"), max_terms=4, max_exp=3)
        assert at_u_zero(img) == img.substitute_params({"U": 0})
        assert u_renamed_s(img) == img.substitute_params({"U": s})


def _substituted(spec, p, images):
    """substitute_poly without its return of an unmoved p: the substitution
    itself, which binds z (and every image) and folds."""
    view = substitute_terms(p, {"z": RElem.var(spec, "z"), **images}, spec.fold_relation)
    return RElem._trusted(spec, view_terms(spec.field, view), view)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_unmoved_polynomials_match_the_substitution(field):
    r = rng(89 + field.characteristic)
    spec = RingSpec(field, 3, Poly.const(field, 1) + Poly.variable(field, "x", 2))
    x, y, u = (RElem.var(spec, v) for v in "xyU")
    unmoved = poly_unmoved = 0
    for _ in range(60):
        # images that move some variables and fix others (x -> x among them)
        images = r.choice(({}, {"x": x}, {"x": x, "U": u + y}, {"y": y + x * u},
                           {"x": x, "y": y, "z": RElem.var(spec, "z")},
                           {"x": x + u, "y": y, "z": RElem.var(spec, "z") + x * u}))
        p = random_poly(r, field, variables=r.choice((("x", "U"), ("x", "y", "z", "U"))),
                        max_terms=4, max_exp=r.choice((1, 3)))
        got = substitute_poly(spec, p, images)
        assert got == _substituted(spec, p, images), (p, images)
        unmoved += got.terms is p.terms
        # Poly.substitute shares the unmoved test, without the z-degree bound
        polys = {v: img.to_poly() for v, img in images.items()}
        got = p.substitute(polys)
        assert got == Poly._of_view(field, substitute_terms(p, polys)), (p, images)
        poly_unmoved += got.terms is p.terms
    assert unmoved and poly_unmoved  # the draw reaches the direct paths


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_unmoved_reads_the_same_with_a_memo(field, monkeypatch):
    # a memo keeps the moved variables of its images, found on first use:
    # unmoved and the substitution answer as without one, and the images
    # are tested once for each memo
    r = rng(97 + field.characteristic)
    spec = RingSpec(field, 3, Poly.const(field, 1) + Poly.variable(field, "x", 2))
    tested = []
    is_variable = polyring.is_variable

    def counting(img, var):
        tested.append(var)
        return is_variable(img, var)

    monkeypatch.setattr(polyring, "is_variable", counting)
    answers = set()
    for _ in range(30):
        # each variable fixed, or sent to a random element that may be itself
        images = {v: RElem.var(spec, v) if r.random() < 0.4 else
                  random_relem(r, spec, variables=("x", "U" if v == "z" else v),
                               max_terms=r.choice((1, 2)))
                  for v in r.sample(("x", "y", "z", "T", "U"), r.randint(0, 5))}
        memo = SubstitutionMemo()
        for k in range(12):
            p = random_poly(r, field, variables=r.sample(("x", "y", "z", "T", "U"), 3),
                            max_terms=3, max_exp=2)
            z_top = r.choice((1, float("inf")))
            tested.clear()
            alone = unmoved(p, images, z_top)
            assert len(tested) == len(images)
            tested.clear()
            assert unmoved(p, images, z_top, memo) == alone, (p, images)
            assert len(tested) == (0 if k else len(images))
            answers.add(alone)
            assert (substitute_poly(spec, p, images, memo)
                    == substitute_poly(spec, p, images)), (p, images)
        assert sorted(memo.moved) == sorted(VARS.index(v) for v, img in images.items()
                                            if img != RElem.var(spec, v))
    assert answers == {False, True}


_SHIFT_FIELDS = FIELDS + (FieldSpec(2147483647),)


@st.composite
def shift_images(draw):
    """A field and an S-free element of R[T, U] over it (n = 2, h = 1 + x),
    with U-exponents up to 12 and, over F_p, at p^k and 2*p^k too."""
    field = draw(st.sampled_from(_SHIFT_FIELDS))
    p = field.characteristic
    spec = RingSpec(field, 2, Poly.const(field, 1) + Poly.variable(field, "x"))
    u_exps = st.integers(0, 12)
    if p:
        u_exps = st.one_of(u_exps, st.sampled_from([k * p**e for e in (1, 2) for k in (1, 2)]))
    value = (st.integers(-40, 40) if p else
             st.builds(Fraction, st.integers(-40, 40), st.sampled_from((1, 2, 3, 7))))
    items = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 3), st.integers(0, 3),
                                    st.integers(0, 2), u_exps, value), max_size=8))
    return spec, RElem._trusted(spec, Poly.from_items(
        field, [(mono(z=z, y=y, x=x, T=t, U=u), c) for z, y, x, t, u, c in items]).terms)


@settings(max_examples=200)
@given(shift_images())
def test_u_shift_by_binomial_rows_matches_the_substitution(drawn):
    spec, img = drawn
    field = spec.field
    su = Poly.variable(field, "S") + Poly.variable(field, "U")
    view = u_shifted(img, {})
    assert view == Poly._of_view(field, view).ints()  # a reduced view
    assert Poly._of_view(field, view) == img.substitute_params({"U": su}).to_poly(), img


@pytest.mark.parametrize("p", [0, 2, 3, 5, 7])
def test_binomial_rows_match_comb(p):
    for i in range(300):
        expected = [(j, comb(i, j) % p if p else comb(i, j)) for j in range(i + 1)]
        assert sorted(binomial_row(i, p)) == [(j, c) for j, c in expected if c], (i, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 997])
def test_prime_power_rows_near_the_exponent_bound(p):
    # U^(p^k) -> S^(p^k) + U^(p^k): two entries, also at the largest p^k
    # the parser allows, and C(2*p^k, p^k) = 2 for p > 2
    k = 1
    while p ** (k + 1) <= MAX_EXPONENT:
        k += 1
    for e in (p, p ** (k - 1), p**k):
        assert binomial_row(e, p) == [(0, 1), (e, 1)], e
    assert sorted(binomial_row(2 * p**k, p)) == ([(0, 1), (2 * p**k, 1)] if p == 2 else
                                                 [(0, 1), (p**k, 2), (2 * p**k, 1)])
    field = FieldSpec(p)
    spec = RingSpec(field, 2, Poly.const(field, 1))
    e = p**k
    img = RElem._trusted(spec, Poly.from_items(field, [(mono(z=1), 1), (mono(x=2, U=e), 1)]).terms)
    assert u_shifted(img, {}) == (1, [(mono(z=1), 1), (mono(x=2, U=e), 1), (mono(x=2, S=e), 1)])


def reference_verify(phi) -> list:
    """verify_exponential's checks as (name, passed, detail), by the simple
    path: substitute_poly for the relation and phi_S(phi_U(g)), and
    substitute_params for U = 0, U = S and U = S + U."""
    spec, field = phi.spec, phi.spec.field
    checks = []
    rel = spec.relation()
    if rel is None:
        checks.append(("relation", True, "free ring, nothing to preserve"))
    else:
        image_rel = substitute_poly(spec, rel, phi.images)
        detail = "" if image_rel.is_zero() else f"image of the relation is {image_rel}, not 0"
        checks.append(("relation", not detail, detail))
    bad = []
    for var in phi.carriers():
        at0 = phi.images[var].substitute_params({"U": 0})
        if at0 != RElem.var(spec, var):
            bad.append(f"{var} -> {at0}")
    checks.append(("axiom_i", not bad, "; ".join(bad)))
    s, u = Poly.variable(field, "S"), Poly.variable(field, "U")
    images_s = {v: img.substitute_params({"U": s}) for v, img in phi.images.items()}
    bad = []
    for var in phi.carriers():
        lhs = substitute_poly(spec, phi.images[var], images_s)
        rhs = phi.images[var].substitute_params({"U": s + u})
        if lhs != rhs:
            bad.append(f"{var}: phi_S(phi_U) = {lhs} but phi_(S+U) = {rhs}")
    checks.append(("axiom_ii", not bad, "; ".join(bad)))
    return checks


def _candidate(r, field, kind):
    """Images x -> x, z -> z + x^n*F(x, T, U) and the y-image the relation
    forces, with T -> T + c*U^e at times; `kind` breaks them: any
    U-exponents (not only 1 and p^k), a y-image off by a term (the
    relation), or a U-free term added to the z-image (axiom_i)."""
    p = field.characteristic
    n = r.choice((2, 3))
    h = random_poly(r, field, ("x",), max_terms=2, max_exp=n - 2) * Poly.variable(field, "x")
    spec = RingSpec(field, n, h + Poly.const(field, random_scalar(r, field, nonzero=True)))
    legal = [1] if not p else [1, p, p * p]
    exps = legal if kind == "legal" else legal + [2, 3]
    terms = [(mono(x=r.randint(0, 2), T=r.randint(0, 1), U=r.choice(exps)),
              random_scalar(r, field, nonzero=True)) for _ in range(r.randint(1, 3))]
    if kind == "legal" and r.random() < 0.5:
        terms = [(m[:3] + (0,) + m[4:], c) for m, c in terms]
    xnf = Poly.variable(field, "x", n) * Poly.from_items(field, terms)
    image_z = RElem(spec, xnf, Poly.const(field, 1))
    images = solve_generator_images(spec, image_z)
    if "T" in xnf.variables() or r.random() < 0.3:
        images["T"] = RElem._trusted(spec, (Poly.variable(field, "T") + Poly.variable(
            field, "U", r.choice(exps)).scale(random_scalar(r, field, nonzero=True))).terms)
    if kind == "relation":
        images["y"] = images["y"] + RElem.var(spec, "x") * r.choice((1, RElem.var(spec, "U")))
    elif kind == "axiom_i":
        images["z"] = images["z"] + r.choice((1, RElem.var(spec, "x")))
    return ExponentialMap(spec, images)


@pytest.mark.parametrize("field", _SHIFT_FIELDS, ids=lambda f: f.label)
def test_verify_exponential_matches_the_reference(field):
    r = rng(113 + field.characteristic % 1000)
    spec = RingSpec(field, 2, Poly.const(field, 1))
    z, x, u = (RElem.var(spec, v) for v in "zxU")
    # z + x^n*U^2 and z + x^n*U^3 keep the relation, and fail axiom_ii
    # unless the exponent is a power of p (z + x^n*U^2 over Q, U^3 over F2)
    fixed = [ExponentialMap(spec, solve_generator_images(spec, z + x * x * u**e))
             for e in (2, 3)]
    seen = set()
    for phi in fixed + [_candidate(r, field, kind) for _ in range(6)
                        for kind in ("legal", "any", "relation", "axiom_i")]:
        report = verify_exponential(phi)
        got = [(c.name, c.passed, c.detail) for c in report.checks]
        assert got == reference_verify(phi), phi
        seen.add(tuple(passed for _, passed, _ in got))
    # the candidates pass, and fail each check
    assert (True, True, True) in seen
    assert all(any(not verdicts[k] for verdicts in seen) for k in range(3)), seen


def substituting_axiom_ii(phi) -> CheckResult:
    """The axiom_ii check with phi_S(phi_U(g)) substituted for every
    carrier g, y included, as verify_exponential made it before y was
    certified from the relation."""
    spec = phi.spec
    images_s = {v: u_renamed_s(img) for v, img in phi.images.items()}
    rows = {}
    bad = []
    for var in phi.carriers():
        img = phi.images[var]
        if unmoved(img, images_s, z_top=1):
            lhs = img.ints()
        else:
            lhs = substitute_view(spec, img, images_s)
        rhs = u_shifted(img, rows)
        if lhs[0] != rhs[0] or dict(lhs[1]) != dict(rhs[1]):
            lhs, rhs = (RElem._trusted(spec, None, v) for v in (lhs, rhs))
            bad.append(f"{var}: phi_S(phi_U) = {lhs} but phi_(S+U) = {rhs}")
    return CheckResult("axiom_ii", not bad, "; ".join(bad) if bad else "")


def assert_matches_substituting(phi) -> VerificationReport:
    """verify_exponential's report equals the one whose axiom_ii check
    substitutes every carrier; returns the report."""
    report = verify_exponential(phi)
    assert report.checks[-1].name == "axiom_ii"
    assert report == VerificationReport(report.checks[:-1] + (substituting_axiom_ii(phi),)), phi
    return report


def _legal_exponents(p: int) -> list:
    """The U-exponents build_exponential takes, up to 2^9: 1 over Q, 1 and
    each p^k over F_p."""
    exps = [1]
    while p and exps[-1] * p <= 2**9:
        exps.append(exps[-1] * p)
    return exps


@st.composite
def built_maps(draw):
    """A build_exponential map over Q, F2, F3 or F5 (n = 2 or 3, h of
    degree at most 1 with h(0) = +-1) with one to three nonzero f_e at
    distinct legal exponents e, and a term c*x^a*z^b*U^k, c = +-1, k >= 1."""
    field = draw(st.sampled_from(FIELDS))
    unit, small = st.sampled_from((1, -1)), st.integers(-3, 3)
    n = draw(st.integers(2, 3))
    h = Poly.from_items(field, [(mono(), draw(unit)), (mono(x=1), draw(small))])
    spec = RingSpec(field, n, h)
    coeffs = draw(st.lists(st.tuples(st.sampled_from(_legal_exponents(field.characteristic)),
                                     unit, small, small),
                           min_size=1, max_size=3, unique_by=lambda c: c[0]))
    phi = build_exponential(spec, [(e, Poly.from_items(field, [(mono(), c0), (mono(x=1), c1),
                                                               (mono(x=2), c2)]))
                                   for e, c0, c1, c2 in coeffs])
    x, z, u = (RElem.var(spec, v) for v in "xzU")
    a, b, k = draw(st.integers(0, 3)), draw(st.integers(0, 1)), draw(st.integers(1, 4))
    return phi, draw(unit) * x**a * z**b * u**k


def _tampered_maps(phi, term):
    """phi with the term added to the y-image alone, to the z-image alone,
    to both, and to the x-image, which then moves."""
    for names in (("y",), ("z",), ("y", "z"), ("x",)):
        images = dict(phi.images)
        for var in names:
            images[var] = images[var] + term
        yield ExponentialMap(phi.spec, images)


@settings(max_examples=60)
@given(built_maps())
def test_certified_y_matches_the_substituting_check(drawn):
    # y is certified from the relation on the built map and its bar map on
    # the graded ring; each tampered map breaks the relation or moves x, so
    # y is substituted as the reference does
    phi, term = drawn
    assert assert_matches_substituting(phi).passed
    bar = homogenize(phi, WeightVector({"x": 0, "y": 2, "z": 1})).bar
    assert bar.spec.graded and assert_matches_substituting(bar).passed
    for tampered in _tampered_maps(phi, term):
        assert not assert_matches_substituting(tampered).passed


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_certified_y_matches_on_the_remaining_kinds(field):
    # the witness map, whose carriers include T, and its tampered maps
    phi = build_witness(field, 2, 3).phi
    assert "T" in phi.carriers() and assert_matches_substituting(phi).passed
    x, z, u = (RElem.var(phi.spec, v) for v in "xzU")
    for tampered in _tampered_maps(phi, x * z * u):
        assert not assert_matches_substituting(tampered).passed
    # a free spec has no relation to certify y from
    free = RingSpec(field, 2, Poly.zero(field), free=True)
    fx, fy, fu = (RElem.var(free, v) for v in "xyU")
    for images in ({"y": fy + fx * fu}, {"y": fy + fu * fu}, {"y": fy + fx * fu, "x": fx + fu}):
        assert_matches_substituting(ExponentialMap(free, images))
    # x -> (1 + U)^2*x, z -> (1 + U)^2*z keeps the graded relation x^2*y = z^2
    # while x moves, and fails axiom_ii whatever y does
    graded = RingSpec(field, 2, Poly.zero(field), graded=True)
    gx, gy, gz, gu = (RElem.var(graded, v) for v in "xyzU")
    scale = (1 + gu) ** 2
    for image_y in (gy, gy + gu):
        report = assert_matches_substituting(
            ExponentialMap(graded, {"x": scale * gx, "y": image_y, "z": scale * gz}))
        assert report.check("relation").passed == (image_y == gy)
        assert not report.check("axiom_ii").passed
    # x -> 0, z -> 0 keep the relation, and x and z pass axiom_ii: only
    # phi(x) != x keeps y from being certified, and y + U^6 fails axiom_ii
    spec = RingSpec(field, 2, Poly.const(field, 1))
    zero, sy, su = RElem.zero(spec), RElem.var(spec, "y"), RElem.var(spec, "U")
    report = assert_matches_substituting(
        ExponentialMap(spec, {"x": zero, "y": sy + su**6, "z": zero}))
    assert report.check("relation").passed
    assert report.check("axiom_ii").detail.startswith("y: ")
    # z -> z + x^2*U^e keeps the relation, with the y-image it forces, and
    # fails axiom_ii on z unless e is 1 or a power of p; y is then substituted
    sx, sz = RElem.var(spec, "x"), RElem.var(spec, "z")
    for e in (2, 3, 6):
        report = assert_matches_substituting(
            ExponentialMap(spec, solve_generator_images(spec, sz + sx * sx * su**e)))
        assert report.check("relation").passed
        assert report.check("axiom_ii").passed == (e in _legal_exponents(field.characteristic))


def _fraction_weight(w: WeightVector, m: tuple) -> Fraction:
    total = Fraction(0)
    for var, e in zip(VARS, m):
        if e:
            total += e * w.weight(var)
    return total


def test_integer_weights_match_the_fraction_sum():
    r = rng(97)
    values = (0, 1, 2, -1, 3, Fraction(1, 2), Fraction(-3, 5), Fraction(7, 4))
    for _ in range(200):
        names = r.sample(VARS, r.randint(1, 6))
        pool = values if r.random() < 0.7 else values[:5]  # integral weights too
        w = WeightVector({v: r.choice(pool) for v in names})
        m = tuple(r.randint(0, 4) if VARS[i] in names or r.random() < 0.1 else 0
                  for i in range(6))
        try:
            expected = _fraction_weight(w, m)
        except InputError as exc:
            with pytest.raises(InputError) as got:
                w.mono_weight(m)
            assert str(got.value) == str(exc)
            assert re.fullmatch(r"weight vector does not assign a weight to '\w'", str(exc))
            continue
        assert w.mono_weight(m) == expected
    with pytest.raises(InputError, match="does not assign a weight to 'z'"):
        WeightVector({"x": Fraction(1, 2)}).mono_weight(mono(x=1, z=1))


_R = "R(n=2,h=1,field=Q)"
_MAP = "x->x; z->z+x^2*U; y->y+(2*z+1)*U+x^2*U^2"


_SUBSTITUTIONS = [
    # the relation and phi_S(phi_U(z)) (x is unmoved); phi_(S+U)(g) expands
    # by binomial rows and substitutes nothing, and y's coaction identity is
    # certified from the relation once x and z pass (3 when phi_S(phi_U(y))
    # was substituted too)
    (["exp-verify", "--ring", _R, "--map", _MAP], 2),
    # the same verification, then phi(y) (4 with y substituted)
    (["derive", "--ring", _R, "--map", _MAP, "--expr", "y", "--order", "2"], 3),
    # the verification of phi and of the bar map, y certified in both (6
    # with y substituted); the sampled invariants lie in k[x], which neither
    # map moves
    (["homogenize", "--ring", _R, "--map", _MAP, "--weights", "w{x:0, y:2, z:1}"], 4),
    # the composite applied to y: building the shear and the involution,
    # whose forced y-images substitute x -> 1*x into h, substitutes nothing
    (["aut-apply", "--ring", _R, "--word", "E(x) * T", "--expr", "y"], 1),
    # L(-1) moves x in the coefficients of E(x) and E(1+x); nothing else does
    (["aut-compose", "--ring", _R, "--word", "L(-1) * E(x) * T * E(1+x)"], 2),
    (["aut-decompose", "--ring", _R, "--word", "E(1) * T"], 0),
    # the witness's exponential map verified, applied and expanded in the
    # slice.  Once the exponential check passes, every coefficient of the
    # five expansions is invariant by the coaction identity and none is
    # substituted: 19 when the T, y2 and z2 rows' coefficients were (and
    # the T^2 and y2*z2 rows' certified as products of theirs), 24 with
    # every coefficient substituted.  The map's y and the embedded y1 are
    # certified from the relations (17 when both are substituted), and
    # phi(s) is formed once for slice_action and the five expansions (20
    # when each expansion applies phi to s again)
    (["cancel-verify", "--n1", "2", "--n2", "3", "--field", "Q"], 15),
]


@pytest.mark.parametrize("argv, count", _SUBSTITUTIONS, ids=[a[0] for a, _ in _SUBSTITUTIONS])
def test_substitution_count(argv, count, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return substitute_terms(*args, **kwargs)

    # every module that binds it, so that no call goes round the count
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("dansurf.")
                and getattr(module, "substitute_terms", None) is substitute_terms):
            monkeypatch.setattr(module, "substitute_terms", counting)
    assert dispatch(argv)[0] == 0
    assert len(calls) == count, argv


def _relem_products(argv, monkeypatch) -> int:
    """The RElem products (int * RElem too) that dispatch(argv) makes."""
    calls = []
    mul = RElem.__mul__

    def counting(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(RElem, "__mul__", counting)
    monkeypatch.setattr(RElem, "__rmul__", counting)
    assert dispatch(argv)[0] == 0
    return len(calls)


@pytest.mark.parametrize("field, count", [("F3", 0), ("F2", 2)], ids=["F3", "F2"])
def test_relem_product_count_of_frobenius_powers(field, count, monkeypatch):
    # z^81 multiplies only for a remainder below p: none over F3 (81 = 3^4),
    # z^5 = frobenius(z^2) * z and z^81 = frobenius(z^40) * z over F2; each
    # Frobenius step folds by the relation step instead
    argv = ["normal-form", "--ring", f"R(n=2,h=1,field={field})", "--expr", "z^81"]
    assert _relem_products(argv, monkeypatch) == count, argv


# 64 and 56 when the T, y2 and z2 rows' coefficients were substituted and
# the T^2 and y2*z2 rows' certified by products of theirs, 58 and 49 with
# every coefficient substituted: the coaction identity certifies them all
@pytest.mark.parametrize("n1, n2, field, count", [(2, 3, "Q", 49), (3, 5, "F3", 46)],
                         ids=["Q", "F3"])
def test_relem_product_count_of_cancel_verify(n1, n2, field, count, monkeypatch):
    # the slice_generates check forms each power of s and of U - s once for
    # its five elements, over F3 the powers of s from s^3 on are Frobenius
    # steps, and the map's applies and relation check form each power of an
    # image once in its memo: a power of s formed again per element (51 and
    # 48 products), a product chain up to 2p (49 and 49), a power of an
    # image formed per apply (50 and 46) or a shift memo per element (51 and
    # 48) makes more products
    argv = ["cancel-verify", "--n1", str(n1), "--n2", str(n2), "--field", field]
    assert _relem_products(argv, monkeypatch) == count, argv


def _fold_pairs(argv, monkeypatch) -> int:
    """The term pairs, the sum of |left|*|right| over the views that
    polyring.fold_product folds, of dispatch(argv)."""
    pairs = []
    fold = polyring.fold_product

    def counting(acc, left, right):
        pairs.append(len(left[1]) * len(right[1]))
        return fold(acc, left, right)

    monkeypatch.setattr(polyring, "fold_product", counting)
    monkeypatch.setattr(surface, "fold_product", counting)
    assert dispatch(argv)[0] == 0
    return sum(pairs)


_FOLDS = [
    # the witness map's 8 applies and its relation check share its memo of
    # image powers and group products, and the five shifts U -> U - s share
    # one: 1202 pairs with a memo per apply, 1309 with one per shift;
    # the coaction check's phi_(S+U)(g) expands by binomial rows and folds
    # nothing, where substituting U -> S + U folds 7 pairs more.  2123 when
    # the T, y2 and z2 rows' coefficients were substituted through the map
    # and the T^2 and y2*z2 rows' certified as products of theirs, 4265
    # with every coefficient substituted; the coaction identity certifies
    # them all now.  1213 when phi_S(phi_U(y)) and phi(y1) are substituted,
    # and 1343 with both certified from the relations but phi applied to s
    # again in each of the five expansions
    (["cancel-verify", "--n1", "2", "--n2", "3", "--field", "Q"], 1188),
    # L(2) sends x -> 2*x and y -> y/8, which act on each term in place:
    # 951 pairs with the two images bound
    (["aut-apply", "--ring", "R(n=3,h=1,field=Q)", "--word", "L(2) * T * E(x)",
      "--expr", "(1/2 + x - 2/3*y + 3*z)^4"], 680),
]


@pytest.mark.parametrize("argv, pairs", _FOLDS, ids=[a[0] for a, _ in _FOLDS])
def test_fold_term_pairs(argv, pairs, monkeypatch):
    assert _fold_pairs(argv, monkeypatch) == pairs, argv


def _scalars_formed(argv, monkeypatch) -> int:
    """The Scalars that dispatch(argv) constructs, with the spec and map
    caches emptied first so that the ring is parsed again."""
    count = [0]
    init = scalars.Scalar.__init__

    def counting(self, field, value):
        count[0] += 1
        init(self, field, value)

    ioformats.parse_ring_spec.cache_clear()
    ioformats._map_images.cache_clear()
    monkeypatch.setattr(scalars.Scalar, "__init__", counting)
    assert dispatch(argv)[0] == 0
    return count[0]


# A Poly stores its reduced integer view, and its Scalars are formed only
# when `.terms` is read: when every fold, substitution and Frobenius result
# formed one Scalar per term, these two commands formed 1146 and 442.
_SCALARS = [(_FOLDS[0][0], 22), (_FOLDS[1][0], 28)]


@pytest.mark.parametrize("argv, formed", _SCALARS, ids=[a[0] for a, _ in _SCALARS])
def test_scalars_formed(argv, formed, monkeypatch):
    assert _scalars_formed(argv, monkeypatch) == formed, argv


@pytest.mark.parametrize("field", [F2, F3, F5, FieldSpec(2147483647)], ids=lambda f: f.label)
def test_monomial_images_with_exponents_near_a_million(field):
    # x^999999*y^3 + 5*x*T under the swap x -> c*y, y -> d*x, in place with
    # pow(c, e, p), against the closed form and the powers of the images
    p, e = field.characteristic, 999_999
    c, d = p - 1, (p + 1) // 2
    poly = Poly.from_items(field, [(mono(x=e, y=3), 1), (mono(x=1, T=1), 5)])
    expected = Poly.from_items(field, [(mono(x=3, y=e), pow(c, e, p) * d**3),
                                       (mono(y=1, T=1), 5 * c)])
    images = {"x": Poly.variable(field, "y").scale(c), "y": Poly.variable(field, "x").scale(d)}
    t = Poly.variable(field, "T")
    assert expected == images["x"] ** e * images["y"] ** 3 + 5 * images["x"] * t
    assert poly.substitute(images) == expected
    spec = RingSpec(field, 2, Poly.const(field, 1))
    elems = {v: RElem._trusted(spec, img.terms) for v, img in images.items()}
    assert substitute_poly(spec, poly, elems).to_poly() == expected
