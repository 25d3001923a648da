import json
from pathlib import Path

import pytest

from dansurf import (
    FieldSpec,
    ParseError,
    Poly,
    WeightVector,
    compose,
    involution,
    parse_aut_word,
    parse_generator_map,
    parse_poly,
    parse_ring_spec,
    parse_weights,
    scaling,
    shear,
)
from dansurf.cli import dispatch
from dansurf.ioformats import MAX_NESTING, format_generator_map
from dansurf.polyring import format_poly, mono
from fractions import Fraction

from conftest import F2, F3, F5, F7, Q, random_poly, rng, standard_spec


def test_parse_relation_example():
    p = parse_poly("x^2*y - z^2 - (1 + x)*z", Q)
    expected = (
        Poly.variable(Q, "x", 2) * Poly.variable(Q, "y")
        - Poly.variable(Q, "z", 2)
        - (Poly.const(Q, 1) + Poly.variable(Q, "x")) * Poly.variable(Q, "z")
    )
    assert p == expected


def test_parse_zero():
    assert parse_poly("0", Q).is_zero()


def test_no_implicit_multiplication():
    with pytest.raises(ParseError) as exc:
        parse_poly("2x", Q)
    assert exc.value.offset == 1


# Refusals whose message or offset depends on what comes before or after
# the offending character: a character no token takes is reported first,
# wherever it is; inside parentheses a stray token is a missing ')'; after
# a sign or an operator the next token is the one refused; a bound or a
# denominator is checked at its own factor.
_CONTEXT_REFUSALS = (
    ("x + + \u00b2", "unexpected character '\u00b2'", 6),
    ("(x0", "expected ')'", 2),
    ("(x/2)", "expected ')'", 2),
    ("x0", "unexpected '0'", 1),
    ("*)", "unexpected '*'", 0),
    ("-", "unexpected end of input", 1),
    ("1/0^1000001", "zero denominator", 2),
    ("q^1000001", "unknown variable 'q'", 0),
    ("(x^999999+1)*x^2", "product has exponent 999999 + 2, which exceeds 1000000", 13),
    ("x^999999*(x^2 + 1)", "product has exponent 999999 + 2, which exceeds 1000000", 9),
    ("x^2^3", "unexpected '^'", 3),
    ("1/ x", "expected an integer denominator", 3),
)


@pytest.mark.parametrize("text, message, offset", _CONTEXT_REFUSALS,
                         ids=[repr(case[0]) for case in _CONTEXT_REFUSALS])
def test_refusals_read_from_context(text, message, offset):
    for field in (Q, F2, F3, F5):
        with pytest.raises(ParseError) as exc:
            parse_poly(text, field)
        assert (exc.value.message, exc.value.offset) == (message, offset), field


# 408 refusals of fuzzed, flat, character-soup and nesting texts over Q and
# F_p, each (text, field, message, offset) as the recursive-descent parser
# that the one-pass reader replaced reported it: stratified by message,
# the character at the offset and the one before it.
_PINNED_REFUSALS = json.loads((Path(__file__).parent / "data" / "refusals.json").read_text())


def test_pinned_refusals():
    fields = {}
    wrong = []
    for text, name, message, offset in _PINNED_REFUSALS:
        field = fields.setdefault(name, FieldSpec.parse(name))
        try:
            parse_poly(text, field)
            wrong.append((text, name, "accepted"))
        except ParseError as exc:
            if (exc.message, exc.offset) != (message, offset):
                wrong.append((text, name, exc.message, exc.offset))
    assert len(_PINNED_REFUSALS) == 408
    assert wrong == []


def test_long_whitespace_is_read_in_one_pass():
    # a reader that retries each position of a whitespace run takes minutes
    # on these texts; the one-pass reader takes milliseconds
    gap = " \t" * 50_000
    for text, message, offset in (("x ^" + gap, "expected a natural-number exponent", 100_003),
                                  ("x +" + gap, "unexpected end of input", 100_003),
                                  (gap, "unexpected end of input", 100_000),
                                  ("x ^" + gap + "2 +" + gap + "y", None, None)):
        if message is None:
            assert parse_poly(text, Q) == parse_poly("x^2 + y", Q)
            continue
        with pytest.raises(ParseError) as exc:
            parse_poly(text, Q)
        assert (exc.value.message, exc.value.offset) == (message, offset)


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as exc:
        parse_poly("x + ", Q)
    assert exc.value.offset == 4
    with pytest.raises(ParseError):
        parse_poly("x ^ y", Q)
    with pytest.raises(ParseError):
        parse_poly("w + 1", Q)
    with pytest.raises(ParseError):
        parse_poly("(x + 1", Q)
    # only the ASCII digits 0-9 are digits
    with pytest.raises(ParseError) as exc:
        parse_poly("\u00b2", Q)
    assert exc.value.offset == 0
    with pytest.raises(ParseError) as exc:
        parse_poly("x^\u0663", Q)
    assert exc.value.offset == 2
    # offsets count from the start of the whole ring spec, map or weight text
    with pytest.raises(ParseError) as exc:
        parse_ring_spec("R(n=2,h=1+*x,field=Q)")
    assert exc.value.offset == 10
    with pytest.raises(ParseError) as exc:
        parse_ring_spec(" R(n=\u0662,h=1,field=Q)")
    assert exc.value.offset == 5
    with pytest.raises(ParseError) as exc:
        parse_ring_spec("R(n=2,h=1,field=F\u0665)")
    assert exc.value.offset == 17
    with pytest.raises(ParseError) as exc:
        parse_weights("w{x:0, y:2, z:\u0661}")
    assert exc.value.offset == 14
    # weight keys are variables named once; numbers are not Python literals
    for text, message, offset in (
        ("w{x:0, y:2, z:1, q:1}", "unknown variable 'q' in weight vector", 17),
        ("w{x:3, y:2, z:1, x:0}", "repeated weight for x", 17),
        ("w{x:0, y:2, Z:1, z:1}", "repeated weight for z", 17),
        ("w{x:0, y:2, z:1e0}", "bad weight value '1e0'", 14),
        ("w{x:0, y:2, z: 1.0}", "bad weight value '1.0'", 15),
        ("w{x:0_0, y:2, z:1}", "bad weight value '0_0'", 4),
        ("w{x:0, y:2, z:1/+2}", "bad weight value '1/+2'", 16),
        ("w{x:0, y:2, z:/2}", "bad weight value '/2'", 14),
    ):
        with pytest.raises(ParseError) as exc:
            parse_weights(text)
        assert (exc.value.message, exc.value.offset) == (message, offset), text
    assert parse_weights("w{x:-1/3, Y:2, z:0}") == WeightVector(
        {"x": Fraction(-1, 3), "y": 2, "z": 0})
    for text, offset in (("R(n=1_0,h=1,field=Q)", 4), ("R(n= +2,h=1,field=Q)", 5),
                         ("R(n=2.0,h=1,field=Q)", 4)):
        with pytest.raises(ParseError, match="bad n value") as exc:
            parse_ring_spec(text)
        assert exc.value.offset == offset, text
    # a --coeff exponent past the bound is worded as the grammar words U^E,
    # at the start of its item
    for e_text, message in (("0001048576", "exponent 1048576 exceeds 1000000"),
                            ("1" + "0" * 5000, "exponent of 5001 digits exceeds 1000000")):
        with pytest.raises(ParseError) as exc:
            parse_poly("U^" + e_text, Q)
        assert (exc.value.message, exc.value.offset) == (message, 2)
        argv = ["exp-build", "--ring", "R(n=2,h=1,field=Q)", "--coeff", e_text + ":1"]
        assert dispatch(argv) == (2, f"input error: {message} (offset 0)")
    spec = standard_spec(Q)
    with pytest.raises(ParseError) as exc:
        parse_generator_map("x->x; z->z+*x; y->y", spec)
    assert exc.value.offset == 11
    # a repeated key or generator is an error that names it, not last-wins
    with pytest.raises(ParseError, match="repeated ring-spec key 'field'") as exc:
        parse_ring_spec("R(n=2,h=1,field=Q,field=F2)")
    assert exc.value.offset == 18
    with pytest.raises(ParseError, match="repeated image for x") as exc:
        parse_generator_map("x->x; x->2*x", spec)
    assert exc.value.offset == 6
    # nesting beyond MAX_NESTING parentheses is an error at the first '(' too deep
    assert parse_poly("(" * MAX_NESTING + "x" + ")" * MAX_NESTING, Q) == parse_poly("x", Q)
    for depth in (MAX_NESTING + 1, 300, 5000):
        with pytest.raises(ParseError, match="nested deeper than 200") as exc:
            parse_poly("x + " + "(" * depth + "x" + ")" * depth, Q)
        assert exc.value.offset == 4 + MAX_NESTING
    # a product past the exponent bound is an error at the offending factor
    for text, offset in (("x^1000000*x^1000000", 10), ("x^999999 * (x + 1) * x", 21),
                         ("y*(x^1000 + 1)^1000*x^1", 20)):
        with pytest.raises(ParseError, match="product has exponent") as exc:
            parse_poly(text, F2)
        assert exc.value.offset == offset, text
    assert not parse_poly("x^1000000*y^1000000", F2).is_zero()
    # an exponent or characteristic too long for int() is rejected by its length
    with pytest.raises(ParseError, match="exponent of 5000 digits") as exc:
        parse_poly("x^" + "9" * 5000, Q)
    assert exc.value.offset == 2
    with pytest.raises(ParseError, match="characteristic of 5000 digits") as exc:
        parse_ring_spec("R(n=2,h=1,field=F" + "9" * 5000 + ")")
    assert exc.value.offset == 17
    # automorphism-word offsets count from the start of the whole word
    for word, message, offset in (
        ("L(2) * Q(3)", "unknown automorphism factor 'Q(3)'", 7),
        ("L(2) * E(x+y)", "shear argument must be a polynomial in x", 7),
        ("L(2) * E(x+*1)", "unexpected '*'", 11),
    ):
        with pytest.raises(ParseError) as exc:
            parse_aut_word(word, spec)
        assert (exc.value.message, exc.value.offset) == (message, offset)


def test_exponent_overflow():
    with pytest.raises(ParseError):
        parse_poly("x^1000001", Q)
    parse_poly("x^3", Q)
    # the bound holds for the exponents of a power, checked before it is formed
    for text, field, offset in (("(x^1000000)^1000000", Q, 12), ("(x^1000)^1001", F2, 9),
                                ("(1 + x*y^2)^500001", F3, 12), ("((S + U)^2)^500001", F5, 12)):
        with pytest.raises(ParseError, match="exceeds 1000000") as exc:
            parse_poly(text, field)
        assert exc.value.offset == offset, text
    assert parse_poly("(x^1000)^1000", F2) == parse_poly("x^1000000", F2)
    assert parse_poly("(1 + y^2)^390625", F5) == parse_poly("1 + y^781250", F5)
    assert parse_poly("2^1000 * x", F7) == parse_poly("2^4 * x", F7)
    # the bound is per variable, and a product that is 0 has no exponents
    assert parse_poly("x^1000000*y^1000000*(T - T)*x^1000000", F2).is_zero()
    assert parse_poly("x^999999*y^1000000*x", Q) == parse_poly("y^1000000*x^1000000", Q)
    with pytest.raises(ParseError, match=r"product has exponent 999999 \+ 2") as exc:
        parse_poly("y*(x^999999 + y)*x^2", Q)
    assert exc.value.offset == 17


def test_sum_parses_in_linear_time(monkeypatch):
    # a sum adds each term into one term dict; adding polynomial by
    # polynomial copies the partial sum once per term, quadratic in the terms
    n = 2000
    text = " + ".join(f"{k}*x^{k}*y" for k in range(1, n + 1)) + " - 5*x^7*y - 3*x^3*y"
    calls = []
    add = Poly.__add__
    monkeypatch.setattr(Poly, "__add__", lambda p, q: calls.append(1) or add(p, q))
    p = parse_poly(text, Q)
    assert len(calls) <= 1
    assert p == Poly.from_items(Q, [(mono(x=k, y=1), k - 5 * (k == 7) - 3 * (k == 3))
                                    for k in range(1, n + 1)])
    assert len(p.terms) == n - 1


def test_fraction_literals():
    assert parse_poly("1/2", Q).constant_value() == Q.scalar(Fraction(1, 2))
    assert parse_poly("3/2*x", Q) == Poly.variable(Q, "x").scale(Fraction(3, 2))
    assert parse_poly("1/2", F5).constant_value() == F5.scalar(3)
    with pytest.raises(ParseError):
        parse_poly("1/0", Q)
    with pytest.raises(ParseError):
        parse_poly("1/5", F5)


def test_aliases_normalize():
    assert parse_poly("X^2*Y - Z", Q) == parse_poly("x^2*y - z", Q)


def test_unary_minus():
    assert parse_poly("-z + x", Q) == parse_poly("x - z", Q)


def test_print_examples():
    assert format_poly(parse_poly("x^2*y - z", Q)) == "x^2*y - z"
    assert format_poly(Poly.zero(Q)) == "0"
    assert format_poly(parse_poly("y+(2*z+1)*U+x^2*U^2", Q)) == "x^2*U^2 + 2*z*U + y + U"
    assert format_poly(parse_poly("-x - 1/2", Q)) == "-x - 1/2"
    assert format_poly(parse_poly("4*x", F5)) == "4*x"


def test_round_trip_idempotence():
    r = rng(60)
    for field in (Q, F5):
        for _ in range(150):
            p = random_poly(r, field, ("x", "y", "z", "U"), max_terms=5, max_exp=3)
            text = format_poly(p)
            assert parse_poly(text, field) == p
            assert format_poly(parse_poly(text, field)) == text


def test_ring_spec_round_trip():
    spec = parse_ring_spec("R(n=2,h=1,field=Q)")
    assert spec == standard_spec(Q, 2, "1")
    assert str(spec) == "R(n=2, h=1, field=Q)"
    assert parse_ring_spec(str(spec)) == spec
    graded = parse_ring_spec("R(n=3, h=0, field=F2, graded)")
    assert graded.graded and graded.h.is_zero()
    free = parse_ring_spec("R(n=2, h=0, field=F5, free)")
    assert free.free


def test_ring_spec_errors():
    with pytest.raises(ParseError):
        parse_ring_spec("S(n=2,h=1,field=Q)")
    with pytest.raises(ParseError):
        parse_ring_spec("R(n=2,h=1)")
    with pytest.raises(ParseError):
        parse_ring_spec("R(h=1,field=Q)")


def test_weight_vector_parse():
    w = parse_weights("w{x:0, y:2, z:1}")
    assert w == WeightVector({"x": 0, "y": 2, "z": 1})
    w = parse_weights("w{x:1/5, U:-2/5}")
    assert w.weight("x") == Fraction(1, 5)
    assert w.weight("U") == Fraction(-2, 5)
    with pytest.raises(ParseError):
        parse_weights("x:0")
    with pytest.raises(ParseError):
        parse_weights("w{x=0}")


def test_generator_map_round_trip():
    spec = standard_spec(Q, 2, "1")
    text = "x -> x; y -> y + (2*z + 1)*U + x^2*U^2; z -> z + x^2*U"
    images = parse_generator_map(text, spec)
    assert format_generator_map(images) == (
        "x -> x; y -> x^2*U^2 + 2*z*U + y + U; z -> x^2*U + z"
    )
    with pytest.raises(ParseError):
        parse_generator_map("x -> x; y -> y", spec)  # missing z
    with pytest.raises(ParseError):
        parse_generator_map("x -> x; y -> y; w -> z", spec)


def test_aut_word_parse():
    spec = standard_spec(Q, 2, "1")
    word = parse_aut_word("L(2) * T * E(x+1)", spec)
    manual = compose(scaling(spec, 2), compose(involution(spec), shear(spec, parse_poly("x+1", Q))))
    assert word == manual


def test_aut_word_rightmost_acts_first():
    spec = standard_spec(Q, 2, "1")
    word = parse_aut_word("T * E(1)", spec)
    # applying to z: E_1 first gives z + x^2, then T gives -(z + ... ) wait, compute both orders
    a = compose(involution(spec), shear(spec, 1))
    b = compose(shear(spec, 1), involution(spec))
    assert word == a and word != b


def test_aut_word_errors():
    spec = standard_spec(Q, 2, "1")
    with pytest.raises(ParseError):
        parse_aut_word("Q(2)", spec)
    with pytest.raises(ParseError):
        parse_aut_word("E(z)", spec)
    with pytest.raises(ParseError):
        parse_aut_word("L(2) * ", spec)


# Regex features that need Python 3.11 (pyproject.toml allows 3.10).
_NEWER_OPCODES = {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}


def _opcodes(parsed):
    """The opcode names of a parsed regex, nested groups and repeats too."""
    for op, av in parsed:
        yield str(op)
        stack = [av]
        while stack:
            item = stack.pop()
            if isinstance(item, (tuple, list)):
                stack.extend(item)
            elif hasattr(item, "data"):  # a nested SubPattern
                yield from _opcodes(item)


def test_regexes_compile_under_python_3_10():
    import importlib
    import pkgutil
    import re
    import sys

    import dansurf

    try:
        from re import _parser  # Python 3.11 on
    except ImportError:
        import sre_parse as _parser
    if sys.version_info >= (3, 11):  # the walk finds what it looks for
        for pattern in ("a*+", "(?>a|b)", "(x(?:y++))"):
            assert _NEWER_OPCODES & set(_opcodes(_parser.parse(pattern))), pattern
    patterns = []
    for info in pkgutil.iter_modules(dansurf.__path__, "dansurf."):
        for value in vars(importlib.import_module(info.name)).values():
            values = [value, *vars(value).values()] if isinstance(value, type) else [value]
            patterns += [v for v in values if isinstance(v, re.Pattern)]
    assert len(patterns) >= 4
    for pattern in patterns:
        found = set(_opcodes(_parser.parse(pattern.pattern, pattern.flags)))
        assert not found & _NEWER_OPCODES, pattern.pattern
