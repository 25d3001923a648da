"""Expression parser and canonical printers for the CLI and file formats.

Grammar (no implicit multiplication; integers and exponents use the ASCII
digits 0-9):

    expr   := ('+' | '-')? term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' nat)?
    base   := scalar | var | '(' expr ')'
    scalar := int | int '/' int

Variables are x, y, z, T, U, S; the aliases X, Y, Z normalize to lowercase.
Outside expressions, an integer (n, --coeff exponents, --order, --n1, --n2)
is '-'? followed by digits, and a weight is such an integer, optionally
followed by '/' and a positive denominator.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import islice

from .errors import InputError, ParseError
from .polyring import VARS, ZERO_MONO, Poly, WeightVector, format_poly
from .scalars import (FieldSpec, Scalar, digits_to_int, int_to_str, rational, read_int,
                      read_rational)
from .surface import RElem, RingSpec, normal_form

MAX_EXPONENT = 10**6
# The reader keeps one stack entry per open parenthesis; deeper nesting is an
# input error, so no text makes the stack grow without bound.
MAX_NESTING = 200
ALIASES = {"X": "x", "Y": "y", "Z": "z"}
KNOWN_VARS = {"x", "y", "z", "T", "U", "S"}


def read_exponent(text: str, at: int, what: str) -> int:
    """read_int(text), refused above MAX_EXPONENT by a ParseError at `at`: a
    text of digits alone by its digit count, before it is converted."""
    natural = text.isascii() and text.isdigit()
    digits = text.lstrip("0")
    if natural and len(digits) > len(str(MAX_EXPONENT)):
        raise ParseError(f"exponent of {len(digits)} digits exceeds {MAX_EXPONENT}", at)
    e = int("0" + digits) if natural else read_int(text, at, what)
    if e > MAX_EXPONENT:
        raise ParseError(f"exponent {e} exceeds {MAX_EXPONENT}", at)
    return e


def _tops(p: Poly) -> tuple:
    """The largest exponent of each variable in p (0 for the zero polynomial)."""
    items = p.ints()[1]
    return tuple(map(max, zip(*[m for m, _ in items]))) if items else ZERO_MONO


# One factor and the operator before it: '+', '-', '*' or none (group 1),
# then an integer (2) over an optional denominator (3), a run of letters
# (4) or ')' (5), each with an optional exponent (6); or '(' (7); or else
# (8) the next character that is not whitespace, where no factor starts.
# Unmatched groups read ''.  [^\W\d_] is every letter (str.isalpha), and
# also the numeric characters outside 0-9, such as '²', which no name
# takes; \s is str.isspace.  Every match starts with the whitespace before
# it, and (8) takes any other character, so in a text with no trailing
# whitespace no match fails after it and the scan stays linear.
_FACTOR = re.compile(r"\s*(?:([-+*]?)\s*(?:(?:([0-9]+)(?:\s*/\s*([0-9]+))?|([^\W\d_]+)|(\)))"
                     r"(?:\s*\^\s*([0-9]+))?|(\())|(\S))")
_OP, _INT, _DEN, _NAME, _CLOSE, _EXP, _OPEN, _OTHER = range(1, 9)
_VAR_INDEX = {v: VARS.index(ALIASES.get(v, v)) for v in "xyzTUSXYZ"}
# A character outside whitespace, the ASCII digits and letters and the
# operators: no token takes it unless it is a letter (str.isalpha).
_UNUSUAL = re.compile(r"[^\s0-9A-Za-z()*+/^-]")


def _unusual(text: str):
    """The ParseError at the first character of text that no token takes,
    or None."""
    for mt in _UNUSUAL.finditer(text):
        if not mt.group().isalpha():
            return ParseError(f"unexpected character {mt.group()!r}", mt.start())
    return None


class _Refused(Exception):
    """A text refused at the k-th match of _FACTOR (None: at its end), at the
    start of `group`, with `message` (None: the token found there is
    unexpected)."""


def _exponent(digits: str, k: int) -> int:
    """The exponent of seven or more digits at the k-th match, read and
    bounded by read_exponent."""
    try:
        return read_exponent(digits, 0, "exponent")
    except ParseError as exc:
        raise _Refused(k, _EXP, exc.message) from None


def _add_term(field: FieldSpec, sums: dict, polys: list, c, negate: bool, tops: list, rest):
    """Add the term c*x^tops*rest to a sum: its raw coefficient to `sums` when
    rest, the product of its parenthesized sums, is None; else (if c is
    nonzero) rest times c and the monomial that shifts rest's tops to tops
    as a Poly to `polys`."""
    if negate:
        c = -c
    if rest is None:
        m = tuple(tops)
        sums[m] = sums.get(m, 0) + c
    elif c:
        m = tuple([a - b for a, b in zip(tops, _tops(rest))])
        polys.append(rest if c == 1 and m == ZERO_MONO else
                     rest * Poly(field, {m: field.scalar(c)}))


def _sum(field: FieldSpec, sums: dict, polys: list) -> Poly:
    """A sum as a Poly: one Scalar formed for each raw sum, and the terms of
    the Polys added to them, the monomials whose coefficients cancel
    dropped."""
    p = field.characteristic
    if p:
        terms = {m: Scalar(field, c % p) for m, c in sums.items() if c % p}
    else:
        terms = {m: Scalar(field, rational(c)) for m, c in sums.items() if c}
    if polys:
        if len(polys) == 1 and not terms:
            return polys[0]
        raw, terms = terms, dict(polys[0].terms)
        for part in [q.terms for q in polys[1:]] + [raw]:
            for m, c in part.items():
                s = terms.get(m)
                s = c if s is None else s + c
                if s.is_zero():
                    terms.pop(m, None)
                else:
                    terms[m] = s
    return Poly(field, terms)


def _read(text: str, field: FieldSpec) -> Poly:
    """The Poly of a text, in one pass of _FACTOR.  A product of scalars and
    variables stays raw while it is read: one coefficient c (an int or
    Fraction over Q, a residue over F_p) and the largest exponent of each
    variable in the product (tops; without parenthesized sums, the product
    is c*x^tops).  A sum is a dict of raw coefficients, and a Scalar is
    formed only for each term of a result.  Only a parenthesized sum of two
    or more terms becomes a Poly, multiplied and powered as one.  An open
    parenthesis pushes the sum and term being read; its ')' pops them."""
    p = field.characteristic
    stack, scanned = [], False  # scanned: _unusual found nothing in text
    sums, polys = {}, []
    c, negate, tops, rest = None, False, [0, 0, 0, 0, 0, 0], None  # c is None: no factor yet
    factors = _FACTOR.findall(text.rstrip())  # linear: see _FACTOR
    for k, (op, digits, den, name, close, exp, opn, other) in enumerate(factors):
        if other:
            raise _Refused(k, _OTHER, None)
        if c is None:  # the first factor of a sum, after an optional sign
            if op == "*" or close:
                raise _Refused(k, _OP if op == "*" else _CLOSE, None)
            c, negate = 1, op == "-"
        elif not op:
            if not close:  # two factors with no operator between them
                raise _Refused(k, _INT if digits else _NAME if name else _OPEN,
                               "expected ')'" if stack else None)
        elif op != "*":  # a new term
            if rest is None:
                m = tuple(tops)
                sums[m] = sums.get(m, 0) + (-c if negate else c)
            else:
                _add_term(field, sums, polys, c, negate, tops, rest)
            c, negate, tops, rest = 1, op == "-", [0, 0, 0, 0, 0, 0], None
        if name:
            try:
                i = _VAR_INDEX[name]
            except KeyError:
                raise _Refused(k, _NAME, f"unknown variable {name!r}") from None
            e = (int(exp) if len(exp) < 7 else _exponent(exp, k)) if exp else 1
            # a product's top exponent in a variable is the sum of its
            # factors' tops there: their leading terms multiply to a nonzero
            # term.  A zero product's tops are 0.
            top = tops[i] + e
            if top > MAX_EXPONENT:
                raise _Refused(k, _NAME, f"product has exponent {tops[i]} + {e}, which exceeds "
                                         f"{MAX_EXPONENT}")
            if c:
                tops[i] = top
        elif digits:
            value = digits_to_int(digits)
            if den:
                d = digits_to_int(den)
                if d == 0:
                    raise _Refused(k, _DEN, "zero denominator")
                try:
                    value = field.scalar(Fraction(value, d)).value
                except InputError as exc:
                    raise _Refused(k, _INT, str(exc)) from None
            elif p:
                value %= p
            if exp:
                e = int(exp) if len(exp) < 7 else _exponent(exp, k)
                value = pow(value, e, p) if p else value**e
            # (1 times a Fraction would form a new Fraction)
            c = c * value % p if p else value if c == 1 else c * value
            if not c:
                tops = [0, 0, 0, 0, 0, 0]
        elif opn:
            if len(stack) == MAX_NESTING:
                raise _Refused(k, _OPEN, f"parentheses nested deeper than {MAX_NESTING}")
            stack.append((sums, polys, c, negate, tops, rest, k))
            sums, polys = {}, []
            c, negate, tops, rest = None, False, [0, 0, 0, 0, 0, 0], None
        else:  # ')': the sum it closes is the factor q, or qc*x^q_tops
            if op or not stack:  # after an operator, or with no '(' open
                raise _Refused(k, _CLOSE, None)
            _add_term(field, sums, polys, c, negate, tops, rest)
            q = _sum(field, sums, polys)
            sums, polys, c, negate, tops, rest, k_open = stack.pop()
            d, items = q.ints()
            if len(items) > 1:
                qc, q_tops = 1, _tops(q)
            elif items:
                (q_tops, v), = items
                qc, q = (v if d == 1 else rational(Fraction(v, d))), None
            else:
                qc, q_tops, q = 0, ZERO_MONO, None
            if exp:
                e = int(exp) if len(exp) < 7 else _exponent(exp, k)
                top = max(q_tops)
                if top * e > MAX_EXPONENT:
                    raise _Refused(k, _EXP, f"power has exponent {top} * {e}, which exceeds "
                                            f"{MAX_EXPONENT}")
                if q is None:
                    qc = pow(qc, e, p) if p else qc**e
                else:
                    if not scanned:  # a text _refusal refuses anyway forms no power
                        if _unusual(text):
                            raise _Refused(None, None, None)
                        scanned = True
                    q = q**e
                q_tops = [a * e for a in q_tops]
            summed = [a + b for a, b in zip(tops, q_tops)]
            if max(summed) > MAX_EXPONENT:
                a, b = next((a, b) for a, b in zip(tops, q_tops) if a + b > MAX_EXPONENT)
                raise _Refused(k_open, _OPEN, f"product has exponent {a} + {b}, which exceeds "
                                              f"{MAX_EXPONENT}")
            c = c * qc % p if p else c * qc
            if q is not None:
                rest = q if rest is None else rest * q
            tops = summed if c else [0, 0, 0, 0, 0, 0]
    if c is None:
        raise _Refused(None, None, None)
    if stack:
        raise _Refused(None, None, "expected ')'")
    _add_term(field, sums, polys, c, negate, tops, rest)
    return _sum(field, sums, polys)


_TOKEN = re.compile(r"[0-9]+|[^\W\d_]+|.", re.S)
_SPACE = re.compile(r"\s*")


def _refusal(text: str, k, group, message) -> ParseError:
    """The ParseError for a text _read refused: the first character that no
    token takes, wherever it is; else the refusal at the k-th match, which
    is found by scanning again.  A stray character (_OTHER) is read from
    the match before it: after a sign or an operator a factor is missing,
    after a base an exponent or a denominator may be, and anywhere else it
    is unexpected, or inside parentheses a missing ')'.  Each of these
    branches restates a rule that _read enforces, and must change with it;
    tests/test_io.py's test_refusals_read_from_context and the refusals
    pinned in tests/data/refusals.json check them."""
    error = _unusual(text)
    if error:
        return error
    if k is None:
        at = len(text)
    else:
        matches = list(islice(_FACTOR.finditer(text), k + 1))
        mt = matches[k]
        at = mt.start(group)
        if group == _OTHER:
            ch, prev = mt.group(_OTHER), matches[k - 1] if k else None
            after = _SPACE.match(text, mt.end()).end()
            if prev is None or prev.group(_OPEN):  # the start of a sum
                if ch in "+-":
                    at = after
            elif ch in "+-*":
                at = after
            elif ch == "^" and not prev.group(_EXP):
                at, message = after, "expected a natural-number exponent"
            elif ch == "/" and prev.group(_INT) and not (prev.group(_DEN) or prev.group(_EXP)):
                at, message = after, "expected an integer denominator"
            elif sum(1 if m.group(_OPEN) else -1 if m.group(_CLOSE) else 0 for m in matches):
                message = "expected ')'"
    if message is None:
        message = (f"unexpected {_TOKEN.match(text, at).group()!r}" if at < len(text) else
                   "unexpected end of input")
    return ParseError(message, at)


def parse_poly(text: str, field: FieldSpec) -> Poly:
    """The Poly of an expression over `field`; a ParseError, at the offset
    of the first refusal, for a text the grammar or its bounds refuse."""
    try:
        return _read(text, field)
    except _Refused as refused:
        raise _refusal(text, *refused.args) from None


def parse_scalar(text: str, field: FieldSpec) -> Scalar:
    p = parse_poly(text, field)
    if not p.is_constant():
        raise ParseError("expected a scalar", 0)
    return p.constant_value()


def format_relem(a: RElem) -> str:
    """The canonical text of a result; an exponent above MAX_EXPONENT, which
    the parser would refuse, is an input error naming it."""
    tops = _tops(a)
    top = max(tops)
    if top > MAX_EXPONENT:
        raise InputError(f"result has {VARS[tops.index(top)]}^{int_to_str(top)}, whose exponent "
                         f"exceeds {MAX_EXPONENT}")
    return format_poly(a)


def _strip(text: str, at: int):
    """text.strip() and its offset, for a text that starts at offset `at`."""
    return text.strip(), at + len(text) - len(text.lstrip())


def _items(text: str, sep: str, at: int):
    """The stripped items of text split at sep, each with its offset."""
    for part in text.split(sep):
        yield _strip(part, at)
        at += len(part) + len(sep)


class _offset:
    """A context that reports parse errors of a substring at offsets in the
    enclosing text, and any other input error at `at`."""

    __slots__ = ("at",)

    def __init__(self, at: int):
        self.at = at

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if kind is None or not issubclass(kind, InputError):
            return False
        if issubclass(kind, ParseError):
            raise ParseError(exc.message, exc.offset + self.at) from None
        raise ParseError(str(exc), self.at) from None


@lru_cache(maxsize=64)
def parse_ring_spec(text: str) -> RingSpec:
    """Parse "R(n=<int>, h=<poly>, field=<fieldspec>[, graded][, free])".

    The last 64 specs parsed are kept by their text, so a process that reads
    one ring again gets the same spec, with the relation and z^2 view it has
    formed, without parsing it again.  A spec is immutable and points to no
    object that points back at it; a refused text is not kept and is refused
    again on every call."""
    stripped = text.strip()
    if not (stripped.startswith("R(") and stripped.endswith(")")):
        raise ParseError("ring spec must look like R(n=..., h=..., field=...)", 0)
    fields = {}
    flags = set()
    for part, at in _items(stripped[2:-1], ",", text.index("R(") + 2):
        if not part:
            continue
        if "=" in part:
            key, _, value = part.partition("=")
            if key.strip() in fields:
                raise ParseError(f"repeated ring-spec key {key.strip()!r}", at)
            fields[key.strip()] = _strip(value, at + len(key) + 1)
        elif part in ("graded", "free"):
            flags.add(part)
        else:
            raise ParseError(f"unknown ring-spec item {part!r}", at)
    if "field" not in fields:
        raise ParseError("ring spec is missing field=...", 0)
    if "n" not in fields:
        raise ParseError("ring spec is missing n=...", 0)
    field_text, at = fields["field"]
    with _offset(at):
        field = FieldSpec.parse(field_text)
    n_text, n_at = fields["n"]
    n = read_int(n_text, n_at, f"n value {n_text!r}")
    h_text, h_at = fields.get("h", ("0", 0))
    with _offset(h_at):
        h = parse_poly(h_text, field)
    # every other condition on a spec is one on h (and the flags)
    with _offset(n_at if n < 2 else h_at):
        return RingSpec(field, n, h, graded="graded" in flags, free="free" in flags)


def parse_weights(text: str) -> WeightVector:
    """Parse "w{x:0, y:2, z:1}"; rational values like -1/5 are allowed, and
    each key is a variable named once."""
    stripped = text.strip()
    if not (stripped.startswith("w{") and stripped.endswith("}")):
        raise ParseError("weight vector must look like w{x:0, y:2, z:1}", 0)
    weights = {}
    inner = stripped[2:-1]
    if inner.strip():
        for part, at in _items(inner, ",", text.index("w{") + 2):
            key, colon, value = part.partition(":")
            if not colon:
                raise ParseError(f"bad weight entry {part!r}", at)
            name = ALIASES.get(key.strip(), key.strip())
            if name not in KNOWN_VARS:
                raise ParseError(f"unknown variable {key.strip()!r} in weight vector", at)
            if name in weights:
                raise ParseError(f"repeated weight for {name}", at)
            value, value_at = _strip(value, at + len(key) + 1)
            weights[name] = read_rational(value, value_at, f"weight value {value!r}")
    return WeightVector(weights)


def parse_generator_map(text: str, spec: RingSpec) -> dict:
    """Parse "x -> <expr>; y -> <expr>; z -> <expr>" into ring-element images.

    The images of the last 32 maps parsed are kept by (text, spec); each call
    returns a new dict of them, so a caller that edits its dict leaves the
    next call's as it was.  A refused text is not kept."""
    return dict(_map_images(text, spec))


@lru_cache(maxsize=32)
def _map_images(text: str, spec: RingSpec) -> tuple:
    """The (generator, image) pairs of parse_generator_map."""
    images = {}
    for chunk, at in _items(text, ";", 0):
        if not chunk:
            continue
        lhs, arrow, rhs = chunk.partition("->")
        if not arrow:
            raise ParseError(f"assignment {chunk!r} is missing '->'", at)
        name = lhs.strip()
        name = ALIASES.get(name, name)
        if name not in ("x", "y", "z", "T"):
            raise ParseError(f"cannot assign an image to {lhs.strip()!r}", at)
        if name in images:
            raise ParseError(f"repeated image for {name}", at)
        rhs, rhs_at = _strip(rhs, at + len(lhs) + 2)
        with _offset(rhs_at):
            images[name] = normal_form(spec, parse_poly(rhs, spec.field))
    for gen in spec.generators():
        if gen not in images:
            raise ParseError(f"map is missing an image for {gen}", 0)
    return tuple(images.items())


def format_generator_map(images: dict) -> str:
    order = [v for v in ("x", "y", "z", "T") if v in images]
    return "; ".join(f"{v} -> {format_relem(images[v])}" for v in order)


def format_aut_word(mu: Scalar, eps: int, g: Poly) -> str:
    pieces = [f"L({mu})"]
    if eps:
        pieces.append("T")
    pieces.append(f"E({format_poly(g)})")
    return " * ".join(pieces)
