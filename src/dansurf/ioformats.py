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

from .errors import InputError, ParseError
from .polyring import VAR_MONO, VARS, ZERO_MONO, Poly, WeightVector, add_into, format_poly
from .scalars import (FieldSpec, Scalar, digits_to_int, int_to_str, rational, read_int,
                      read_rational)
from .surface import RElem, RingSpec, normal_form

MAX_EXPONENT = 10**6
# The parser descends four Python frames per parenthesis, so deeper nesting
# would exhaust the interpreter's stack; it is an input error instead.
MAX_NESTING = 200
ALIASES = {"X": "x", "Y": "y", "Z": "z"}
KNOWN_VARS = {"x", "y", "z", "T", "U", "S"}


# One token, or whitespace, or (group 4) a character no token starts with.
# [^\W\d_] is every letter (str.isalpha) and also the numeric characters
# outside 0-9, such as '²', which no token takes; \s is str.isspace.
_TOKEN = re.compile(r"\s+|([0-9]+)|([^\W\d_]+)|([-+*/^()])|(.)", re.S)
_KINDS = (None, "INT", "NAME", "OP")


def _tokens(text: str) -> list:
    """The (kind, text, offset) of each token, then ("END", "", len(text))."""
    items = []
    for mt in _TOKEN.finditer(text):
        kind = mt.lastindex
        if kind:
            tok, at = mt.group(kind), mt.start()
            if kind == 4 or (kind == 2 and not tok.isalpha()):
                bad = next(k for k, ch in enumerate(tok) if not ch.isalpha())
                raise ParseError(f"unexpected character {tok[bad]!r}", at + bad)
            items.append((_KINDS[kind], tok, at))
    items.append(("END", "", len(text)))
    return items


class _PolyParser:
    """A product of scalars and variables stays raw while it is parsed: one
    coefficient (an int or Fraction over Q, a residue over F_p) and one
    monomial; a sum is a dict of raw coefficients, and a Scalar is formed
    only for each term of a result.  Only a parenthesized sum of two or more
    terms becomes a Poly, multiplied and powered as one."""

    def __init__(self, text: str, field: FieldSpec):
        self.toks = _tokens(text)
        self.pos = 0
        self.field = field
        self.p = field.characteristic
        self.depth = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        self.pos += 1
        return self.toks[self.pos - 1]

    def parse(self) -> Poly:
        p = self.expr()
        kind, text, pos = self.peek()
        if kind != "END":
            raise ParseError(f"unexpected {text!r}", pos)
        return p

    def expr(self) -> Poly:
        """The next sum as a Poly: its terms of scalars and variables summed as
        raw coefficients, one Scalar formed for each sum, and its other terms
        added to them."""
        kind, text, _ = self.peek()
        negate = False
        if kind == "OP" and text in "+-":
            self.next()
            negate = text == "-"
        sums, polys = {}, []
        while True:
            c, tops, rest = self.term()
            if negate:
                c = -c
            if rest is None:
                sums[tops] = sums.get(tops, 0) + c
            elif c:  # c times the monomial that shifts the tops of rest to tops
                m = tuple([a - b for a, b in zip(tops, _tops(rest))])
                polys.append(rest if c == 1 and m == ZERO_MONO else
                             rest * Poly(self.field, {m: self.field.scalar(c)}))
            kind, text, _ = self.peek()
            if not (kind == "OP" and text in "+-"):
                break
            self.next()
            negate = text == "-"
        field = self.field
        terms = _scalar_terms(field, sums)
        if polys:
            if len(polys) == 1 and not terms:
                return polys[0]
            raw, terms = terms, dict(polys[0].terms)
            for q in polys[1:]:
                add_into(terms, q.terms)
            add_into(terms, raw)
        return Poly(field, terms)

    def term(self):
        """The next product as (c, tops, rest): rest is the Poly product of its
        parenthesized sums (None if it has none), c the product of the other
        factors' raw coefficients, and tops the largest exponent of each
        variable in the product: without rest, it is c*x^tops."""
        c, tops, rest = self.factor()
        p = self.p
        while True:
            kind, text, _ = self.peek()
            if not (kind == "OP" and text == "*"):
                return c, tops, rest
            self.next()
            pos = self.peek()[2]
            qc, q_tops, q = self.factor()
            # a product's top exponent in a variable is the sum of its factors'
            # tops there: their leading terms multiply to a nonzero term
            (a0, a1, a2, a3, a4, a5), (b0, b1, b2, b3, b4, b5) = tops, q_tops
            summed = (a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5)
            if max(summed) > MAX_EXPONENT:
                a, b = next((a, b) for a, b in zip(tops, q_tops) if a + b > MAX_EXPONENT)
                raise ParseError(f"product has exponent {a} + {b}, which exceeds "
                                 f"{MAX_EXPONENT}", pos)
            c = c * qc % p if p else c * qc
            if q is not None:
                rest = q if rest is None else rest * q
            # every Poly factor is nonzero, so the product is zero when c is
            tops = summed if c else ZERO_MONO

    def factor(self):
        """The next factor as (c, tops, q): c*x^tops when q is None, else the
        Poly q (c = 1) and the largest exponent of each variable in it."""
        c, tops, q = self.base()
        kind, text, _ = self.peek()
        if kind == "OP" and text == "^":
            self.next()
            kind, text, pos = self.next()
            if kind != "INT":
                raise ParseError("expected a natural-number exponent", pos)
            e = read_exponent(text, pos, "exponent")
            top = max(tops)
            if top * e > MAX_EXPONENT:
                raise ParseError(f"power has exponent {top} * {e}, which exceeds {MAX_EXPONENT}",
                                 pos)
            if q is None:
                c = pow(c, e, self.p) if self.p else c**e
            else:
                q = q**e
            a0, a1, a2, a3, a4, a5 = tops
            tops = (a0 * e, a1 * e, a2 * e, a3 * e, a4 * e, a5 * e)
        return c, tops, q

    def base(self):
        """The next base, as factor() returns it."""
        kind, text, pos = self.next()
        if kind == "INT":
            value = digits_to_int(text)
            k2, t2, _ = self.peek()
            if k2 == "OP" and t2 == "/":
                self.next()
                k3, t3, p3 = self.next()
                if k3 != "INT":
                    raise ParseError("expected an integer denominator", p3)
                den = digits_to_int(t3)
                if den == 0:
                    raise ParseError("zero denominator", p3)
                try:
                    value = self.field.scalar(Fraction(value, den)).value
                except InputError as exc:
                    raise ParseError(str(exc), pos) from None
            elif self.p:
                value %= self.p
            return value, ZERO_MONO, None
        if kind == "NAME":
            name = ALIASES.get(text, text)
            if name not in KNOWN_VARS:
                raise ParseError(f"unknown variable {text!r}", pos)
            return 1, VAR_MONO[name], None
        if kind == "OP" and text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            q = self.expr()
            self.depth -= 1
            kind, text, pos = self.next()
            if not (kind == "OP" and text == ")"):
                raise ParseError("expected ')'", pos)
            if len(q.terms) > 1:
                return 1, _tops(q), q
            if not q.terms:
                return 0, ZERO_MONO, None
            (m, v), = q.terms.items()
            return v.value, m, None
        raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input", pos)


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
    return tuple(map(max, zip(*p.terms))) if p.terms else ZERO_MONO


def _scalar_terms(field: FieldSpec, sums: dict) -> dict:
    """The terms of a sum of raw coefficients, a Scalar for each nonzero one."""
    p = field.characteristic
    if p:
        return {m: Scalar(field, c % p) for m, c in sums.items() if c % p}
    return {m: Scalar(field, rational(c)) for m, c in sums.items() if c}


# One factor of a text without parentheses and the operator before it, as
# _tokens splits them: '+', '-', '*' or none (group 1), then an integer
# (2), over a denominator (3), or one variable letter (4), then an exponent
# of at most seven digits (5); or else (6) the next character, where no
# such factor starts.  Unmatched groups read ''.
_FLAT_FACTOR = re.compile(r"\s*([-+*]?)\s*(?:([0-9]+)(?:\s*/\s*([0-9]+))?|([xyzTUSXYZ]))"
                          r"(?:\s*\^\s*([0-9]{1,7}))?\s*|(.)", re.S)
_FLAT_INDEX = {v: VARS.index(ALIASES.get(v, v)) for v in "xyzTUSXYZ"}


def _flat_poly(text: str, field: FieldSpec):
    """The Poly of a text of the grammar without parentheses, formed as
    _PolyParser forms it, in one pass of _FLAT_FACTOR; None for any other
    text and for one the parser's bounds or denominators refuse, which only
    _PolyParser reports."""
    p = field.characteristic
    sums = {}
    c, negate, mono = None, False, [0, 0, 0, 0, 0, 0]  # the term being read
    for op, digits, den, var, exp, other in _FLAT_FACTOR.findall(text):
        if other:
            return None
        if c is None:  # the first factor
            if op == "*":
                return None
            negate = op == "-"
        elif op == "+" or op == "-":
            m = tuple(mono)
            sums[m] = sums.get(m, 0) + (-c if negate else c)
            c, negate, mono = None, op == "-", [0, 0, 0, 0, 0, 0]
        elif not op:
            return None
        e = int(exp) if exp else 1
        if e > MAX_EXPONENT:
            return None
        if var:
            i = _FLAT_INDEX[var]
            top = mono[i] + e
            if top > MAX_EXPONENT:
                return None
            if c is None:
                c = 1
            if c:  # a zero product's monomial is 1, as in _PolyParser.term
                mono[i] = top
            continue
        value = digits_to_int(digits)
        if den:
            d = digits_to_int(den)
            if d == 0:
                return None
            try:
                value = field.scalar(Fraction(value, d)).value
            except InputError:
                return None
        elif p:
            value %= p
        if exp:
            value = pow(value, e, p) if p else value**e
        if c is None:
            c = value
        else:
            c = c * value % p if p else c * value
        if not c:
            mono = [0, 0, 0, 0, 0, 0]
    if c is None:  # the empty text, or only whitespace
        return None
    m = tuple(mono)
    sums[m] = sums.get(m, 0) + (-c if negate else c)
    return Poly(field, _scalar_terms(field, sums))


def parse_poly(text: str, field: FieldSpec) -> Poly:
    flat = _flat_poly(text, field)
    return flat if flat is not None else _PolyParser(text, field).parse()


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


def parse_ring_spec(text: str) -> RingSpec:
    """Parse "R(n=<int>, h=<poly>, field=<fieldspec>[, graded][, free])"."""
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
    """Parse "x -> <expr>; y -> <expr>; z -> <expr>" into ring-element images."""
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
    return images


def format_generator_map(images: dict) -> str:
    order = [v for v in ("x", "y", "z", "T") if v in images]
    return "; ".join(f"{v} -> {format_relem(images[v])}" for v in order)


def format_aut_word(mu: Scalar, eps: int, g: Poly) -> str:
    pieces = [f"L({mu})"]
    if eps:
        pieces.append("T")
    pieces.append(f"E({format_poly(g)})")
    return " * ".join(pieces)
