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

from contextlib import contextmanager
from fractions import Fraction

from .errors import InputError, ParseError
from .polyring import VAR_MONO, VARS, ZERO_MONO, Poly, WeightVector, add_into, format_poly
from .scalars import FieldSpec, Scalar, digits_to_int, int_to_str, read_int, read_rational
from .surface import RElem, RingSpec, normal_form

MAX_EXPONENT = 10**6
# The parser descends four Python frames per parenthesis, so deeper nesting
# would exhaust the interpreter's stack; it is an input error instead.
MAX_NESTING = 200
ALIASES = {"X": "x", "Y": "y", "Z": "z"}
KNOWN_VARS = {"x", "y", "z", "T", "U", "S"}


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if "0" <= ch <= "9":
                j = i
                while j < len(text) and "0" <= text[j] <= "9":
                    j += 1
                self.items.append(("INT", text[i:j], i))
                i = j
                continue
            if ch.isalpha():
                j = i
                while j < len(text) and text[j].isalpha():
                    j += 1
                self.items.append(("NAME", text[i:j], i))
                i = j
                continue
            if ch in "+-*/^()":
                self.items.append(("OP", ch, i))
                i += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", i)
        self.items.append(("END", "", len(text)))
        self.pos = 0

    def peek(self):
        return self.items[self.pos]

    def next(self):
        tok = self.items[self.pos]
        self.pos += 1
        return tok


class _PolyParser:
    def __init__(self, text: str, field: FieldSpec):
        self.toks = _Tokens(text)
        self.field = field
        self.one = field.one  # shared by every variable's term
        self.depth = 0

    def parse(self) -> Poly:
        p = self.expr()
        kind, text, pos = self.toks.peek()
        if kind != "END":
            raise ParseError(f"unexpected {text!r}", pos)
        return p

    def expr(self) -> Poly:
        kind, text, _ = self.toks.peek()
        negate = False
        if kind == "OP" and text in "+-":
            self.toks.next()
            negate = text == "-"
        p = self.term()
        if negate:
            p = -p
        kind, text, _ = self.toks.peek()
        if not (kind == "OP" and text in "+-"):
            return p
        # from the second term on, add into one term dict: linear in the terms
        terms = dict(p.terms)
        while kind == "OP" and text in "+-":
            self.toks.next()
            q = self.term()
            add_into(terms, (-q if text == "-" else q).terms)
            kind, text, _ = self.toks.peek()
        return Poly(self.field, terms)

    def term(self) -> Poly:
        p, tops = self.factor()
        while True:
            kind, text, _ = self.toks.peek()
            if not (kind == "OP" and text == "*"):
                return p
            self.toks.next()
            pos = self.toks.peek()[2]
            q, q_tops = self.factor()
            # a product's top exponent in a variable is the sum of its factors'
            # tops there: their leading terms multiply to a nonzero term
            (a0, a1, a2, a3, a4, a5), (b0, b1, b2, b3, b4, b5) = tops, q_tops
            summed = (a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5)
            if max(summed) > MAX_EXPONENT:
                a, b = next((a, b) for a, b in zip(tops, q_tops) if a + b > MAX_EXPONENT)
                raise ParseError(f"product has exponent {a} + {b}, which exceeds "
                                 f"{MAX_EXPONENT}", pos)
            p = p * q
            tops = summed if p.terms else ZERO_MONO

    def factor(self):
        """The next factor and the largest exponent of each variable in it."""
        p, tops = self.base()
        kind, text, _ = self.toks.peek()
        if kind == "OP" and text == "^":
            self.toks.next()
            kind, text, pos = self.toks.next()
            if kind != "INT":
                raise ParseError("expected a natural-number exponent", pos)
            e = read_exponent(text, pos, "exponent")
            top = max(tops)
            if top * e > MAX_EXPONENT:
                raise ParseError(f"power has exponent {top} * {e}, which exceeds {MAX_EXPONENT}",
                                 pos)
            p = p**e
            a0, a1, a2, a3, a4, a5 = tops
            tops = (a0 * e, a1 * e, a2 * e, a3 * e, a4 * e, a5 * e)
        return p, tops

    def base(self):
        """The next base and the largest exponent of each variable in it."""
        kind, text, pos = self.toks.next()
        if kind == "INT":
            value = digits_to_int(text)
            k2, t2, _ = self.toks.peek()
            if k2 == "OP" and t2 == "/":
                self.toks.next()
                k3, t3, p3 = self.toks.next()
                if k3 != "INT":
                    raise ParseError("expected an integer denominator", p3)
                den = digits_to_int(t3)
                if den == 0:
                    raise ParseError("zero denominator", p3)
                try:
                    return Poly.const(self.field, Fraction(value, den)), ZERO_MONO
                except InputError as exc:
                    raise ParseError(str(exc), pos) from None
            return Poly.const(self.field, value), ZERO_MONO
        if kind == "NAME":
            name = ALIASES.get(text, text)
            if name not in KNOWN_VARS:
                raise ParseError(f"unknown variable {text!r}", pos)
            m = VAR_MONO[name]
            return Poly(self.field, {m: self.one}), m
        if kind == "OP" and text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            p = self.expr()
            self.depth -= 1
            kind, text, pos = self.toks.next()
            if not (kind == "OP" and text == ")"):
                raise ParseError("expected ')'", pos)
            return p, _tops(p)
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


def _tops(p: Poly) -> list:
    """The largest exponent of each variable in p (0 for the zero polynomial)."""
    return list(map(max, zip(*p.terms))) if p.terms else [0] * 6


def parse_poly(text: str, field: FieldSpec) -> Poly:
    return _PolyParser(text, field).parse()


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


@contextmanager
def _offset(at: int):
    """Report parse errors of a substring at offsets in the enclosing text,
    and any other input error at `at`."""
    try:
        yield
    except ParseError as exc:
        raise ParseError(exc.message, exc.offset + at) from None
    except InputError as exc:
        raise ParseError(str(exc), at) from None


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
