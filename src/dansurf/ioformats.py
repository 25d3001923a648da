"""Expression parser and canonical printers for the CLI and file formats.

Grammar (no implicit multiplication; integers and exponents use the ASCII
digits 0-9):

    expr   := ('+' | '-')? term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' nat)?
    base   := scalar | var | '(' expr ')'
    scalar := int | int '/' int

Variables are x, y, z, T, U, S; the aliases X, Y, Z normalize to lowercase.
"""

from __future__ import annotations

from fractions import Fraction

from .autgroup import Automorphism, compose, involution, scaling, shear
from .errors import AlgebraError, ParseError
from .polyring import Poly, WeightVector, format_poly
from .scalars import FieldSpec, Scalar
from .surface import RElem, RingSpec, normal_form

MAX_EXPONENT = 10**6
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
        while True:
            kind, text, _ = self.toks.peek()
            if kind == "OP" and text in "+-":
                self.toks.next()
                q = self.term()
                p = p - q if text == "-" else p + q
            else:
                return p

    def term(self) -> Poly:
        p = self.factor()
        while True:
            kind, text, _ = self.toks.peek()
            if kind == "OP" and text == "*":
                self.toks.next()
                p = p * self.factor()
            else:
                return p

    def factor(self) -> Poly:
        p = self.base()
        kind, text, _ = self.toks.peek()
        if kind == "OP" and text == "^":
            self.toks.next()
            kind, text, pos = self.toks.next()
            if kind != "INT":
                raise ParseError("expected a natural-number exponent", pos)
            e = int(text)
            if e > MAX_EXPONENT:
                raise ParseError(f"exponent {e} exceeds {MAX_EXPONENT}", pos)
            p = p**e
        return p

    def base(self) -> Poly:
        kind, text, pos = self.toks.next()
        if kind == "INT":
            value = int(text)
            k2, t2, _ = self.toks.peek()
            if k2 == "OP" and t2 == "/":
                self.toks.next()
                k3, t3, p3 = self.toks.next()
                if k3 != "INT":
                    raise ParseError("expected an integer denominator", p3)
                if int(t3) == 0:
                    raise ParseError("zero denominator", p3)
                try:
                    return Poly.const(self.field, Fraction(value, int(t3)))
                except AlgebraError as exc:
                    raise ParseError(str(exc), pos) from None
            return Poly.const(self.field, value)
        if kind == "NAME":
            name = ALIASES.get(text, text)
            if name not in KNOWN_VARS:
                raise ParseError(f"unknown variable {text!r}", pos)
            return Poly.variable(self.field, name)
        if kind == "OP" and text == "(":
            p = self.expr()
            kind, text, pos = self.toks.next()
            if not (kind == "OP" and text == ")"):
                raise ParseError("expected ')'", pos)
            return p
        raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input", pos)


def parse_poly(text: str, field: FieldSpec) -> Poly:
    return _PolyParser(text, field).parse()


def parse_scalar(text: str, field: FieldSpec) -> Scalar:
    p = parse_poly(text, field)
    if not p.is_constant():
        raise ParseError("expected a scalar", 0)
    return p.constant_value()


print_poly = format_poly


def format_relem(a: RElem) -> str:
    return format_poly(a.to_poly())


def parse_ring_spec(text: str) -> RingSpec:
    """Parse "R(n=<int>, h=<poly>, field=<fieldspec>[, graded][, free])"."""
    stripped = text.strip()
    if not (stripped.startswith("R(") and stripped.endswith(")")):
        raise ParseError("ring spec must look like R(n=..., h=..., field=...)", 0)
    inner = stripped[2:-1]
    fields = {}
    flags = set()
    for part in inner.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" in part:
            key, _, value = part.partition("=")
            fields[key.strip()] = value.strip()
        elif part in ("graded", "free"):
            flags.add(part)
        else:
            raise ParseError(f"unknown ring-spec item {part!r}", text.find(part))
    if "field" not in fields:
        raise ParseError("ring spec is missing field=...", 0)
    if "n" not in fields:
        raise ParseError("ring spec is missing n=...", 0)
    field = FieldSpec.parse(fields["field"])
    try:
        n = int(fields["n"])
    except ValueError:
        raise ParseError(f"bad n value {fields['n']!r}", 0) from None
    h_text = fields.get("h", "0")
    h = parse_poly(h_text, field)
    return RingSpec(field, n, h, graded="graded" in flags, free="free" in flags)


def format_ring_spec(spec: RingSpec) -> str:
    return str(spec)


def parse_weights(text: str) -> WeightVector:
    """Parse "w{x:0, y:2, z:1}"; rational values like 1/5 are allowed."""
    stripped = text.strip()
    if not (stripped.startswith("w{") and stripped.endswith("}")):
        raise ParseError("weight vector must look like w{x:0, y:2, z:1}", 0)
    weights = {}
    inner = stripped[2:-1]
    if inner.strip():
        for part in inner.split(","):
            name, colon, value = part.partition(":")
            if not colon:
                raise ParseError(f"bad weight entry {part.strip()!r}", 0)
            name = name.strip()
            name = ALIASES.get(name, name)
            try:
                weights[name] = Fraction(value.strip())
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad weight value {value.strip()!r}", 0) from None
    return WeightVector(weights)


def parse_generator_map(text: str, spec: RingSpec) -> dict:
    """Parse "x -> <expr>; y -> <expr>; z -> <expr>" into ring-element images."""
    images = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        lhs, arrow, rhs = chunk.partition("->")
        if not arrow:
            raise ParseError(f"assignment {chunk!r} is missing '->'", 0)
        name = lhs.strip()
        name = ALIASES.get(name, name)
        if name not in ("x", "y", "z", "T"):
            raise ParseError(f"cannot assign an image to {lhs.strip()!r}", 0)
        images[name] = normal_form(spec, parse_poly(rhs.strip(), spec.field))
    for gen in spec.generators():
        if gen not in images:
            raise ParseError(f"map is missing an image for {gen}", 0)
    return images


def format_generator_map(images: dict) -> str:
    order = [v for v in ("x", "y", "z", "T") if v in images]
    return "; ".join(f"{v} -> {format_relem(images[v])}" for v in order)


def _split_word(text: str):
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "*" and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    parts.append("".join(current).strip())
    return parts


def parse_aut_word(text: str, spec: RingSpec) -> Automorphism:
    """Parse "L(2) * T * E(x+1)"; the rightmost factor acts first."""
    atoms = []
    for part in _split_word(text):
        if not part:
            raise ParseError("empty factor in automorphism word", 0)
        if part == "T":
            atoms.append(involution(spec))
        elif part.startswith("L(") and part.endswith(")"):
            atoms.append(scaling(spec, parse_scalar(part[2:-1], spec.field)))
        elif part.startswith("E(") and part.endswith(")"):
            f = parse_poly(part[2:-1], spec.field)
            if not f.variables() <= {"x"}:
                raise ParseError("shear argument must be a polynomial in x", 0)
            atoms.append(shear(spec, f))
        else:
            raise ParseError(f"unknown automorphism factor {part!r}", 0)
    word = atoms[0]
    for atom in atoms[1:]:
        word = compose(word, atom)
    return word


def format_aut_word(mu: Scalar, eps: int, g: Poly) -> str:
    pieces = [f"L({mu})"]
    if eps:
        pieces.append("T")
    pieces.append(f"E({format_poly(g)})")
    return " * ".join(pieces)
