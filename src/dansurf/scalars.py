"""Exact scalar arithmetic over Q and prime fields F_p.

Characteristic 0 values are arbitrary-precision rationals, stored as an int
when integral and as a normalised Fraction otherwise; characteristic p
values are residues in [0, p).  Everything is immutable and exact, so the
algebraic identities checked elsewhere in this package are true equalities,
never approximations.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import AlgebraError, InputError, ParseError
from .records import Record

MAX_PRIME = 2**31


def require_ascii(text: str, offset: int = 0) -> str:
    """Return text unchanged if it is ASCII.  int() and Fraction() read every
    Unicode digit; the grammar takes only 0-9, so any other character is a
    ParseError at its offset (counted from `offset`)."""
    for i, ch in enumerate(text):
        if not ch.isascii():
            raise ParseError(f"unexpected character {ch!r}", offset + i)
    return text


# Decimal digits per chunk of int <-> str conversion: below 640, the lowest
# digit limit the interpreter's int-to-str check accepts (sys.int_info), so a
# chunk converts whatever sys.set_int_max_str_digits says.
_CHUNK = 600
_CHUNK_BASE = 10**_CHUNK


def int_to_str(v: int) -> str:
    """str(v), exact for any size: a chunk at a time past the interpreter's
    digit limit for int-to-str conversion."""
    if -_CHUNK_BASE < v < _CHUNK_BASE:
        return str(v)
    sign, v = ("-", -v) if v < 0 else ("", v)
    chunks = []
    while v >= _CHUNK_BASE:
        v, low = divmod(v, _CHUNK_BASE)
        chunks.append(f"{low:0{_CHUNK}d}")
    chunks.append(str(v))
    return sign + "".join(reversed(chunks))


def rational_to_str(v) -> str:
    """str(v) for an int or a Fraction, exact for any size (int_to_str)."""
    d = v.denominator
    return int_to_str(v.numerator) + (f"/{int_to_str(d)}" if d != 1 else "")


def digits_to_int(text: str) -> int:
    """int(text) for a string of ASCII digits of any length, a chunk at a
    time past the interpreter's digit limit for str-to-int conversion."""
    if len(text) <= _CHUNK:
        return int(text)
    v = 0
    for i in range(0, len(text), _CHUNK):
        chunk = text[i : i + _CHUNK]
        v = v * 10 ** len(chunk) + int(chunk)
    return v


def read_int(text: str, at: int, what: str) -> int:
    """The integer written as an optional '-' and the ASCII digits 0-9.  Any
    other text is the ParseError "bad <what>" at offset `at`, or for a
    non-ASCII character "unexpected character" at its own offset."""
    negative = text[:1] == "-"
    digits = require_ascii(text, at)[negative:]
    if not digits.isdigit():  # on ASCII text: one or more of 0-9
        raise ParseError(f"bad {what}", at)
    value = digits_to_int(digits)
    return -value if negative else value


def read_rational(text: str, at: int, what: str) -> Fraction:
    """The rational written as int or int '/' int, each int as read_int
    reads it; the denominator must be positive."""
    num, slash, den = text.partition("/")
    value = Fraction(read_int(num, at, what))
    d = read_int(den, at + len(num) + 1, what) if slash else 1
    if d <= 0:
        raise ParseError(f"bad {what}", at + len(num) + 1)
    return value / d


def rational(v):
    """A rational value in canonical form: an int when integral, else v."""
    return v.numerator if v.denominator == 1 else v


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin to the bases 2, 3, 5 and 7, which is exact
    below 3215031751, above the 2^31 bound on a characteristic."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    if n >= 3215031751:
        raise ValueError(f"is_prime is exact only below 3215031751, got {n}")
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldSpec(Record):
    """The ground field: Q when characteristic is 0, otherwise F_p, p prime."""

    _fields = ("characteristic",)

    def __init__(self, characteristic: int = 0):
        vars(self)["characteristic"] = characteristic
        c = characteristic
        if c == 0:
            return
        if c >= MAX_PRIME:
            raise InputError(f"characteristic {c} exceeds the 2^31 bound")
        # MAX_PRIME <= 3215031751 keeps is_prime inside its exact range
        if not is_prime(c):
            raise InputError(f"characteristic {c} is not 0 or a prime")

    # Written here rather than inherited, and with one attribute to compare:
    # it runs on every field check of every scalar and polynomial operation.
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.characteristic == other.characteristic

    def __hash__(self):
        return hash((self.characteristic,))

    @property
    def label(self) -> str:
        return "Q" if self.characteristic == 0 else f"F{self.characteristic}"

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        """Parse the field spec format: "Q" or "F<p>" (case-sensitive), p a
        prime below 2^31.  Any other text is a ParseError at offset 0."""
        if text == "Q":
            return cls(0)
        if text.startswith("F") and text[1:].isdigit():
            digits = require_ascii(text)[1:].lstrip("0")
            if len(digits) > len(str(MAX_PRIME)):
                raise ParseError(f"characteristic of {len(digits)} digits exceeds the 2^31 bound",
                                 1)
            if not digits:
                raise ParseError(f"bad field spec {text!r}: characteristic 0 is written Q", 0)
            try:
                return cls(int(digits))
            except InputError as exc:
                raise ParseError(f"bad field spec {text!r}: {exc}", 0) from None
        raise ParseError(f"bad field spec {text!r}: expected 'Q' or 'F<p>'", 0)

    def scalar(self, value) -> "Scalar":
        """Coerce an int, Fraction, or Scalar into this field."""
        if isinstance(value, Scalar):
            if value.field is not self and value.field != self:
                raise InputError(f"scalar of {value.field.label} used in {self.label}")
            return value
        p = self.characteristic
        if p == 0:
            return Scalar(self, value if type(value) is int else rational(Fraction(value)))
        if isinstance(value, Fraction):
            den = value.denominator % p
            if den == 0:
                raise InputError(f"denominator {int_to_str(value.denominator)} is 0 in F{p}")
            return Scalar(self, value.numerator * pow(den, p - 2, p) % p)
        return Scalar(self, int(value) % p)

    # Formed on each access: a field that kept its own 0 or 1, whose .field
    # is the field again, would be a reference cycle.
    @property
    def zero(self) -> "Scalar":
        """The field's 0."""
        return Scalar(self, 0)

    @property
    def one(self) -> "Scalar":
        """The field's 1."""
        return Scalar(self, 1)


class Scalar:
    """An exact element of Q or F_p.

    Representations are canonical: a rational is an int when integral and a
    normalised fractions.Fraction otherwise, a residue lies in [0, p).  Equal
    scalars therefore compare and hash identically.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: FieldSpec, value):
        # Trusted constructor; go through FieldSpec.scalar for coercion.
        _set_field(self, field)
        _set_value(self, value)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field is not self.field and other.field != self.field:
                raise InputError(
                    f"cannot mix {self.field.label} and {other.field.label}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.characteristic
        v = self.value + o.value
        return Scalar(self.field, v % p if p else rational(v))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.characteristic
        v = self.value - o.value
        return Scalar(self.field, v % p if p else rational(v))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.characteristic
        v = self.value * o.value
        return Scalar(self.field, v % p if p else rational(v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __neg__(self):
        p = self.field.characteristic
        return Scalar(self.field, -self.value % p if p else -self.value)

    def inv(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        p = self.field.characteristic
        if p == 0:
            return Scalar(self.field, rational(Fraction(1) / self.value))
        return Scalar(self.field, pow(self.value, p - 2, p))

    def __pow__(self, k: int) -> "Scalar":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inv() ** (-k)
        p = self.field.characteristic
        if p:
            return Scalar(self.field, pow(self.value, k, p))
        return Scalar(self.field, rational(self.value**k))

    def is_zero(self) -> bool:
        return self.value == 0

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, Scalar):
            same = self.field is other.field or self.field == other.field
            return same and self.value == other.value
        if isinstance(other, (int, Fraction)):
            return self == self.field.scalar(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def sort_key(self):
        """Total order used for deterministic tie-breaking (numeric / residue)."""
        return self.value

    def __repr__(self):
        return f"Scalar({self.value!r} over {self.field.label})"

    def __str__(self):
        return rational_to_str(self.value)


# The slot setters, which bypass the raising __setattr__ (cheaper than
# object.__setattr__, which looks the descriptor up on every call).
_set_field = Scalar.field.__set__
_set_value = Scalar.value.__set__


def _comb_mod_prime(a: int, b: int, p: int) -> int:
    """C(a, b) mod p for 0 <= b <= a < p, without forming the big integer."""
    if b > a - b:
        b = a - b
    num = 1
    den = 1
    for t in range(1, b + 1):
        num = num * ((a - b + t) % p) % p
        den = den * t % p
    return num * pow(den, p - 2, p) % p


def binom(i: int, j: int, field: FieldSpec) -> Scalar:
    """The binomial coefficient C(i, j) as an element of the field.

    Over F_p this uses the base-p digit product (Lucas), so indices up to
    10^6 and beyond never touch a big integer.
    """
    if i < 0 or j < 0:
        raise InputError("binomial indices must be natural numbers")
    if j > i:
        return field.zero
    p = field.characteristic
    if p == 0:
        return field.scalar(math.comb(i, j))
    res = 1
    while i or j:
        di, dj = i % p, j % p
        if dj > di:
            return field.zero
        res = res * _comb_mod_prime(di, dj, p) % p
        i //= p
        j //= p
    return field.scalar(res)


def _exact_int_root(m: int, d: int):
    """The exact d-th root of m >= 0, or None.  Binary search; fully exact."""
    if m in (0, 1):
        return m
    lo, hi = 1, 2
    while hi**d < m:
        lo, hi = hi, hi * 2
    while lo <= hi:
        mid = (lo + hi) // 2
        md = mid**d
        if md == m:
            return mid
        if md < m:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


def _prime_factors(n: int) -> list:
    """The distinct prime factors of n >= 1, ascending, by trial division."""
    primes = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            primes.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        primes.append(n)
    return primes


def _fp_roots(c: int, d: int, p: int) -> list:
    """The residues mu with mu^d = c in F_p* (c != 0), ascending.

    F_p* is cyclic of order q = p - 1, so with g = gcd(d, q) the equation
    has g roots when c^(q/g) = 1 and none otherwise.  As d/g is invertible
    modulo q/g, mu^d = c is equivalent to mu^g = b with b = c^a,
    a*(d/g) = 1 mod q/g.  One root of that is assembled from the part of
    the group of order prime to g (one inverse exponent) and from each
    Sylow l-subgroup, l | g, through a digit-by-digit discrete logarithm
    (Adleman, Manders & Miller, FOCS 1977); the others are its products with
    the powers of an element of order g.
    """
    q = p - 1
    g = math.gcd(d, q)
    if pow(c, q // g, p) != 1:
        return []
    b = pow(c, pow(d // g, -1, q // g), p)
    root, zeta, rest = 1, 1, q
    for ell in _prime_factors(g):
        v = 0
        while rest % ell == 0:
            rest //= ell
            v += 1
        order = ell**v  # of the Sylow l-subgroup
        cofactor = q // order
        n = 2
        while pow(n, q // ell, p) == 1:
            n += 1
        gamma = pow(n, cofactor, p)  # generates the Sylow l-subgroup
        # b's component there, through the CRT idempotent of q = order * cofactor
        target = pow(b, cofactor * pow(cofactor, -1, order), p)
        omega = pow(gamma, order // ell, p)  # of order l
        k = 0
        for j in range(v):
            step = pow(target * pow(gamma, -k, p) % p, order // ell ** (j + 1), p)
            w = 1
            for digit in range(ell):  # step = omega^digit
                if w == step:
                    break
                w = w * omega % p
            else:
                raise AlgebraError(f"internal error: no discrete log in F{p}")
            k += digit * ell**j
        t = 0
        while g % ell ** (t + 1) == 0:
            t += 1
        # gamma^x solves r^g = gamma^k; l^t divides k because b is a g-th power
        low = order // ell**t
        x = (k // ell**t) * pow(g // ell**t, -1, low) % low
        root = root * pow(gamma, x, p) % p
        zeta = zeta * pow(gamma, low, p) % p
    # rest is the part of q prime to g, where r -> r^g is invertible
    component = pow(b, (q // rest) * pow(q // rest, -1, rest), p)
    root = root * pow(component, pow(g, -1, rest), p) % p
    roots = [root]
    for _ in range(g - 1):
        roots.append(roots[-1] * zeta % p)
    roots.sort()
    return roots


def nth_roots(c: Scalar, d: int) -> list:
    """All field elements mu with mu^d = c, sorted by the canonical order.

    Over F_p the roots are computed in the cyclic group F_p* (_fp_roots);
    over Q it is integer root extraction on numerator and denominator, so
    the result has 0, 1, or 2 elements.
    """
    if d < 1:
        raise InputError("root order must be a positive integer")
    if c.is_zero():
        raise InputError("nth_roots requires a nonzero argument")
    field = c.field
    p = field.characteristic
    if p:
        return [Scalar(field, m) for m in _fp_roots(c.value, d, p)]
    v = c.value
    num, den = abs(v.numerator), v.denominator
    rn = _exact_int_root(num, d)
    rd = _exact_int_root(den, d)
    if rn is None or rd is None:
        return []
    r = Fraction(rn, rd)
    if d % 2 == 1:
        root = r if v > 0 else -r
        return [field.scalar(root)]
    if v < 0:
        return []
    roots = [field.scalar(-r), field.scalar(r)]
    return roots
