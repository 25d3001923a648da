"""The automorphism group of R = k[x,y,z]/(x^n y - z^2 - h(x) z).

Every automorphism sends x to mu*x for a scaling mu with h(mu*x) = h(x) and
sends z to sigma*z + f(x) with sigma = +-1, where f = 0 mod x^n when
sigma = +1 and f = -h mod x^n when sigma = -1.  The triple (mu, sigma, f)
is therefore complete canonical data: the y-image is derived from the
relation and never stored.

The group is generated by the shears E_f (z -> z + x^n f), the involution
T (z -> -z - h), and the scalings L_mu; every element factors uniquely as
L_mu * T^eps * E_g, and the shears form a normal subgroup isomorphic to the
additive group of k[x].

In characteristic 2 the scalars +1 and -1 coincide, but sigma is kept
symbolic: the involution moves z by h(x) with h(0) != 0, while every shear
moves z by a multiple of x^n, so the order-2 factor survives in every
characteristic.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd

from .errors import AlgebraError, InputError, NotCanonicalShape, ParseError
from .ioformats import _offset, _strip, parse_poly, parse_scalar
from .polyring import VAR_MONO, Poly, format_poly, lowest_terms
from .records import Record
from .scalars import FieldSpec, Scalar, nth_roots
from .surface import RElem, RingSpec, forced_y, substitute_poly


def _require_standard(spec: RingSpec):
    if not spec.standard:
        raise InputError("automorphism triples are defined for standard specs")


def _low_part(p: Poly, n: int) -> Poly:
    """The terms of p with x-exponent below n (p reduced mod x^n)."""
    d, items = p.ints()
    return Poly._of_view(p.field, lowest_terms(d, [(m, v) for m, v in items if m[2] < n]))


class Automorphism(Record):
    """Canonical triple (mu, sigma, f); the action on y is derived on demand."""

    _fields = ("spec", "mu", "sigma", "f")

    def __init__(self, spec: RingSpec, mu: Scalar, sigma: int, f: Poly):
        vars(self).update(spec=spec, mu=mu, sigma=sigma, f=f)
        _require_standard(spec)
        if type(f) is not Poly:
            raise TypeError(f"f must be a Poly, not {type(f).__name__}")
        if mu.field != spec.field or f.field != spec.field:
            raise InputError("triple data over a different field")
        if mu.is_zero():
            raise InputError("mu must be a unit")
        if sigma not in (1, -1):
            raise InputError("sigma must be +1 or -1")
        if not f.variables() <= {"x"}:
            raise InputError("f must be a polynomial in x alone")
        if spec.h.substitute({"x": _mu_x(spec, mu)}) != spec.h:
            raise InputError(f"h({mu}*x) != h(x)")
        if sigma == 1 and _low_part(f, spec.n):
            raise InputError("sigma = +1 requires f = 0 mod x^n")
        if sigma == -1 and _low_part(f + spec.h, spec.n):
            raise InputError("sigma = -1 requires f = -h mod x^n")

    def image_x(self) -> RElem:
        return RElem.var(self.spec, "x").scale(self.mu)

    def image_z(self) -> RElem:
        return RElem(
            self.spec, self.f, Poly.const(self.spec.field, self.sigma)
        )

    def image_y(self) -> RElem:
        return forced_y(self.spec, self.mu, self.image_z())

    def images(self) -> dict:
        return {"x": self.image_x(), "y": self.image_y(), "z": self.image_z()}

    def apply(self, a: RElem) -> RElem:
        if a.spec != self.spec:
            raise InputError("element of a different ring")
        return substitute_poly(self.spec, a, self.images())

    def is_identity(self) -> bool:
        return self.mu == 1 and self.sigma == 1 and self.f.is_zero()

    def __str__(self):
        return f"(mu={self.mu}, sigma={self.sigma:+d}, f={format_poly(self.f)})"


def _mu_x(spec: RingSpec, mu: Scalar) -> Poly:
    return Poly.variable(spec.field, "x").scale(mu)


def identity(spec: RingSpec) -> Automorphism:
    return Automorphism(spec, spec.field.one, 1, Poly.zero(spec.field))


def shear(spec: RingSpec, f) -> Automorphism:
    """E_f: x -> x, z -> z + x^n f(x) (the U = 1 slice of a coefficient-family map)."""
    if type(f) is not Poly:
        f = Poly.const(spec.field, f)
    if not f.variables() <= {"x"}:
        raise InputError("shear coefficient must be a polynomial in x")
    return Automorphism(spec, spec.field.one, 1, Poly.variable(spec.field, "x", spec.n) * f)


def involution(spec: RingSpec) -> Automorphism:
    """T: x -> x, y -> y, z -> -z - h(x); an order-2 automorphism."""
    return Automorphism(spec, spec.field.one, -1, -spec.h)


def scaling(spec: RingSpec, mu) -> Automorphism:
    """L_mu: x -> mu x, y -> mu^-n y, z -> z; requires h(mu x) = h(x)."""
    mu = spec.field.scalar(mu)
    return Automorphism(spec, mu, 1, Poly.zero(spec.field))


def compose(a: Automorphism, b: Automorphism) -> Automorphism:
    """a after b: (a . b)(r) = a(b(r)).  Closure is re-checked by construction."""
    if a.spec != b.spec:
        raise InputError("automorphisms of different rings")
    spec = a.spec
    mu = a.mu * b.mu
    sigma = a.sigma * b.sigma
    f = a.f.scale(spec.field.scalar(b.sigma)) + b.f.substitute(
        {"x": _mu_x(spec, a.mu)}
    )
    return Automorphism(spec, mu, sigma, f)


def inverse(a: Automorphism) -> Automorphism:
    spec = a.spec
    mu_inv = a.mu.inv()
    f_inv = a.f.substitute({"x": _mu_x(spec, mu_inv)}).scale(
        spec.field.scalar(-a.sigma)
    )
    return Automorphism(spec, mu_inv, a.sigma, f_inv)


def from_images(spec: RingSpec, images: dict) -> Automorphism:
    """Validate candidate generator images and extract the canonical triple.

    Shape checks run first (x -> mu x; z -> sigma z + f(x) with the right
    congruence), so a candidate like z -> z + x fails with NotCanonicalShape;
    relation preservation and invertibility are checked afterwards.  A
    preserved relation forces the y-image, as x^n is no zero divisor.
    """
    _require_standard(spec)
    for var in ("x", "y", "z"):
        if var not in images:
            raise InputError(f"missing image of {var}")
        if images[var].spec != spec:
            raise InputError(f"image of {var} lies in a different ring")

    ix = images["x"]
    x_terms = ix.terms
    if set(x_terms) != {VAR_MONO["x"]}:
        raise NotCanonicalShape(f"x-image {ix} is not of the form mu*x")
    mu = x_terms[VAR_MONO["x"]]

    iz = images["z"]
    z_part, f = iz.f2, iz.f1
    if not z_part.is_constant() or z_part.is_zero():
        raise NotCanonicalShape(f"z-image {iz} is not of the form sigma*z + f(x)")
    lam = z_part.constant_value()
    # in characteristic 2, where 1 = -1, only f = 0 mod x^n marks a shear
    if lam not in (1, -1):
        raise NotCanonicalShape(f"z-coefficient {lam} is not +-1")
    sigma = 1 if lam == 1 and not (lam == -1 and _low_part(f, spec.n)) else -1
    try:
        candidate = Automorphism(spec, mu, sigma, f)
    except InputError as exc:
        raise NotCanonicalShape(str(exc)) from None

    rel = spec.relation()
    if not substitute_poly(spec, rel, images).is_zero():
        raise AlgebraError("images do not preserve the defining relation")

    inv = inverse(candidate)
    if not compose(candidate, inv).is_identity() or not compose(inv, candidate).is_identity():
        raise AlgebraError("candidate has no two-sided inverse")
    return candidate


def decompose(a: Automorphism):
    """The unique word (mu, eps, g) with a = L_mu . T^eps . E_g."""
    spec = a.spec
    eps = 0 if a.sigma == 1 else 1
    base = a.f if eps == 0 else a.f + spec.h
    q = base.divide_var_power("x", spec.n)
    mu_inv = a.mu.inv()
    g = q.substitute({"x": _mu_x(spec, mu_inv)}).scale(mu_inv**spec.n)
    return a.mu, eps, g


def recompose(spec: RingSpec, mu, eps: int, g) -> Automorphism:
    word = shear(spec, g)
    if eps:
        word = compose(involution(spec), word)
    return compose(scaling(spec, mu), word)


def _split_word(text: str):
    """The stripped factors of a word split at top-level '*', each with its
    offset in text."""
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "*" and depth == 0:
            parts.append(_strip(text[start:i], start))
            start = i + 1
    parts.append(_strip(text[start:], start))
    return parts


def parse_aut_word(text: str, spec: RingSpec) -> Automorphism:
    """Parse "L(2) * T * E(x+1)"; the rightmost factor acts first.  Error
    offsets count from the start of text."""
    _require_standard(spec)  # before any factor, so the error carries no offset
    atoms = []
    for part, at in _split_word(text):
        if not part:
            raise ParseError("empty factor in automorphism word", at)
        if part == "T":
            atoms.append(involution(spec))
        elif part.startswith("L(") and part.endswith(")"):
            with _offset(at + 2):
                mu = parse_scalar(part[2:-1], spec.field)
            with _offset(at):
                atoms.append(scaling(spec, mu))
        elif part.startswith("E(") and part.endswith(")"):
            with _offset(at + 2):
                f = parse_poly(part[2:-1], spec.field)
            if not f.variables() <= {"x"}:
                raise ParseError("shear argument must be a polynomial in x", at)
            atoms.append(shear(spec, f))
        else:
            raise ParseError(f"unknown automorphism factor {part!r}", at)
    word = atoms[0]
    for atom in atoms[1:]:
        word = compose(word, atom)
    return word


class GroupStructure(Record):
    """Shape of Aut(R) = N x| H with H = <T> x L; l_order is an int, or None
    for the full multiplicative group of Q."""

    _fields = ("m", "l_order", "l_description", "h_description", "n_description", "field")

    def __init__(self, m: int, l_order, l_description: str, h_description: str,
                 n_description: str, field: FieldSpec):
        vars(self).update(m=m, l_order=l_order, l_description=l_description,
                          h_description=h_description, n_description=n_description,
                          field=field)

    @cached_property
    def l_elements(self):
        """The elements of L = {mu : mu^m = 1}, ascending, found on first use;
        None for m = 0, where L is all of k*."""
        return tuple(nth_roots(self.field.one, self.m)) if self.m else None


def group_structure(spec: RingSpec) -> GroupStructure:
    """Compute m = gcd of the nonconstant x-exponents of h and the order of
    the scaling subgroup L = {mu : mu^m = 1} without listing L: gcd(m, p - 1)
    in the cyclic group F_p*, and over Q 2 or 1 (mu = -1 or not)."""
    if not spec.standard:
        raise InputError("group structure is defined for standard specs")
    m = 0
    for mo, _ in spec.h.ints()[1]:
        if mo[2] > 0:
            m = gcd(m, mo[2])
    field = spec.field
    p = field.characteristic
    n_desc = "additive group of k[x] (shears E_f)"
    if m == 0:
        l_order = None if p == 0 else p - 1
        l_desc = "full multiplicative group k*"
        return GroupStructure(0, l_order, l_desc, "C2 x k*", n_desc, field)
    k = gcd(m, p - 1) if p else 2 - m % 2
    if k == 1:
        return GroupStructure(m, 1, "trivial", "C2", n_desc, field)
    return GroupStructure(m, k, f"cyclic of order {k}", f"C2 x C{k}", n_desc, field)
