"""Canonical-form arithmetic in R = k[x,y,z]/(x^n y - z^2 - h(x) z).

Because the defining relation is monic and quadratic in z, the set {1, z}
is a free basis for R over k[x, y], and every element has a unique normal
form f1 + z*f2 with f1, f2 free of z.  Polynomial extensions R[T], R[U],
R[S,U] reuse the same element type: the parameters T, U, S simply appear
inside the components.

Two spec variants widen the reach of the type: `graded` drops h (the ring
k[x,y,z]/(x^n y - z^2), the homogenization target), and `free` drops the
relation entirely (a plain polynomial ring, used with generators x, y).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InputError, NotDivisible
from .polyring import (NEG_INF, Accumulator, Poly, WeightVector, fold_product, format_poly,
                       mono, power, reduce_raw, substitute_terms)
from .scalars import FieldSpec, Scalar

PARAMS = ("T", "U", "S")


def _require_hypotheses(field: FieldSpec, n: int, h: Poly, standard: bool = True):
    """The conditions on (n, h) that do not involve deg h: n >= 2, h over the
    field and in x alone, and for a standard spec h(0) != 0."""
    if n < 2:
        raise InputError(f"n must be at least 2, got {n}")
    if h.field != field:
        raise InputError("h is defined over a different field")
    if not h.variables() <= {"x"}:
        raise InputError("h must be a polynomial in x alone")
    if standard and h.constant_value().is_zero():
        raise InputError("h(0) must be nonzero")


@dataclass(frozen=True)
class RingSpec:
    """Defining data (field, n, h) of a surface ring, plus variant flags."""

    field: FieldSpec
    n: int
    h: Poly
    graded: bool = False
    free: bool = False

    def __post_init__(self):
        _require_hypotheses(self.field, self.n, self.h, self.standard)
        if self.graded and self.free:
            raise InputError("a spec cannot be both graded and free")
        if not self.standard:
            if not self.h.is_zero():
                raise InputError("graded and free specs require h = 0")
            return
        deg = self.h.degree_in("x")
        if deg >= self.n:
            raise InputError(f"deg_x(h) = {deg} >= n = {self.n}; apply reduce_presentation")

    @property
    def standard(self) -> bool:
        return not (self.graded or self.free)

    def generators(self) -> tuple:
        return ("x", "y") if self.free else ("x", "y", "z")

    def relation(self):
        """The defining polynomial x^n*y - z^2 - h*z, or None for a free spec."""
        if self.free:
            return None
        f = self.field
        rel = Poly.variable(f, "x", self.n) * Poly.variable(f, "y")
        rel = rel - Poly.variable(f, "z", 2)
        rel = rel - self.h * Poly.variable(f, "z")
        return rel

    @cached_property
    def z_squared(self) -> "RElem":
        """z^2 = x^n*y - h*z in normal form, formed once per spec; a free
        spec has no relation, so RElem products never read it there."""
        return RElem._trusted(self, Poly(self.field, {mono(x=self.n, y=1): self.field.one}),
                              -self.h)

    @cached_property
    def z(self) -> "RElem":
        """The generator z, formed once per spec."""
        return RElem.var(self, "z")

    @cached_property
    def z_to_p(self) -> "RElem":
        """z^p in characteristic p, formed once per spec by the chains that
        power() takes below 2p, so RElem.frobenius() does not recurse."""
        return power({1: self.z}, self.field.characteristic)

    def __str__(self):
        flags = ", graded" if self.graded else (", free" if self.free else "")
        return f"R(n={self.n}, h={format_poly(self.h)}, field={self.field.label}{flags})"


class RElem:
    """An element f1 + z*f2 of R (or of R[T], R[U], R[S,U]) in normal form."""

    __slots__ = ("spec", "f1", "f2")

    def __init__(self, spec: RingSpec, f1: Poly, f2: Poly):
        if f1.field != spec.field or f2.field != spec.field:
            raise InputError("component over a different field")
        if "z" in f1.variables() or "z" in f2.variables():
            raise InputError("normal-form components must not contain z")
        self.spec = spec
        self.f1 = f1
        self.f2 = f2

    @classmethod
    def _trusted(cls, spec: RingSpec, f1: Poly, f2: Poly) -> "RElem":
        """Skip the checks: f1 and f2 must be z-free and over spec.field, as
        the results of operations on such components are."""
        a = object.__new__(cls)
        a.spec = spec
        a.f1 = f1
        a.f2 = f2
        return a

    @classmethod
    def zero(cls, spec: RingSpec) -> "RElem":
        return cls(spec, Poly.zero(spec.field), Poly.zero(spec.field))

    @classmethod
    def one(cls, spec: RingSpec) -> "RElem":
        return cls.const(spec, 1)

    @classmethod
    def const(cls, spec: RingSpec, value) -> "RElem":
        return cls(spec, Poly.const(spec.field, value), Poly.zero(spec.field))

    @classmethod
    def var(cls, spec: RingSpec, name: str) -> "RElem":
        if name == "z":
            return cls(spec, Poly.zero(spec.field), Poly.const(spec.field, 1))
        return cls(spec, Poly.variable(spec.field, name), Poly.zero(spec.field))

    def _coerce(self, other):
        if isinstance(other, RElem):
            if other.spec is not self.spec and other.spec != self.spec:
                raise InputError("elements of different rings")
            return other
        if isinstance(other, (int, Scalar)):
            return RElem.const(self.spec, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RElem._trusted(self.spec, self.f1 + o.f1, self.f2 + o.f2)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RElem._trusted(self.spec, self.f1 - o.f1, self.f2 - o.f2)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return RElem._trusted(self.spec, -self.f1, -self.f2)

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        spec, field = self.spec, self.spec.field
        a1, a2, b1, b2 = self.f1.ints(), self.f2.ints(), o.f1.ints(), o.f2.ints()
        acc1, acc2 = Accumulator(), Accumulator()
        if a2[1] and b2[1]:  # then f2*g2 != 0: a polynomial ring has no zero divisors
            if spec.free:
                raise InputError("product needs z^2, which a free spec cannot reduce")
            zz = Accumulator()
            fold_product(zz, a2, b2)
            zz = Poly(field, reduce_raw(field, zz)).ints()
            fold_product(acc1, spec.z_squared.f1.ints(), zz)
            fold_product(acc2, spec.z_squared.f2.ints(), zz)
        fold_product(acc1, a1, b1)
        fold_product(acc2, a1, b2)
        fold_product(acc2, a2, b1)
        return RElem._trusted(spec, Poly(field, reduce_raw(field, acc1)),
                              Poly(field, reduce_raw(field, acc2)))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "RElem":
        if not isinstance(k, int) or k < 0:
            raise InputError("element powers must be natural numbers")
        return power({1: self}, k) if k else RElem.one(self.spec)

    def dense_over_q(self) -> bool:
        """As for Poly; over Q a nonzero z-part is dense, as z^2 = x^n*y - h*z."""
        return not self.spec.field.characteristic and (bool(self.f2) or self.f1.dense_over_q())

    def is_monomial(self) -> bool:
        """z-free with at most one term, so power() forms c^e*m^e in one step."""
        return not self.f2 and self.f1.is_monomial()

    def monomial_power(self, e: int) -> "RElem":
        """self^e (e >= 1) for a base that is_monomial()."""
        return RElem._trusted(self.spec, self.f1.monomial_power(e), self.f2)

    def frobenius(self) -> "RElem":
        """self^p over F_p: frobenius(f1) + frobenius(f2)*z^p.  The spec's z^p
        is formed only for a nonzero z-part; a free spec cannot form z^2."""
        f1, f2 = self.f1.frobenius(), self.f2.frobenius()
        if not f2:
            return RElem._trusted(self.spec, f1, f2)
        zp = self.spec.z_to_p
        return RElem._trusted(self.spec, f1 + f2 * zp.f1, f2 * zp.f2)

    def scale(self, c) -> "RElem":
        c = self.spec.field.scalar(c)
        return RElem._trusted(self.spec, self.f1.scale(c), self.f2.scale(c))

    def __bool__(self):
        return bool(self.f1) or bool(self.f2)

    def is_zero(self) -> bool:
        return not self

    @property
    def field(self) -> FieldSpec:
        return self.spec.field

    def __eq__(self, other):
        if not isinstance(other, RElem):
            return NotImplemented
        same = self.spec is other.spec or self.spec == other.spec
        return same and self.f1 == other.f1 and self.f2 == other.f2

    def to_poly(self) -> Poly:
        return self.f1 + Poly.variable(self.spec.field, "z") * self.f2

    def u_coefficients(self) -> dict:
        """{i: the U^i-coefficient} over the nonzero ones, in ascending i,
        read from both components in one walk."""
        parts = {}
        for k, poly in enumerate((self.f1, self.f2)):
            for (a0, a1, a2, a3, i, a5), c in poly.terms.items():
                parts.setdefault(i, ({}, {}))[k][a0, a1, a2, a3, 0, a5] = c
        field = self.spec.field
        return {i: RElem._trusted(self.spec, Poly(field, parts[i][0]), Poly(field, parts[i][1]))
                for i in sorted(parts)}

    def degree_in(self, var: str):
        """Degree in a parameter (T, U, or S) across both components."""
        return max(self.f1.degree_in(var), self.f2.degree_in(var))

    def substitute_params(self, bindings: dict) -> "RElem":
        """Substitute polynomials for the free parameters T, U, S only."""
        for var in bindings:
            if var not in PARAMS:
                raise InputError(f"{var!r} is not a free parameter")
        return RElem(
            self.spec, self.f1.substitute(bindings), self.f2.substitute(bindings)
        )

    def _weighted_degrees(self, w: WeightVector) -> tuple:
        """The weighted degrees of f1 and of z*f2 (-inf for a zero part)."""
        d2 = self.f2.weighted_degree(w) + w.weight("z") if self.f2 else NEG_INF
        return self.f1.weighted_degree(w), d2

    def weighted_degree(self, w: WeightVector):
        return max(self._weighted_degrees(w))

    def top_part(self, w: WeightVector, target: RingSpec = None) -> "RElem":
        """The terms achieving the weighted degree, read in `target` (default: same spec)."""
        if self.is_zero():
            raise InputError("top part of zero is undefined")
        d1, d2 = self._weighted_degrees(w)
        best, zero = max(d1, d2), Poly.zero(self.spec.field)
        return RElem(target or self.spec, self.f1.top_part(w) if d1 == best else zero,
                     self.f2.top_part(w) if d2 == best else zero)

    def __repr__(self):
        return f"RElem({format_poly(self.to_poly())})"

    def __str__(self):
        return format_poly(self.to_poly())


def normal_form(spec: RingSpec, p: Poly) -> RElem:
    """Rewrite z^2 -> x^n*y - h*z until the z-degree drops below 2: the
    substitution that binds every variable to itself does exactly that.

    Each rewrite strictly lowers the z-degree, so the procedure terminates
    and the result does not depend on the rewrite order.
    """
    if spec.free and p.degree_in("z") >= 2:
        raise InputError("free spec admits no z^2 reduction")
    return substitute_poly(spec, p, {})


def r_x_divide(a: RElem, m: int) -> RElem:
    """Exact division by x^m, componentwise (valid since {1, z} is a free basis)."""
    try:
        f1 = a.f1.divide_var_power("x", m)
    except NotDivisible as exc:
        raise NotDivisible(f"constant component: {exc}") from None
    try:
        f2 = a.f2.divide_var_power("x", m)
    except NotDivisible as exc:
        raise NotDivisible(f"z component: {exc}") from None
    return RElem(a.spec, f1, f2)


def forced_y(source: RingSpec, mu: Scalar, image_z: RElem) -> RElem:
    """The y-image that the relation of `source` forces under x -> mu*x, z ->
    image_z, in the ring of image_z: (mu*x)^n y' = image_z^2 + h(mu*x) image_z.
    NotDivisible means image_z breaks the relation."""
    h_mu = source.h.substitute({"x": Poly.variable(source.field, "x").scale(mu)})
    rhs = image_z * (image_z + RElem(image_z.spec, h_mu, Poly.zero(source.field)))
    return r_x_divide(rhs, source.n).scale(mu.inv() ** source.n)


def reduce_presentation(field: FieldSpec, n: int, h_raw: Poly):
    """Lower deg_x(h) below n by the substitution y -> y + g(x)*z.

    While deg_x(h) = d >= n, replacing y by y + h0*x^(d-n)*z (h0 the leading
    coefficient) turns the relation x^n*y - z^2 - h*z into the same relation
    with h replaced by h - h0*x^d.  The returned record g accumulates the
    composite substitution y -> y + g(x)*z back to the original presentation.
    """
    _require_hypotheses(field, n, h_raw)
    h = h_raw
    g = Poly.zero(field)
    while h.degree_in("x") >= n:
        d = int(h.degree_in("x"))
        h0 = h.coeff_of("x", d).constant_value()
        g = g + Poly.variable(field, "x", d - n).scale(h0)
        h = h - Poly.variable(field, "x", d).scale(h0)
    return RingSpec(field, n, h), g


def substitute_poly(spec: RingSpec, p: Poly, images: dict) -> RElem:
    """Evaluate a polynomial on ring elements: the homomorphism sending each
    variable to its image (variables absent from `images` map to themselves)."""
    if p.field is not spec.field and p.field != spec.field:
        raise InputError("polynomial over a different field")
    for img in images.values():
        if img.spec is not spec and img.spec != spec:
            raise InputError("elements of different rings")
    # z stays bound, so every free part is a z-free first component.
    bound = {"z": spec.z, **images}
    f1, f2 = substitute_terms(p, bound, lambda a: (a.f1, a.f2))
    return RElem._trusted(spec, f1, f2)


def apply_images(spec: RingSpec, images: dict, a: RElem) -> RElem:
    """Apply the homomorphism given by generator images to a normal form."""
    return substitute_poly(spec, a.to_poly(), images)
