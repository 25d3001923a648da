"""Canonical-form arithmetic in R = k[x,y,z]/(x^n y - z^2 - h(x) z).

Because the defining relation is monic and quadratic in z, the set {1, z}
is a free basis for R over k[x, y], and every element has a unique normal
form f1 + z*f2 with f1, f2 free of z: a polynomial of z-degree at most 1.
An element, RElem, is that Poly plus its ring.  Only products and Frobenius
powers reduce by z^2 = x^n*y - h*z, through the spec's one relation step.
Polynomial extensions R[T], R[U], R[S,U] reuse the same element type: the
parameters T, U, S simply appear in the polynomial.

Two spec variants widen the reach of the type: `graded` drops h (the ring
k[x,y,z]/(x^n y - z^2), the homogenization target), and `free` drops the
relation entirely (a plain polynomial ring, used with generators x, y).
"""

from __future__ import annotations

from functools import cached_property

from .errors import InputError
from .polyring import (Accumulator, Poly, SubstitutionMemo, WeightVector, add_views,
                       fold_product, format_poly, lowest_terms, power, reduce_view, same_view,
                       substitute_terms, terms_view, unmoved)
from .records import Record
from .scalars import FieldSpec, Scalar, int_to_str

PARAMS = ("T", "U", "S")


def _require_hypotheses(field: FieldSpec, n: int, h: Poly, standard: bool = True):
    """The conditions on (n, h) that do not involve deg h: n >= 2, h over the
    field and in x alone, and for a standard spec h(0) != 0."""
    if n < 2:
        raise InputError(f"n must be at least 2, got {int_to_str(n)}")
    if type(h) is not Poly:
        raise TypeError(f"h must be a Poly, not {type(h).__name__}")
    if h.field != field:
        raise InputError("h is defined over a different field")
    if not h.variables() <= {"x"}:
        raise InputError("h must be a polynomial in x alone")
    if standard and h.constant_value().is_zero():
        raise InputError("h(0) must be nonzero")


class RingSpec(Record):
    """Defining data (field, n, h) of a surface ring, plus variant flags.

    The spec caches only its relation and the integer views of z^2 and z^p,
    which point nowhere back at it, so that no spec is part of a reference
    cycle."""

    _fields = ("field", "n", "h", "graded", "free")

    def __init__(self, field: FieldSpec, n: int, h: Poly, graded: bool = False,
                 free: bool = False):
        vars(self).update(field=field, n=n, h=h, graded=graded, free=free)
        _require_hypotheses(field, n, h, self.standard)
        if graded and free:
            raise InputError("a spec cannot be both graded and free")
        if not self.standard:
            if not h.is_zero():
                raise InputError("graded and free specs require h = 0")
            return
        deg = h.degree_in("x")
        if deg >= n:
            raise InputError(f"deg_x(h) = {deg} >= n = {n}; apply reduce_presentation")

    @property
    def standard(self) -> bool:
        return not (self.graded or self.free)

    def generators(self) -> tuple:
        return ("x", "y") if self.free else ("x", "y", "z")

    def relation(self):
        """The defining polynomial x^n*y - z^2 - h*z, or None for a free spec."""
        return self._relation

    @cached_property
    def _relation(self):
        """relation(), formed once per spec."""
        if self.free:
            return None
        f = self.field
        rel = Poly.variable(f, "x", self.n) * Poly.variable(f, "y")
        rel = rel - Poly.variable(f, "z", 2)
        rel = rel - self.h * Poly.variable(f, "z")
        return rel

    @cached_property
    def _z_squared_view(self) -> tuple:
        """The integer view of z^2 = x^n*y - h*z in normal form, formed once
        per spec; a free spec has no relation, so products never read it."""
        return (self.relation() + Poly.variable(self.field, "z", 2)).ints()

    @cached_property
    def _z_to_p_view(self) -> tuple:
        """The integer view of z^p in normal form in characteristic p, formed
        once per spec by p - 1 products by z, each taking the z^2 step."""
        view = z_view = Poly.variable(self.field, "z").ints()
        for _ in range(self.field.characteristic - 1):
            acc = Accumulator()
            fold_product(acc, view, z_view)
            self.fold_relation(acc)
            view = reduce_view(self.field, acc)
        return view

    def fold_relation(self, acc: Accumulator, k: int = 2) -> None:
        """The one relation step: move the z^k sums out of acc and fold them
        with z^k in normal form into acc.  A product of normal forms takes
        it with k = 2 (z*f2 times z*g2), a Frobenius power with k = p, the
        only z-exponent above 1 that it has; over F2 the two are one.  A
        free spec has no relation to rewrite them by."""
        sums = acc.sums
        high = [m for m in sums if m[0] == k]
        if high:
            if self.free:
                raise InputError("product needs z^2, which a free spec cannot reduce")
            items = [((0,) + m[1:], sums.pop(m)) for m in high]
            fold_product(acc, (acc.den, items),
                         self._z_squared_view if k == 2 else self._z_to_p_view)

    def __str__(self):
        flags = ", graded" if self.graded else (", free" if self.free else "")
        return (f"R(n={int_to_str(self.n)}, h={format_poly(self.h)}, "
                f"field={self.field.label}{flags})")


class RElem(Poly):
    """An element of R (or of R[T], R[U], R[S,U]): its normal form, a
    polynomial f1 + z*f2 of z-degree at most 1, that knows its ring `spec`.
    The polynomial operations carry the spec along; only products and
    Frobenius powers reduce by the relation."""

    __slots__ = ("spec",)

    def __init__(self, spec: RingSpec, f1: Poly, f2: Poly):
        if f1.field != spec.field or f2.field != spec.field:
            raise InputError("component over a different field")
        if "z" in f1.variables() or "z" in f2.variables():
            raise InputError("normal-form components must not contain z")
        d, items = f2.ints()
        z_f2 = (d, [((1, a1, a2, a3, a4, a5), v) for (_, a1, a2, a3, a4, a5), v in items])
        self.field = spec.field
        self._ints = add_views(spec.field, f1.ints(), z_f2)
        self._terms = None
        self.spec = spec

    @classmethod
    def _trusted(cls, spec: RingSpec, terms: dict, view: tuple = None) -> "RElem":
        """Skip the checks: the value must be canonical, over spec.field and
        of z-degree at most 1, as the results of operations on such elements
        are.  It is its reduced `view`; `terms`, if given, are its Scalars,
        and the view is formed from them when not given."""
        a = object.__new__(cls)
        a.field = spec.field
        a._terms = terms
        a._ints = terms_view(spec.field, terms) if view is None else view
        a.spec = spec
        return a

    def _like(self, view: tuple) -> "RElem":
        return RElem._trusted(self.spec, None, view)

    # Generators and constants are normal forms, so they skip the checks.
    @classmethod
    def zero(cls, spec: RingSpec) -> "RElem":
        return cls._trusted(spec, None, (1, []))

    @classmethod
    def one(cls, spec: RingSpec) -> "RElem":
        return cls.const(spec, 1)

    @classmethod
    def const(cls, spec: RingSpec, value) -> "RElem":
        return cls._trusted(spec, None, Poly.const(spec.field, value).ints())

    @classmethod
    def var(cls, spec: RingSpec, name: str) -> "RElem":
        return cls._trusted(spec, None, Poly.variable(spec.field, name).ints())

    @property
    def f1(self) -> Poly:
        """The z-free part of the normal form."""
        return self.coeff_of("z", 0)

    @property
    def f2(self) -> Poly:
        """The coefficient of z in the normal form."""
        return self.coeff_of("z", 1)

    def _coerce(self, other):
        if isinstance(other, RElem):
            if other.spec is not self.spec and other.spec != self.spec:
                raise InputError("elements of different rings")
            return other
        if isinstance(other, (int, Scalar)):
            return RElem.const(self.spec, other)
        return None

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        spec = self.spec
        acc = Accumulator()
        fold_product(acc, self.ints(), o.ints())
        spec.fold_relation(acc)
        return RElem._trusted(spec, None, reduce_view(spec.field, acc))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "RElem":
        if not isinstance(k, int) or k < 0:
            raise InputError("element powers must be natural numbers")
        return power({1: self}, k) if k else RElem.one(self.spec)

    def _has_z(self) -> bool:
        return any(m[0] for m, _ in self._ints[1])

    def dense_over_q(self) -> bool:
        """As for Poly; over Q a z term makes it dense, as z^2 = x^n*y - h*z."""
        return not self.field.characteristic and (self._has_z() or Poly.dense_over_q(self))

    def is_monomial(self) -> bool:
        """z-free with at most one term, so power() forms c^e*m^e in one step."""
        return len(self._ints[1]) <= 1 and not self._has_z()

    def frobenius(self) -> "RElem":
        """self^p over F_p: every exponent of the integer view times p (c^p =
        c), the z^p sums folded by the spec's relation step and reduced once.
        z^p is formed only for a nonzero z-part; a free spec cannot form z^2."""
        spec = self.spec
        p = spec.field.characteristic
        acc = Accumulator()
        acc.sums = {(a0 * p, a1 * p, a2 * p, a3 * p, a4 * p, a5 * p): v
                    for (a0, a1, a2, a3, a4, a5), v in self.ints()[1]}
        spec.fold_relation(acc, p)
        return RElem._trusted(spec, None, reduce_view(spec.field, acc))

    def __eq__(self, other):
        if not isinstance(other, RElem):
            return NotImplemented
        same = self.spec is other.spec or self.spec == other.spec
        return same and same_view(self._ints, other._ints)

    def to_poly(self) -> Poly:
        """The normal form as a plain polynomial."""
        return Poly._of_view(self.field, self._ints, self._terms)

    def u_coefficients(self) -> dict:
        """{i: the U^i-coefficient} over the nonzero ones, in ascending i,
        read in one walk of the view."""
        d, items = self._ints
        parts = {}
        for (a0, a1, a2, a3, i, a5), v in items:
            parts.setdefault(i, []).append(((a0, a1, a2, a3, 0, a5), v))
        return {i: self._like(lowest_terms(d, parts[i])) for i in sorted(parts)}

    def substitute_params(self, bindings: dict) -> "RElem":
        """Substitute z-free polynomials for the free parameters T, U, S only."""
        for var, val in bindings.items():
            if var not in PARAMS:
                raise InputError(f"{var!r} is not a free parameter")
            if type(val) is Poly and "z" in val.variables():
                raise InputError("normal-form components must not contain z")
        return self._like(self.substitute(bindings).ints())

    def top_part(self, w: WeightVector, target: RingSpec = None) -> "RElem":
        """The terms achieving the weighted degree, read in `target` (default: same spec)."""
        if self.is_zero():
            raise InputError("top part of zero is undefined")
        target = target or self.spec
        if target.field != self.field:
            raise InputError("component over a different field")
        return RElem._trusted(target, None, Poly.top_part(self, w).ints())

    def __repr__(self):
        return f"RElem({format_poly(self)})"


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
    """Exact division by x^m, term by term (valid since {1, z} is a free basis)."""
    return a.divide_var_power("x", m)


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


def substitute_poly(spec: RingSpec, p: Poly, images: dict,
                    memo: SubstitutionMemo = None) -> RElem:
    """Evaluate a polynomial on ring elements: the homomorphism sending each
    variable to its image (variables absent from `images` map to themselves).
    A p of z-degree at most 1 in no variable whose image moves is its own
    image, read in spec without substituting.  `memo`, if given, is the one
    that the caller keeps for these images (polyring.substitute_terms)."""
    if p.field is not spec.field and p.field != spec.field:
        raise InputError("polynomial over a different field")
    for img in images.values():
        if img.spec is not spec and img.spec != spec:
            raise InputError("elements of different rings")
    if unmoved(p, images, z_top=1, memo=memo):
        if type(p) is RElem and p.spec is spec:
            return p
        return RElem._trusted(spec, p._terms, p._ints)
    return RElem._trusted(spec, None, substitute_view(spec, p, images, memo))


def substitute_view(spec: RingSpec, p: Poly, images: dict,
                    memo: SubstitutionMemo = None) -> tuple:
    """substitute_poly's value as its reduced integer view, for images in
    spec, and without the return of an unmoved p.  z stays bound, so its
    powers come reduced and every free part is z-free; bound to itself, it
    moves nothing, so `memo` keeps the moved variables of `images`."""
    bound = {"z": RElem.var(spec, "z"), **images}
    return substitute_terms(p, bound, spec.fold_relation, memo)
