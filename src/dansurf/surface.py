"""Canonical-form arithmetic in R = k[x,y,z]/(x^n y - z^2 - h(x) z).

Because the defining relation is monic and quadratic in z, the set {1, z}
is a free basis for R over k[x, y], and every element has a unique normal
form f1 + z*f2 with f1, f2 free of z: a polynomial of z-degree at most 1.
An element, RElem, is that Poly plus its ring.  Only products (and Frobenius powers)
rewrite z^2 = x^n*y - h*z.  Polynomial extensions R[T], R[U], R[S,U] reuse
the same element type: the parameters T, U, S simply appear in the
polynomial.

Two spec variants widen the reach of the type: `graded` drops h (the ring
k[x,y,z]/(x^n y - z^2), the homogenization target), and `free` drops the
relation entirely (a plain polynomial ring, used with generators x, y).
"""

from __future__ import annotations

from functools import cached_property

from .errors import InputError
from .polyring import (VAR_INDEX, Accumulator, Poly, WeightVector, fold_product, format_poly,
                       is_variable, power, reduce_view, substitute_terms, view_terms)
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

    The spec caches only data that does not point back at it (the integer
    view of z^2, the terms and views of z and z^p); its elements z and z^p
    are formed on access, so that no spec is part of a reference cycle."""

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

    def fold_z_squared(self, acc: Accumulator) -> None:
        """The one z^2 step of a product of normal forms: move the z^2 sums
        (z*f2 times z*g2) out of acc and fold them with z^2 into acc.  A free
        spec has no relation to rewrite them by."""
        sums = acc.sums
        zz = [m for m in sums if m[0] == 2]
        if zz:
            if self.free:
                raise InputError("product needs z^2, which a free spec cannot reduce")
            items = [((0,) + m[1:], sums.pop(m)) for m in zz]
            fold_product(acc, (acc.den, items), self._z_squared_view)

    @cached_property
    def _z(self) -> tuple:
        z = Poly.variable(self.field, "z")
        return z.terms, z.ints()

    @property
    def z(self) -> "RElem":
        """The generator z, formed on each access from terms formed once."""
        return RElem._trusted(self, *self._z)

    @cached_property
    def _z_to_p(self) -> tuple:
        """The terms and integer view of z^p in characteristic p, formed
        once per spec by the chains that power() takes below 2p, so
        RElem.frobenius() does not recurse."""
        zp = power({1: self.z}, self.field.characteristic)
        return zp.terms, zp.ints()

    @property
    def z_to_p(self) -> "RElem":
        """z^p in characteristic p, formed on each access from terms formed once."""
        return RElem._trusted(self, *self._z_to_p)

    def __str__(self):
        flags = ", graded" if self.graded else (", free" if self.free else "")
        return (f"R(n={int_to_str(self.n)}, h={format_poly(self.h)}, "
                f"field={self.field.label}{flags})")


class RElem(Poly):
    """An element of R (or of R[T], R[U], R[S,U]): its normal form, a
    polynomial f1 + z*f2 of z-degree at most 1, that knows its ring `spec`.
    The polynomial operations carry the spec along; only products (and
    Frobenius powers) rewrite z^2."""

    __slots__ = ("spec",)

    def __init__(self, spec: RingSpec, f1: Poly, f2: Poly):
        if f1.field != spec.field or f2.field != spec.field:
            raise InputError("component over a different field")
        if "z" in f1.variables() or "z" in f2.variables():
            raise InputError("normal-form components must not contain z")
        terms = dict(f1.terms)  # f1 and z*f2 share no monomial
        for (_, a1, a2, a3, a4, a5), c in f2.terms.items():
            terms[1, a1, a2, a3, a4, a5] = c
        Poly.__init__(self, spec.field, terms)
        self.spec = spec

    @classmethod
    def _trusted(cls, spec: RingSpec, terms: dict, view: tuple = None) -> "RElem":
        """Skip the checks: terms must be canonical, over spec.field and of
        z-degree at most 1, as the results of operations on such elements
        are; `view`, if given, is their integer view."""
        a = object.__new__(cls)
        a.field = spec.field
        a.terms = terms
        a._ints = view
        a.spec = spec
        return a

    def _like(self, terms: dict) -> "RElem":
        return RElem._trusted(self.spec, terms)

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
        spec.fold_z_squared(acc)
        view = reduce_view(spec.field, acc)
        return RElem._trusted(spec, view_terms(spec.field, view), view)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "RElem":
        if not isinstance(k, int) or k < 0:
            raise InputError("element powers must be natural numbers")
        return power({1: self}, k) if k else RElem.one(self.spec)

    def _has_z(self) -> bool:
        return any(m[0] for m in self.terms)

    def dense_over_q(self) -> bool:
        """As for Poly; over Q a z term makes it dense, as z^2 = x^n*y - h*z."""
        return not self.field.characteristic and (self._has_z() or Poly.dense_over_q(self))

    def is_monomial(self) -> bool:
        """z-free with at most one term, so power() forms c^e*m^e in one step."""
        return len(self.terms) <= 1 and not self._has_z()

    def frobenius(self) -> "RElem":
        """self^p over F_p: the Frobenius image of the polynomial, whose z^p
        part is multiplied by the spec's z^p.  That z^p is formed only for a
        nonzero z-part; a free spec cannot form z^2."""
        spec, f = self.spec, Poly.frobenius(self)
        high = f.coeff_of("z", spec.field.characteristic)
        if not high:
            return f
        return self._like(f.coeff_of("z", 0).terms) + self._like(high.terms) * spec.z_to_p

    def __eq__(self, other):
        if not isinstance(other, RElem):
            return NotImplemented
        same = self.spec is other.spec or self.spec == other.spec
        return same and self.terms == other.terms

    def to_poly(self) -> Poly:
        """The normal form as a plain polynomial."""
        return Poly(self.field, self.terms)

    def u_coefficients(self) -> dict:
        """{i: the U^i-coefficient} over the nonzero ones, in ascending i,
        read in one walk."""
        parts = {}
        for (a0, a1, a2, a3, i, a5), c in self.terms.items():
            parts.setdefault(i, {})[a0, a1, a2, a3, 0, a5] = c
        return {i: self._like(parts[i]) for i in sorted(parts)}

    def substitute_params(self, bindings: dict) -> "RElem":
        """Substitute z-free polynomials for the free parameters T, U, S only."""
        for var, val in bindings.items():
            if var not in PARAMS:
                raise InputError(f"{var!r} is not a free parameter")
            if type(val) is Poly and "z" in val.variables():
                raise InputError("normal-form components must not contain z")
        return self._like(self.substitute(bindings).terms)

    def top_part(self, w: WeightVector, target: RingSpec = None) -> "RElem":
        """The terms achieving the weighted degree, read in `target` (default: same spec)."""
        if self.is_zero():
            raise InputError("top part of zero is undefined")
        target = target or self.spec
        if target.field != self.field:
            raise InputError("component over a different field")
        return RElem._trusted(target, Poly.top_part(self, w).terms)

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


def _unmoved(p: Poly, moved: list) -> bool:
    """Whether p has z-degree at most 1 and no positive exponent at the
    indices `moved`: one scan of its terms, which stops at the first that
    fails."""
    for m in p.terms:
        if m[0] > 1:
            return False
        for i in moved:
            if m[i]:
                return False
    return True


def substitute_poly(spec: RingSpec, p: Poly, images: dict) -> RElem:
    """Evaluate a polynomial on ring elements: the homomorphism sending each
    variable to its image (variables absent from `images` map to themselves).
    A p of z-degree at most 1 in no variable whose image moves is its own
    image, read in spec without substituting."""
    if p.field is not spec.field and p.field != spec.field:
        raise InputError("polynomial over a different field")
    for img in images.values():
        if img.spec is not spec and img.spec != spec:
            raise InputError("elements of different rings")
    if _unmoved(p, [VAR_INDEX[var] for var, img in images.items() if not is_variable(img, var)]):
        return p if type(p) is RElem and p.spec is spec else RElem._trusted(spec, p.terms, p._ints)
    # z stays bound, so its powers come reduced and every free part is z-free.
    bound = {"z": spec.z, **images}
    view = substitute_terms(p, bound, spec.fold_z_squared)
    return RElem._trusted(spec, view_terms(spec.field, view), view)
