"""Isomorphism classification of the surface rings.

Two reduced rings R_1, R_2 are isomorphic exactly when n_1 = n_2 and
h_2(x) = eta * h_1(mu * x) for units eta, mu.  The classifier matches
supports, reads eta off the constant terms, combines the remaining
coefficient constraints mu^i = c_i through an exponent Bezout identity into
a single root problem, and returns the smallest admissible mu.  A positive
verdict comes with an explicit, machine-verified witness map.
"""

from __future__ import annotations

from .errors import AlgebraError, InputError
from .polyring import Poly
from .records import Record
from .scalars import Scalar, nth_roots
from .surface import RElem, RingSpec, forced_y, substitute_poly


class IsoVerdict(Record):
    """eta and mu are Scalars or None; reason is n_mismatch,
    support_mismatch, no_root or ok."""

    _fields = ("isomorphic", "eta", "mu", "reason")

    def __init__(self, isomorphic: bool, eta, mu, reason: str):
        vars(self).update(isomorphic=isomorphic, eta=eta, mu=mu, reason=reason)


def _require_classifiable(spec1: RingSpec, spec2: RingSpec):
    for spec in (spec1, spec2):
        if not spec.standard:
            raise InputError("classification applies to standard specs only")
    if spec1.field != spec2.field:
        raise InputError("rings over different fields")


def _coefficient(h: Poly, i: int) -> Scalar:
    return h.coeff_of("x", i).constant_value()


def _ext_gcd(a: int, b: int):
    """(g, u, v) with u*a + v*b = g."""
    if b == 0:
        return a, 1, 0
    g, u, v = _ext_gcd(b, a % b)
    return g, v, u - (a // b) * v


def classify(spec1: RingSpec, spec2: RingSpec) -> IsoVerdict:
    """Decide R_1 ~ R_2 and return (eta, mu) when they exist.

    Deterministic: among all admissible mu, the smallest under the canonical
    scalar order (numeric over Q, residue over F_p) is returned.
    """
    _require_classifiable(spec1, spec2)
    if spec1.n != spec2.n:
        return IsoVerdict(False, None, None, "n_mismatch")
    h1, h2 = spec1.h, spec2.h
    support1 = sorted(m[2] for m, _ in h1.ints()[1])
    support2 = sorted(m[2] for m, _ in h2.ints()[1])
    if support1 != support2:
        return IsoVerdict(False, None, None, "support_mismatch")
    eta = _coefficient(h2, 0) / _coefficient(h1, 0)
    positive = [i for i in support1 if i > 0]
    if not positive:
        return IsoVerdict(True, eta, spec1.field.one, "ok")
    ratios = {i: _coefficient(h2, i) / (eta * _coefficient(h1, i)) for i in positive}
    d = positive[0]
    bezout = {positive[0]: 1}
    for i in positive[1:]:
        g, u, v = _ext_gcd(d, i)
        bezout = {k: c * u for k, c in bezout.items()}
        bezout[i] = bezout.get(i, 0) + v
        d = g
    c = spec1.field.one
    for i, t in bezout.items():
        c = c * ratios[i] ** t
    candidates = nth_roots(c, d)
    good = [
        mu
        for mu in candidates
        if all(mu**i == ratios[i] for i in positive)
    ]
    if not good:
        return IsoVerdict(False, None, None, "no_root")
    mu = min(good, key=lambda s: s.sort_key())
    mu_x = Poly.variable(spec1.field, "x").scale(mu)
    if h1.substitute({"x": mu_x}).scale(eta) != h2:
        raise AlgebraError("internal error: verified root fails the h identity")
    return IsoVerdict(True, eta, mu, "ok")


def witness(spec1: RingSpec, spec2: RingSpec, verdict: IsoVerdict) -> dict:
    """The isomorphism x -> mu x, z -> eta^-1 z with the y-image eta^-2 mu^-n y
    that the relation of R_1 forces, as images of the generators of R_1 in
    R_2.  The relation of R_1 is checked to map to zero before returning."""
    if not verdict.isomorphic:
        raise InputError("witness requires a positive verdict")
    eta, mu = verdict.eta, verdict.mu
    image_z = RElem.var(spec2, "z").scale(eta.inv())
    images = {
        "x": RElem.var(spec2, "x").scale(mu),
        "y": forced_y(spec1, mu, image_z),
        "z": image_z,
    }
    mapped = substitute_poly(spec2, spec1.relation(), images)
    if not mapped.is_zero():
        raise AlgebraError(f"internal error: witness breaks the relation: {mapped}")
    return images
