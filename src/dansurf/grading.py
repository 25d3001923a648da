"""Homogenization of exponential maps along a weight filtration.

A weight vector w grades the ring; the induced weight of the exponential
parameter is

    w(U) = min over carriers g and i >= 1 with D^i(g) != 0
           of (w(g) - w(D^i(g))) / i,

chosen so that w(D^i(a) U^i) <= w(a) holds throughout.  The homogenized map
keeps, for each generator, exactly the U-coefficients achieving equality
(the index set S(g)) with their top parts, and acts on the associated
graded ring gr_w(R), which R and w determine: its relation is the top part
of R's, so the h-term drops out exactly when its weight is lower.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AlgebraError, InputError
from .expmaps import ExponentialMap, is_invariant, make_exponential
from .polyring import Poly, WeightVector
from .records import Record
from .surface import RElem, RingSpec


def _coefficients(phi: ExponentialMap, w: WeightVector):
    """The induced weight of U, and for each carrier g its weight and the
    (i, D^i(g), weight) of every nonzero U-coefficient D^i(g) of phi(g)."""
    if not phi.verified:
        raise InputError("homogenization requires a verified map")
    table, candidates = {}, []
    for g in phi.carriers():
        img = phi.image(g)
        g_weight = RElem.var(phi.spec, g).weighted_degree(w)
        coeffs = []
        for i, di in img.u_coefficients().items():
            d_weight = di.weighted_degree(w)
            coeffs.append((i, di, d_weight))
            if i:
                candidates.append(Fraction(g_weight - d_weight, i))
        table[g] = (g_weight, coeffs)
    if not candidates:
        raise InputError("the map is trivial; no derivation coefficient is nonzero")
    return min(candidates), table


def parameter_weight(phi: ExponentialMap, w: WeightVector) -> Fraction:
    """The induced weight of U; an InputError when no D^i(g) is nonzero."""
    return _coefficients(phi, w)[0]


def _graded_ring(spec: RingSpec, w: WeightVector) -> RingSpec:
    """gr_w(R), whose relation is the top part of R's under w: R itself when
    w makes the relation homogeneous (or R is free), the graded variant when
    the top part is x^n*y - z^2, and otherwise an InputError."""
    rel = spec.relation()
    if rel is None:
        return spec
    top = rel.top_part(w)
    if top == rel:
        return spec
    graded = RingSpec(spec.field, spec.n, Poly.zero(spec.field), graded=True)
    if top != graded.relation():
        raise InputError(f"the top part {top} of the relation under {w} is neither "
                         f"the relation nor {graded.relation()}")
    return graded


class Homogenization(Record):
    _fields = ("parameter_weight", "target", "bar", "s_sets")

    def __init__(self, parameter_weight: Fraction, target: RingSpec, bar: ExponentialMap,
                 s_sets: dict):
        vars(self).update(parameter_weight=parameter_weight, target=target, bar=bar,
                          s_sets=s_sets)


def _invariant_sample(spec: RingSpec):
    """Candidate invariants x^k h^m (k, m <= 3); h-powers only when h != 0.
    Each power of h is formed once, from the one before."""
    x = RElem.var(spec, "x")
    h_powers = [RElem.one(spec)]
    if spec.h:
        h = RElem(spec, spec.h, Poly.zero(spec.field))
        for _ in range(3):
            h_powers.append(h_powers[-1] * h)
    return [x**k * hm for k in range(4) for hm in h_powers]


def homogenize(phi: ExponentialMap, w: WeightVector) -> Homogenization:
    """Build the top-part map of phi on the graded ring gr_w(R).

    The bar images are assembled from the index sets S(g) and verified to
    satisfy all three exponential-map checks on gr_w(R).  Sampled invariants
    of phi are checked to have bar-invariant top parts.  Applying homogenize
    again to the bar map, with a refining weight vector, is the next stage.
    """
    spec = phi.spec
    target = _graded_ring(spec, w)
    g_u, table = _coefficients(phi, w)

    s_sets, bar_images = {}, {}
    u_target = RElem.var(target, "U")
    for g, (g_weight, coeffs) in table.items():
        indices = []
        bar = RElem.zero(target)
        for i, di, d_weight in coeffs:
            if d_weight + i * g_u == g_weight:
                indices.append(i)
                bar = bar + di.top_part(w, target) * u_target**i
        s_sets[g] = tuple(indices)
        bar_images[g] = bar

    bar_map = make_exponential(target, bar_images)

    for a in _invariant_sample(spec):
        if a.is_zero() or not is_invariant(phi, a):
            continue
        top = a.top_part(w, target)
        if not is_invariant(bar_map, top):
            raise AlgebraError(f"top part {top} of the invariant {a} is not bar-invariant")

    return Homogenization(g_u, target, bar_map, s_sets)
