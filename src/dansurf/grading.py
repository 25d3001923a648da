"""Homogenization of exponential maps along a weight filtration.

A weight vector w grades the ring; the induced weight of the exponential
parameter is

    w(U) = min over carriers g and i >= 1 with D^i(g) != 0
           of (w(g) - w(D^i(g))) / i,

chosen so that w(D^i(a) U^i) <= w(a) holds throughout.  The homogenized map
keeps, for each generator, exactly the U-coefficients achieving equality
(the index set S(g)) with their top parts, and acts on the associated
graded ring, where the relation loses its lower-weight h-term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import AlgebraError, InputError
from .expmaps import ExponentialMap, is_invariant, verify_exponential
from .polyring import NEG_INF, Poly, WeightVector
from .surface import RElem, RingSpec


def parameter_weight(phi: ExponentialMap, w: WeightVector) -> Fraction:
    """The induced weight of U; an InputError when no D^i(g) is nonzero."""
    if not phi.verified:
        raise InputError("homogenization requires a verified map")
    candidates = []
    for g in phi.carriers():
        img = phi.image(g)
        top = img.degree_in("U")
        if top == NEG_INF or top < 1:
            continue
        g_weight = RElem.var(phi.spec, g).weighted_degree(w)
        for i in range(1, int(top) + 1):
            di = img.coeff_of("U", i)
            if di.is_zero():
                continue
            candidates.append(Fraction(g_weight - di.weighted_degree(w), i))
    if not candidates:
        raise InputError("the map is trivial; no derivation coefficient is nonzero")
    return min(candidates)


@dataclass(frozen=True)
class Homogenization:
    parameter_weight: Fraction
    source: ExponentialMap
    target: RingSpec
    bar: ExponentialMap
    s_sets: dict


def _invariant_sample(spec: RingSpec):
    """Candidate invariants x^k h^m (k, m <= 3); h-powers only when h != 0."""
    x = RElem.var(spec, "x")
    h = RElem(spec, spec.h, Poly.zero(spec.field))
    sample = []
    for k in range(4):
        for m in range(4):
            if m and spec.h.is_zero():
                continue
            sample.append(x**k * h**m)
    return sample


def homogenize(phi: ExponentialMap, w: WeightVector, target: RingSpec) -> Homogenization:
    """Build the top-part map of phi on the graded target ring.

    The target must carry a homogeneous relation under w (checked); the bar
    images are assembled from the index sets S(g) and verified to satisfy
    all three exponential-map checks on the target.  Sampled invariants of
    phi are checked to have bar-invariant top parts.
    """
    spec = phi.spec
    if target.field != spec.field:
        raise InputError("target over a different field")
    rel = target.relation()
    if rel is not None:
        degrees = {w.mono_weight(m) for m in rel.terms}
        if len(degrees) != 1:
            raise InputError(
                f"target relation {rel} is not homogeneous under {w}"
            )
    g_u = parameter_weight(phi, w)

    s_sets = {}
    bar_images = {}
    u_target = RElem.var(target, "U")
    for g in phi.carriers():
        img = phi.image(g)
        g_weight = RElem.var(spec, g).weighted_degree(w)
        top = int(img.degree_in("U"))
        indices = []
        bar = RElem.zero(target)
        for i in range(top + 1):
            di = img.coeff_of("U", i)
            if di.is_zero():
                continue
            if di.weighted_degree(w) + i * g_u == g_weight:
                indices.append(i)
                bar = bar + di.top_part(w, target) * u_target**i
        s_sets[g] = tuple(indices)
        bar_images[g] = bar

    report = verify_exponential(target, bar_images)
    if not report.passed:
        raise AlgebraError("homogenized map failed verification: " + report.summary())
    bar_map = ExponentialMap(target, bar_images, verified=True)

    for a in _invariant_sample(spec):
        if a.is_zero() or not is_invariant(phi, a):
            continue
        top = a.top_part(w, target)
        if not is_invariant(bar_map, top):
            raise AlgebraError(
                f"top part {top} of the invariant {a} is not bar-invariant"
            )

    return Homogenization(g_u, phi, target, bar_map, s_sets)


@dataclass(frozen=True)
class StageReport:
    stages: tuple
    sample_tops: tuple
    tops_are_monomial: bool

    @property
    def final(self) -> Homogenization:
        return self.stages[-1]


def _monomial_sample(spec: RingSpec):
    x = RElem.var(spec, "x")
    y = RElem.var(spec, "y")
    gens = [x, y]
    if not spec.free:
        gens.append(RElem.var(spec, "z"))
    sample = [x + y, 1 + x + y]
    if not spec.free:
        z = gens[2]
        sample += [
            z * (1 + x),
            y + z * x,
            y * (1 + x) + z,
            y + z,
            z + y * x**2,
            y**2 + z * x,
        ]
    return sample


def homogenize_stages(phi: ExponentialMap, stages) -> StageReport:
    """Apply homogenize stagewise (e.g. first w1, then a refining w2).

    With two genuinely refining weight vectors the composite top part of
    every sampled ring element collapses to a single monomial; the report
    records whether that happened (stages with repeated weights leave the
    top parts untouched, so the flag is not an error condition).
    """
    results = []
    current = phi
    for w, target in stages:
        res = homogenize(current, w, target)
        results.append(res)
        current = res.bar

    tops = []
    all_monomial = True
    if len(results) >= 2:
        for a in _monomial_sample(phi.spec):
            t = a
            for (w, target), res in zip(stages, results):
                if t.is_zero():
                    break
                t = t.top_part(w, target)
            tops.append(t)
            if not t.is_monomial():
                all_monomial = False
    return StageReport(tuple(results), tuple(tops), all_monomial)
