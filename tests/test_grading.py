from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dansurf import (
    InputError,
    Poly,
    RElem,
    RingSpec,
    WeightVector,
    build_exponential,
    homogenize,
    is_invariant,
    make_exponential,
    normal_form,
    parameter_weight,
    parse_poly,
)
from dansurf.expmaps import ExponentialMap
from dansurf.grading import _graded_ring
from conftest import F3, F5, Q, random_relem, rng, standard_spec

W1 = WeightVector({"x": 0, "y": 2, "z": 1})
W2 = WeightVector({"x": -1, "y": 3, "z": 0})  # refines W1 on the graded ring


def NF(spec, text):
    return normal_form(spec, parse_poly(text, spec.field))


def _free_char5_map():
    free = RingSpec(F5, 2, Poly.zero(F5), free=True)
    # x -> x, y -> y + U + x U^5
    img_y = RElem(
        free,
        parse_poly("y + U + x*U^5", F5),
        Poly.zero(F5),
    )
    return free, make_exponential(free, {"x": RElem.var(free, "x"), "y": img_y})


def test_parameter_weight_free_ring_branches():
    free, phi = _free_char5_map()
    assert parameter_weight(phi, WeightVector({"x": 1, "y": 2})) == Fraction(1, 5)
    assert parameter_weight(phi, WeightVector({"x": -5, "y": 1})) == 1


def test_parameter_weight_surface_example():
    spec = standard_spec(Q, 2, "1")
    phi = build_exponential(spec, [(1, 1)])
    assert parameter_weight(phi, W1) == 1


def test_parameter_weight_requires_nontrivial():
    spec = standard_spec(Q, 2, "1")
    with pytest.raises(InputError, match="the map is trivial; no derivation coefficient is nonzero"):
        parameter_weight(ExponentialMap.trivial(spec), W1)


def test_homogenize_three_branches():
    free, phi = _free_char5_map()
    y_var = RElem.var(free, "y")

    # beta > (beta - alpha)/p: only the U^p coefficient survives
    res = homogenize(phi, WeightVector({"x": 1, "y": 2}))
    assert res.bar.image("y") == NF(free, "y + x*U^5")
    assert res.s_sets["y"] == (0, 5)

    # beta < (beta - alpha)/p: only the U coefficient survives
    res = homogenize(phi, WeightVector({"x": -5, "y": 1}))
    assert res.bar.image("y") == NF(free, "y + U")
    assert res.s_sets["y"] == (0, 1)

    # alpha = beta(1 - p): the whole map survives
    res = homogenize(phi, WeightVector({"x": -4, "y": 1}))
    assert res.bar.image("y") == NF(free, "y + U + x*U^5")
    assert res.s_sets["y"] == (0, 1, 5)

    assert res.bar.image("x") == RElem.var(free, "x")
    assert res.s_sets["x"] == (0,)


def test_homogenize_surface_to_graded():
    spec = standard_spec(Q, 2, "1")
    phi = build_exponential(spec, [(1, 1)])
    graded = RingSpec(Q, 2, Poly.zero(Q), graded=True)
    res = homogenize(phi, W1)
    assert res.target == graded
    assert res.parameter_weight == 1
    assert res.bar.image("z") == NF(graded, "z + x^2*U")
    # the h-term of phi(y) has lower weight and is dropped
    assert res.bar.image("y") == NF(graded, "y + 2*z*U + x^2*U^2")
    assert res.bar.verified


def test_homogenize_refuses_an_unverified_map():
    # the same images, verified by make_exponential, are accepted
    spec = standard_spec(Q, 2, "1")
    phi = build_exponential(spec, [(1, 1)])
    raw = ExponentialMap(spec, phi.images)
    assert raw == phi and not raw.verified
    for call in (homogenize, parameter_weight):
        with pytest.raises(InputError, match="^homogenization requires a verified map$"):
            call(raw, W1)
    assert homogenize(make_exponential(spec, raw.images), W1) == homogenize(phi, W1)


def test_homogenize_rejects_inhomogeneous_target():
    # the top part x^2*y of x^2*y - z^2 - z defines no ring of the package
    spec = standard_spec(Q, 2, "1")
    phi = build_exponential(spec, [(1, 1)])
    with pytest.raises(InputError, match=r"^the top part x\^2\*y of the relation under "
                       r"w\{z:1, y:1, x:1\} is neither the relation nor x\^2\*y - z\^2$"):
        homogenize(phi, WeightVector({"x": 1, "y": 1, "z": 1}))


def test_homogenize_derives_the_target():
    # gr_w(R) is R itself when w makes the whole relation homogeneous
    spec = standard_spec(Q, 2, "1")
    phi = build_exponential(spec, [(1, 1)])
    res = homogenize(phi, WeightVector({"x": 0, "y": 0, "z": 0}))
    assert res.target == spec
    assert res.bar == phi
    # a free spec has no relation and is its own target
    free, phi = _free_char5_map()
    assert homogenize(phi, WeightVector({"x": 1, "y": 2})).target is free


def test_homogenize_keeps_invariant_top_parts():
    # checked internally on the sample {x^k h^m}; failure would raise
    spec = standard_spec(Q, 3, "1 + x")
    phi = build_exponential(spec, [(1, parse_poly("1 + x^2", Q))])
    graded = RingSpec(Q, 3, Poly.zero(Q), graded=True)
    res = homogenize(phi, W1)
    assert res.target == graded
    x = RElem.var(graded, "x")
    assert is_invariant(res.bar, x**2)


def test_parameter_weight_inequality_and_sharpness():
    spec = standard_spec(Q, 2, "1")
    phi = build_exponential(spec, [(1, parse_poly("1 + x", Q))])
    g_u = parameter_weight(phi, W1)
    sharp = False
    for g in phi.carriers():
        img = phi.image(g)
        g_weight = RElem.var(spec, g).weighted_degree(W1)
        for i in range(0, 4):
            di = RElem(spec, img.f1.coeff_of("U", i), img.f2.coeff_of("U", i))
            if di.is_zero():
                continue
            assert di.weighted_degree(W1) + i * g_u <= g_weight
            if i >= 1 and di.weighted_degree(W1) + i * g_u == g_weight:
                sharp = True
    assert sharp


def test_parameter_weight_bounds_all_elements():
    # w(D^i(a)) + i*w(U) <= w(a) holds for arbitrary elements, not just generators
    from dansurf import derivation
    from conftest import random_relem, rng

    spec = standard_spec(Q, 2, "1")
    phi = build_exponential(spec, [(1, parse_poly("1 + x", Q))])
    g_u = parameter_weight(phi, W1)
    r = rng(70)
    for _ in range(40):
        a = random_relem(r, spec, nonzero=True)
        wa = a.weighted_degree(W1)
        for i in range(0, 6):
            di = derivation(phi, i, a)
            if not di.is_zero():
                assert di.weighted_degree(W1) + i * g_u <= wa


def _is_monomial(a):
    """A single term lambda * x^i y^j z^k ..."""
    return (len(a.f1.terms), len(a.f2.terms)) in ((1, 0), (0, 1))


def _two_stages(phi, w1, w2):
    """Stage two homogenizes the bar map of stage one."""
    first = homogenize(phi, w1)
    return first, homogenize(first.bar, w2)


def test_two_stage_refinement_gives_monomial_tops():
    spec = standard_spec(Q, 3, "1")
    phi = build_exponential(spec, [(1, 1)])
    stages = _two_stages(phi, W1, W2)
    assert all(res.bar.verified for res in stages)
    x, y, z = (RElem.var(spec, v) for v in "xyz")
    sample = [x + y, 1 + x + y, z * (1 + x), y + z * x, y * (1 + x) + z, y + z,
              z + y * x**2, y**2 + z * x]
    for a in sample:
        t = a
        for w, res in zip((W1, W2), stages):
            t = t.top_part(w, res.target)
        assert _is_monomial(t), (a, t)


def test_two_stage_top_of_mixed_element():
    # z*(1 + x) keeps two terms under w1 alone; w2 refines it to the single term z
    spec = standard_spec(Q, 3, "1")
    graded = RingSpec(Q, 3, Poly.zero(Q), graded=True)
    a = NF(spec, "z*(1 + x)")
    t1 = a.top_part(W1, graded)
    assert not _is_monomial(t1)
    t2 = t1.top_part(W2, graded)
    assert t2 == RElem.var(graded, "z")


def test_repeated_stage_is_idempotent():
    spec = standard_spec(Q, 2, "1")
    phi = build_exponential(spec, [(1, 1)])
    first, second = _two_stages(phi, W1, W1)
    assert first.target == second.target == RingSpec(Q, 2, Poly.zero(Q), graded=True)
    assert first.bar == second.bar


def test_stage_two_verifies_for_larger_n():
    spec = standard_spec(Q, 3, "1")
    phi = build_exponential(spec, [(1, 1)])  # z -> z + x^3 U
    for res in _two_stages(phi, W1, W2):
        assert res.bar.verified


WEIGHT = st.fractions(min_value=-4, max_value=4, max_denominator=3)
WEIGHTS = st.fixed_dictionaries({v: WEIGHT for v in ("x", "y", "z", "T", "U")})
SPEC_KINDS = [standard_spec(Q, 2, "1 + x"), standard_spec(F3, 3, "2 + x^2"),
              RingSpec(F5, 2, Poly.zero(F5), graded=True), RingSpec(Q, 3, Poly.zero(Q), free=True)]


@given(st.integers(0, 2**32), WEIGHTS, st.sampled_from(SPEC_KINDS), st.booleans())
def test_top_part_properties(seed, weights, spec, tie):
    if tie:  # x^n*y and z^2 weigh the same, as gr_w(R) = the graded ring needs
        weights["y"] = 2 * weights["z"] - spec.n * weights["x"]
    w = WeightVector(weights)
    a = random_relem(rng(seed), spec, ("x", "y", "T", "U"), max_terms=4, nonzero=True)
    top = a.top_part(w)
    best = a.weighted_degree(w)
    zero = Poly.zero(spec.field)
    terms = [RElem(spec, Poly(spec.field, {m: c}), zero) for m, c in top.f1.terms.items()]
    terms += [RElem(spec, zero, Poly(spec.field, {m: c})) for m, c in top.f2.terms.items()]
    assert terms and all(t.weighted_degree(w) == best for t in terms)
    rest = a - top
    assert rest.is_zero() or rest.weighted_degree(w) < best
    # gr_w(R) has the top part of R's relation as its relation, or is refused
    rel = spec.relation()
    if rel is None:
        assert _graded_ring(spec, w) is spec
        return
    try:
        target = _graded_ring(spec, w)
    except InputError as exc:
        assert str(exc).startswith(f"the top part {rel.top_part(w)} of the relation under {w}")
    else:
        assert (target.field, target.n) == (spec.field, spec.n)
        assert target.relation() == rel.top_part(w)
