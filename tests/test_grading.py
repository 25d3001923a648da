from fractions import Fraction

import pytest

from dansurf import (
    InputError,
    Poly,
    RElem,
    RingSpec,
    WeightVector,
    build_exponential,
    homogenize,
    homogenize_stages,
    is_invariant,
    make_exponential,
    normal_form,
    parameter_weight,
    parse_poly,
)
from dansurf.expmaps import ExponentialMap
from conftest import F5, Q, standard_spec

W1 = WeightVector({"x": 0, "y": 2, "z": 1})


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
    res = homogenize(phi, WeightVector({"x": 1, "y": 2}), free)
    assert res.bar.image("y") == NF(free, "y + x*U^5")
    assert res.s_sets["y"] == (0, 5)

    # beta < (beta - alpha)/p: only the U coefficient survives
    res = homogenize(phi, WeightVector({"x": -5, "y": 1}), free)
    assert res.bar.image("y") == NF(free, "y + U")
    assert res.s_sets["y"] == (0, 1)

    # alpha = beta(1 - p): the whole map survives
    res = homogenize(phi, WeightVector({"x": -4, "y": 1}), free)
    assert res.bar.image("y") == NF(free, "y + U + x*U^5")
    assert res.s_sets["y"] == (0, 1, 5)

    assert res.bar.image("x") == RElem.var(free, "x")
    assert res.s_sets["x"] == (0,)


def test_homogenize_surface_to_graded():
    spec = standard_spec(Q, 2, "1")
    phi = build_exponential(spec, [(1, 1)])
    graded = RingSpec(Q, 2, Poly.zero(Q), graded=True)
    res = homogenize(phi, W1, graded)
    assert res.parameter_weight == 1
    assert res.bar.image("z") == NF(graded, "z + x^2*U")
    # the h-term of phi(y) has lower weight and is dropped
    assert res.bar.image("y") == NF(graded, "y + 2*z*U + x^2*U^2")
    assert res.bar.verified


def test_homogenize_rejects_inhomogeneous_target():
    spec = standard_spec(Q, 2, "1")
    phi = build_exponential(spec, [(1, 1)])
    graded = RingSpec(Q, 2, Poly.zero(Q), graded=True)
    with pytest.raises(InputError, match=r"target relation x\^2\*y - z\^2 is not homogeneous under "):
        homogenize(phi, WeightVector({"x": 1, "y": 1, "z": 1}), graded)


def test_homogenize_keeps_invariant_top_parts():
    # checked internally on the sample {x^k h^m}; failure would raise
    spec = standard_spec(Q, 3, "1 + x")
    phi = build_exponential(spec, [(1, parse_poly("1 + x^2", Q))])
    graded = RingSpec(Q, 3, Poly.zero(Q), graded=True)
    res = homogenize(phi, W1, graded)
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


def test_two_stage_refinement_gives_monomial_tops():
    spec = standard_spec(Q, 3, "1")
    phi = build_exponential(spec, [(1, 1)])
    graded = RingSpec(Q, 3, Poly.zero(Q), graded=True)
    w2 = WeightVector({"x": -1, "y": 3, "z": 0})
    report = homogenize_stages(phi, [(W1, graded), (w2, graded)])
    assert all(res.bar.verified for res in report.stages)
    assert report.tops_are_monomial
    for t in report.sample_tops:
        assert t.is_monomial()


def test_two_stage_top_of_mixed_element():
    # z*(1 + x) keeps two terms under w1 alone; w2 refines it to the single term z
    spec = standard_spec(Q, 3, "1")
    graded = RingSpec(Q, 3, Poly.zero(Q), graded=True)
    a = NF(spec, "z*(1 + x)")
    t1 = a.top_part(W1, graded)
    assert not t1.is_monomial()
    w2 = WeightVector({"x": -1, "y": 3, "z": 0})
    t2 = t1.top_part(w2, graded)
    assert t2 == RElem.var(graded, "z")


def test_repeated_stage_is_idempotent():
    spec = standard_spec(Q, 2, "1")
    phi = build_exponential(spec, [(1, 1)])
    graded = RingSpec(Q, 2, Poly.zero(Q), graded=True)
    report = homogenize_stages(phi, [(W1, graded), (W1, graded)])
    first, second = report.stages
    assert first.bar == second.bar


def test_stage_two_verifies_for_larger_n():
    spec = standard_spec(Q, 3, "1")
    phi = build_exponential(spec, [(1, 1)])  # z -> z + x^3 U
    graded = RingSpec(Q, 3, Poly.zero(Q), graded=True)
    w2 = WeightVector({"x": -1, "y": 3, "z": 0})
    report = homogenize_stages(phi, [(W1, graded), (w2, graded)])
    for res in report.stages:
        assert res.bar.verified
