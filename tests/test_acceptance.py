"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact (no tolerances).  Run with `pytest tests/test_acceptance.py -s`
to see the per-criterion lines.
"""

import functools
import json
import math
from itertools import product

import pytest

from dansurf import (
    ExponentialMap,
    FieldSpec,
    InputError,
    NotDivisible,
    Poly,
    RElem,
    RingSpec,
    WeightVector,
    binom,
    build_exponential,
    build_witness,
    classify,
    compose,
    decompose,
    degree,
    derivation,
    evaluate_at_one,
    group_structure,
    homogenize,
    identity,
    inverse,
    involution,
    is_invariant,
    make_exponential,
    normal_form,
    parse_poly,
    recompose,
    scaling,
    shear,
    solve_generator_images,
    substitute_poly,
    verify_exponential,
    verify_witness,
    witness,
)
from dansurf.cli import dispatch
from dansurf.polyring import format_poly
from conftest import enumerate_oracle, random_poly, random_relem, rng, scan_roots

Q = FieldSpec(0)
CHARS = (0, 2, 3, 5)
NS = (2, 3, 5)
H_TEXTS = ("1", "1 + x", "2 + x^{nm1}")
F_TEXTS = ("1", "x", "1 + x^2")


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] criterion {num} ({desc}): FAIL")
                raise
            print(f"\n[acceptance] criterion {num} ({desc}): PASS")

        return wrapper

    return deco


def grid_specs():
    """The (n, h, char) grid of criterion 1; combinations with h(0) = 0 in the
    field (the constant 2 vanishing mod 2) are unrepresentable and skipped."""
    specs = []
    for char in CHARS:
        field = FieldSpec(char)
        for n in NS:
            for h_text in H_TEXTS:
                text = h_text.replace("{nm1}", str(n - 1))
                h = parse_poly(text, field)
                if h.constant_value().is_zero():
                    continue
                specs.append(RingSpec(field, n, h))
    return specs


def family_coeff_sets(field):
    """F drawn from {f U, f U^p, f U + g U^(p^2)} with f, g in {1, x, 1 + x^2}."""
    p = field.characteristic
    fs = [parse_poly(t, field) for t in F_TEXTS]
    sets = [[(1, f)] for f in fs]
    if p:
        sets += [[(p, f)] for f in fs]
        sets += [[(1, f), (p * p, g)] for f in fs for g in fs]
    return sets


@criterion(1, "exponential-axiom suite")
def test_criterion_1_exponential_axioms():
    built = 0
    for spec in grid_specs():
        for coeffs in family_coeff_sets(spec.field):
            phi = build_exponential(spec, coeffs)
            report = verify_exponential(phi)
            assert report.passed, (spec, coeffs, report.failures())
            assert phi != ExponentialMap.trivial(spec)
            built += 1
    assert built >= 27 + 3 * 8 * 15  # char 0 grid + three prime chars (minus skips)

    # negative control: z -> z + x U cannot solve the relation, and candidate
    # images containing it fail the relation check
    spec = RingSpec(Q, 2, Poly.const(Q, 1))
    with pytest.raises(NotDivisible):
        solve_generator_images(spec, normal_form(spec, parse_poly("z + x*U", Q)))
    images = {
        "x": RElem.var(spec, "x"),
        "y": RElem.var(spec, "y"),
        "z": normal_form(spec, parse_poly("z + x*U", Q)),
    }
    assert not verify_exponential(ExponentialMap(spec, images)).check("relation").passed

    # negative control: characteristic-0 z -> z + x^2 U^2 fails the coaction axiom
    images = solve_generator_images(spec, normal_form(spec, parse_poly("z + x^2*U^2", Q)))
    report = verify_exponential(ExponentialMap(spec, images))
    assert report.check("relation").passed
    assert not report.check("axiom_ii").passed
    with pytest.raises(InputError, match="U-exponent 2 is not allowed in characteristic 0"):
        build_exponential(spec, [(2, 1)])


def law_maps():
    maps = []
    for char, coeff_texts in (
        (0, (("1", 1),)),
        (0, (("1 + x^2", 1),)),
        (2, (("1", 2),)),
        (3, (("x", 3),)),
        (5, (("1", 1), ("x", 5))),
    ):
        field = FieldSpec(char)
        spec = RingSpec(field, 2, Poly.const(field, 1))
        coeffs = [(e, parse_poly(t, field)) for t, e in coeff_texts]
        maps.append(build_exponential(spec, coeffs))
    return maps


def _ucoeff(spec, elem, i):
    return RElem(spec, elem.f1.coeff_of("U", i), elem.f2.coeff_of("U", i))


@criterion(2, "higher-derivation laws")
def test_criterion_2_derivation_laws():
    for phi in law_maps():
        spec = phi.spec
        r = rng(200 + spec.field.characteristic)
        elements = [random_relem(r, spec) for _ in range(200)]
        pairs = list(zip(elements[0::2], elements[1::2]))
        for a, b in pairs:
            pa, pb, pab = phi.apply(a), phi.apply(b), phi.apply(a * b)
            for i in range(9):
                lhs = _ucoeff(spec, pab, i)
                rhs = RElem.zero(spec)
                for j in range(i + 1):
                    rhs = rhs + _ucoeff(spec, pa, j) * _ucoeff(spec, pb, i - j)
                assert lhs == rhs
        for a in elements[:40]:
            for i in range(5):
                for j in range(5):
                    if i + j > 8:
                        continue
                    lhs = derivation(phi, i, derivation(phi, j, a))
                    rhs = derivation(phi, i + j, a).scale(
                        binom(i + j, i, spec.field)
                    )
                    assert lhs == rhs
    # char-p binomials against the integer oracle
    for p in (2, 3, 5):
        field = FieldSpec(p)
        for i in range(40):
            for j in range(40):
                assert binom(i, j, field) == field.scalar(math.comb(i, j))


@criterion(3, "degree laws")
def test_criterion_3_degree_laws():
    for phi in law_maps():
        spec = phi.spec
        r = rng(300 + spec.field.characteristic)
        for _ in range(40):
            a = random_relem(r, spec, nonzero=True)
            b = random_relem(r, spec, nonzero=True)
            assert degree(phi, a * b) == degree(phi, a) + degree(phi, b)
        samples = [random_relem(r, spec, nonzero=True) for _ in range(200)]
        for a in samples:
            d = degree(phi, a)
            for i in range(1, int(d) + 1):
                di = derivation(phi, i, a)
                if not di.is_zero():
                    assert degree(phi, di) <= d - i
    # minimal positive degree p divides every degree for the F = f U^p maps
    for p in (2, 3, 5):
        field = FieldSpec(p)
        spec = RingSpec(field, 2, Poly.const(field, 1))
        phi = build_exponential(spec, [(p, parse_poly("x", field))])
        assert degree(phi, RElem.var(spec, "z")) == p
        r = rng(310 + p)
        for _ in range(60):
            a = random_relem(r, spec, nonzero=True)
            assert degree(phi, a) % p == 0


@criterion(4, "homogenization")
def test_criterion_4_homogenization():
    F5 = FieldSpec(5)
    free = RingSpec(F5, 2, Poly.zero(F5), free=True)
    img_y = RElem(free, parse_poly("y + U + x*U^5", F5), Poly.zero(F5))
    phi = make_exponential(free, {"x": RElem.var(free, "x"), "y": img_y})
    branches = [
        ({"x": 1, "y": 2}, "y + x*U^5"),
        ({"x": -5, "y": 1}, "y + U"),
        ({"x": -4, "y": 1}, "y + U + x*U^5"),
    ]
    for weights, expected in branches:
        res = homogenize(phi, WeightVector(weights))
        assert res.target == free
        assert res.bar.image("y") == normal_form(free, parse_poly(expected, F5))
        assert res.bar.image("x") == RElem.var(free, "x")
        assert verify_exponential(res.bar).passed

    # surface maps homogenize onto the graded variant and stay exponential;
    # sampled invariant top parts are checked bar-invariant inside homogenize
    w1 = WeightVector({"x": 0, "y": 2, "z": 1})
    for char in CHARS:
        field = FieldSpec(char)
        for n, h_text in ((2, "1"), (3, "1 + x"), (5, "2 + x^2")):
            h = parse_poly(h_text, field)
            if h.constant_value().is_zero():
                continue
            spec = RingSpec(field, n, h)
            phi = build_exponential(spec, [(1, parse_poly("1 + x^2", field))])
            graded = RingSpec(field, n, Poly.zero(field), graded=True)
            res = homogenize(phi, w1)
            assert res.target == graded
            assert verify_exponential(res.bar).passed
            x = RElem.var(graded, "x")
            for k in range(4):
                assert is_invariant(res.bar, x**k)


def _valid_scalings(spec):
    from math import gcd

    m = 0
    for mo in spec.h.terms:
        if mo[2]:
            m = gcd(m, mo[2])
    if spec.h.is_constant():
        p = spec.field.characteristic
        values = (1, 2, 3) if p == 0 else tuple(range(1, min(p, 5)))
        return [spec.field.scalar(v) for v in values]
    return scan_roots(spec.field.one, m)


@criterion(5, "automorphism group")
def test_criterion_5_automorphism_group():
    for spec in grid_specs():
        rel = spec.relation()
        auts = [shear(spec, parse_poly(t, spec.field)) for t in F_TEXTS]
        auts.append(involution(spec))
        auts += [scaling(spec, mu) for mu in _valid_scalings(spec)]
        for a in auts:
            assert substitute_poly(spec, rel, a.images()).is_zero()

    # round trips on 500 random words of length <= 6
    specs = [
        RingSpec(Q, 2, Poly.const(Q, 1)),
        RingSpec(Q, 2, parse_poly("1 + x", Q)),
        RingSpec(FieldSpec(5), 3, parse_poly("1 + x^2", FieldSpec(5))),
    ]
    r = rng(500)
    words = 0
    while words < 500:
        spec = specs[words % len(specs)]
        scalings = _valid_scalings(spec)
        word = identity(spec)
        for _ in range(r.randint(0, 6)):
            kind = r.choice(("shear", "flip", "scale"))
            if kind == "shear":
                word = compose(word, shear(spec, random_poly(r, spec.field, ("x",))))
            elif kind == "flip":
                word = compose(word, involution(spec))
            else:
                word = compose(word, scaling(spec, r.choice(scalings)))
        mu, eps, g = decompose(word)
        assert recompose(spec, mu, eps, g) == word
        assert compose(word, inverse(word)).is_identity()
        assert compose(inverse(word), word).is_identity()
        words += 1

    # the shears are a normal subgroup
    spec = specs[1]
    for _ in range(40):
        g_word = identity(spec)
        for _ in range(r.randint(1, 4)):
            g_word = compose(
                g_word,
                r.choice(
                    (
                        shear(spec, random_poly(r, spec.field, ("x",))),
                        involution(spec),
                    )
                ),
            )
        e = shear(spec, random_poly(r, spec.field, ("x",)))
        conj = compose(g_word, compose(e, inverse(g_word)))
        mu, eps, _ = decompose(conj)
        assert eps == 0 and mu == spec.field.one

    # evaluating the family map at U = 1 gives the shear
    spec = specs[0]
    f = parse_poly("1 + x", Q)
    assert evaluate_at_one(build_exponential(spec, [(1, f)])) == shear(spec, f).images()

    # group-structure cases: constant h, h = h1(x^m), and generic h
    gs = group_structure(RingSpec(Q, 2, Poly.const(Q, 1)))
    assert gs.m == 0 and gs.h_description == "C2 x k*"
    F7 = FieldSpec(7)
    gs = group_structure(RingSpec(F7, 5, parse_poly("1 + x^3", F7)))
    assert gs.m == 3 and gs.l_order == 3 and gs.h_description == "C2 x C3"
    assert sorted(s.value for s in gs.l_elements) == [1, 2, 4]
    gs = group_structure(RingSpec(Q, 2, parse_poly("1 + x", Q)))
    assert gs.m == 1 and gs.h_description == "C2"


def all_reduced_specs(field, ns):
    p = field.characteristic
    specs = []
    for n in ns:
        for coeffs in product(range(p), repeat=n):
            if coeffs[0] == 0:
                continue
            items = [((0, 0, i, 0, 0, 0), c) for i, c in enumerate(coeffs)]
            specs.append(RingSpec(field, n, Poly.from_items(field, items)))
    return specs


@criterion(6, "isomorphism classifier")
def test_criterion_6_isomorphism_classifier():
    corpora = [
        (FieldSpec(2), (2, 3)),
        (FieldSpec(3), (2, 3)),
        (FieldSpec(5), (2, 3)),
    ]
    pairs = 0
    for field, ns in corpora:
        specs = all_reduced_specs(field, ns)
        for s1 in specs:
            for s2 in specs:
                v = classify(s1, s2)
                o = enumerate_oracle(s1, s2)
                assert v.isomorphic == o.isomorphic, (s1, s2)
                if v.isomorphic:
                    assert (v.eta, v.mu) == (o.eta, o.mu), (s1, s2)
                    images = witness(s1, s2, v)  # raises if the relation breaks
                    # the forced y-image is the closed form eta^-2 mu^-n y
                    closed = RElem.var(s2, "y").scale(v.eta.inv() ** 2 * v.mu.inv() ** s1.n)
                    assert images["y"] == closed, (s1, s2)
                pairs += 1
    assert pairs >= 36 + 576 + 14400

    # documented examples
    v = classify(RingSpec(Q, 2, Poly.const(Q, 1)), RingSpec(Q, 3, Poly.const(Q, 1)))
    assert not v.isomorphic and v.reason == "n_mismatch"
    s1 = RingSpec(Q, 2, parse_poly("1 + x", Q))
    s2 = RingSpec(Q, 2, parse_poly("2 + 4*x", Q))
    v = classify(s1, s2)
    assert v.isomorphic and v.eta == 2 and v.mu == 2
    images = witness(s1, s2, v)
    assert str(images["x"]) == "2*x"
    assert str(images["y"]) == "1/16*y"
    assert str(images["z"]) == "1/2*z"
    v = classify(
        RingSpec(Q, 3, parse_poly("1 + x", Q)), RingSpec(Q, 3, parse_poly("1 + x^2", Q))
    )
    assert not v.isomorphic and v.reason == "support_mismatch"


@criterion(7, "cancellation construction")
def test_criterion_7_cancellation():
    pairs = ((2, 3), (2, 4), (3, 4), (3, 5), (3, 6), (4, 5), (4, 8))
    for char in CHARS:
        field = FieldSpec(char)
        for n1, n2 in pairs:
            w = build_witness(field, n1, n2)
            report = verify_witness(w)
            assert report.passed, (char, n1, n2, report.failures())
            # phi(s) = s + U exactly, and the in-ring linear form, are among
            # the checks; assert them individually as well
            assert report.check("slice_action").passed
            assert report.check("linear_form").passed
            assert report.check("slice_generates").passed


@criterion(8, "CLI determinism and parser fuzz")
def test_criterion_8_cli():
    code, out = dispatch(
        ["exp-verify", "--ring", "R(n=2,h=1,field=Q)", "--map",
         "x->x; z->z+x^2*U; y->y+(2*z+1)*U+x^2*U^2"]
    )
    assert code == 0
    assert out == "relation: PASS\naxiom_i: PASS\naxiom_ii: PASS\nverified"

    code, out = dispatch(
        ["iso-check", "--left", "R(n=2,h=1,field=Q)", "--right", "R(n=3,h=1,field=Q)"]
    )
    assert code == 0
    assert out == '{"isomorphic": false, "eta": null, "mu": null, "reason": "n_mismatch"}'
    assert json.loads(out)["reason"] == "n_mismatch"

    code, out = dispatch(
        ["normal-form", "--ring", "R(n=2,h=1,field=F2)", "--expr", "z^2+z"]
    )
    assert (code, out) == (0, "x^2*y")

    r = rng(800)
    fields = [Q, FieldSpec(5)]
    for i in range(1000):
        field = fields[i % 2]
        p = random_poly(r, field, ("x", "y", "z", "T", "U", "S"), max_terms=6, max_exp=4)
        text = format_poly(p)
        assert parse_poly(text, field) == p
        assert format_poly(parse_poly(text, field)) == text
