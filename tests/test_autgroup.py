import pytest

from dansurf import (
    AlgebraError,
    InputError,
    NotCanonicalShape,
    Poly,
    RElem,
    RingSpec,
    build_exponential,
    compose,
    decompose,
    evaluate_at_one,
    from_images,
    group_structure,
    identity,
    inverse,
    involution,
    normal_form,
    parse_poly,
    recompose,
    scaling,
    shear,
    substitute_poly,
)
from conftest import F2, F3, F5, F7, F101, Q, random_poly, rng, scan_roots, standard_spec

SPEC21 = standard_spec(Q, 2, "1")


def NF(spec, text):
    return normal_form(spec, parse_poly(text, spec.field))


def test_shear_images():
    e1 = shear(SPEC21, 1)
    assert e1.image_x() == RElem.var(SPEC21, "x")
    assert e1.image_z() == NF(SPEC21, "z + x^2")
    assert e1.image_y() == NF(SPEC21, "y + 2*z + x^2 + 1")
    f = parse_poly("1 + x", Q)
    ef = shear(SPEC21, f)
    # E_f(y) = y + 2 f z + x^n f^2 + f h
    expected = NF(SPEC21, "y + 2*(1+x)*z + x^2*(1+x)^2 + (1+x)")
    assert ef.image_y() == expected


def test_involution_images():
    t = involution(SPEC21)
    assert t.image_z() == NF(SPEC21, "-z - 1")
    assert t.image_y() == RElem.var(SPEC21, "y")
    spec2 = standard_spec(F2, 2, "1")
    t2 = involution(spec2)
    assert t2.image_z() == NF(spec2, "z + 1")
    assert not t2.is_identity()


def test_scaling_validation():
    spec = standard_spec(Q, 2, "1 + x")
    with pytest.raises(InputError, match=r"h\(2\*x\) != h\(x\)"):
        scaling(spec, 2)
    scaling(spec, 1)
    assert scaling(SPEC21, 5).image_y() == NF(SPEC21, "1/25 * y")


def test_generators_preserve_relation():
    for spec in (SPEC21, standard_spec(F3, 3, "2 + x"), standard_spec(F5, 5, "1")):
        auts = [shear(spec, parse_poly("1 + x", spec.field)), involution(spec)]
        if spec.h.is_constant() and not spec.field.scalar(2).is_zero():
            auts.append(scaling(spec, 2))
        rel = spec.relation()
        for a in auts:
            assert substitute_poly(spec, rel, a.images()).is_zero()


def test_compose_examples():
    t = involution(SPEC21)
    assert compose(t, t).is_identity()
    f, g = parse_poly("1 + x", Q), parse_poly("x", Q)
    assert compose(shear(SPEC21, f), shear(SPEC21, g)) == shear(SPEC21, f + g)
    assert compose(scaling(SPEC21, 2), scaling(SPEC21, 3)) == scaling(SPEC21, 6)


def test_inverse():
    word = compose(scaling(SPEC21, 2), compose(involution(SPEC21), shear(SPEC21, 1)))
    assert compose(word, inverse(word)).is_identity()
    assert compose(inverse(word), word).is_identity()


def test_action_matches_composition():
    a = compose(involution(SPEC21), shear(SPEC21, parse_poly("x", Q)))
    b = scaling(SPEC21, 3)
    lhs = compose(a, b)
    elem = NF(SPEC21, "y + x*z + 1")
    assert lhs.apply(elem) == a.apply(b.apply(elem))


def test_decompose_examples():
    mu, eps, g = decompose(identity(SPEC21))
    assert (mu, eps, g.is_zero()) == (Q.one, 0, True)
    mu, eps, g = decompose(involution(SPEC21))
    assert (mu, eps, g.is_zero()) == (Q.one, 1, True)


def _random_word(r, spec, length):
    word = identity(spec)
    valid_mu = [spec.field.scalar(v) for v in ((1, 2, 3) if spec.field.characteristic != 2 else (1,))]
    if not spec.h.is_constant():
        m = 0
        from math import gcd

        for mo in spec.h.terms:
            if mo[2]:
                m = gcd(m, mo[2])
        valid_mu = scan_roots(spec.field.one, m) if m else valid_mu
    for _ in range(length):
        kind = r.choice(("shear", "flip", "scale"))
        if kind == "shear":
            word = compose(word, shear(spec, random_poly(r, spec.field, ("x",))))
        elif kind == "flip":
            word = compose(word, involution(spec))
        else:
            word = compose(word, scaling(spec, r.choice(valid_mu)))
    return word


@pytest.mark.parametrize(
    "spec", [SPEC21, standard_spec(Q, 2, "1 + x"), standard_spec(F5, 3, "1 + x^2")]
)
def test_group_laws_on_random_words(spec):
    r = rng(40 + spec.field.characteristic)
    for _ in range(40):
        a = _random_word(r, spec, r.randint(0, 6))
        b = _random_word(r, spec, r.randint(0, 6))
        c = _random_word(r, spec, r.randint(0, 6))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))
        assert compose(a, identity(spec)) == a
        assert compose(a, inverse(a)).is_identity()
        mu, eps, g = decompose(a)
        assert recompose(spec, mu, eps, g) == a


def test_shears_form_a_normal_subgroup():
    r = rng(41)
    spec = SPEC21
    for _ in range(20):
        g = _random_word(r, spec, r.randint(1, 5))
        e = shear(spec, random_poly(r, spec.field, ("x",)))
        conj = compose(g, compose(e, inverse(g)))
        mu, eps, _ = decompose(conj)
        assert eps == 0 and mu == Q.one


def test_from_images_accepts_involution():
    t = involution(SPEC21)
    got = from_images(SPEC21, t.images())
    assert got == t
    assert got.sigma == -1 and got.f == -SPEC21.h


def test_from_images_rejects_shifted_x():
    images = {
        "x": NF(SPEC21, "x + 1"),
        "y": RElem.var(SPEC21, "y"),
        "z": RElem.var(SPEC21, "z"),
    }
    with pytest.raises(NotCanonicalShape):
        from_images(SPEC21, images)


def test_from_images_rejects_low_shift():
    images = {
        "x": RElem.var(SPEC21, "x"),
        "y": RElem.var(SPEC21, "y"),
        "z": NF(SPEC21, "z + x"),
    }
    with pytest.raises(NotCanonicalShape):
        from_images(SPEC21, images)


def test_from_images_rejects_wrong_y():
    e1 = shear(SPEC21, 1)
    images = e1.images()
    images["y"] = images["y"] + RElem.one(SPEC21)
    with pytest.raises(AlgebraError, match="images do not preserve the defining relation") as exc:
        from_images(SPEC21, images)
    assert type(exc.value) is AlgebraError


@pytest.mark.parametrize("field, h, x_image, z_image, message", [
    (Q, "1", "x", "z + x^2*y", "f must be a polynomial in x alone"),
    (Q, "1 + x", "2*x", "z", "h(2*x) != h(x)"),
    (F5, "1", "x", "2*z", "z-coefficient 2 is not +-1"),
    (F2, "1", "x", "z + x", "sigma = -1 requires f = -h mod x^n"),
], ids=["shift-with-y", "h-not-invariant", "lam-not-a-sign", "char2-neither"])
def test_from_images_rejects_what_the_constructor_checks(field, h, x_image, z_image, message):
    spec = standard_spec(field, 2, h)
    images = {"x": NF(spec, x_image), "y": RElem.var(spec, "y"), "z": NF(spec, z_image)}
    with pytest.raises(NotCanonicalShape) as exc:
        from_images(spec, images)
    assert str(exc.value) == message


def test_from_images_needs_a_standard_spec():
    spec = RingSpec(Q, 2, Poly.zero(Q), graded=True)
    images = {v: RElem.var(spec, v) for v in ("x", "y", "z")}
    with pytest.raises(InputError, match="automorphism triples are defined for standard specs"):
        from_images(spec, images)


def test_from_images_char2_distinguishes_shear_from_involution():
    spec = standard_spec(F2, 2, "1")
    t = from_images(spec, involution(spec).images())
    e = from_images(spec, shear(spec, 1).images())
    assert t.sigma == -1 and e.sigma == 1
    assert t != e


def test_char2_word_round_trips():
    spec = standard_spec(F2, 2, "1")
    r = rng(42)
    for _ in range(25):
        word = identity(spec)
        for _ in range(r.randint(0, 5)):
            word = compose(
                word,
                r.choice(
                    (shear(spec, random_poly(r, spec.field, ("x",))), involution(spec))
                ),
            )
        mu, eps, g = decompose(word)
        assert recompose(spec, mu, eps, g) == word
        assert compose(word, inverse(word)).is_identity()


def test_u_equals_one_slice_of_family_map_is_shear():
    for spec, f_text in ((SPEC21, "1"), (standard_spec(F3, 3, "2 + x"), "1 + x")):
        f = parse_poly(f_text, spec.field)
        phi = build_exponential(spec, [(1, f)])
        at1 = evaluate_at_one(phi)
        assert at1 == shear(spec, f).images()


def test_group_structure_cases():
    gs = group_structure(SPEC21)
    assert gs.m == 0 and gs.l_order is None
    assert gs.h_description == "C2 x k*"

    spec7 = standard_spec(F7, 5, "1 + x^3")
    gs = group_structure(spec7)
    assert gs.m == 3 and gs.l_order == 3
    assert sorted(s.value for s in gs.l_elements) == [1, 2, 4]
    assert gs.h_description == "C2 x C3"

    spec_1x = standard_spec(Q, 2, "1 + x")
    gs = group_structure(spec_1x)
    assert gs.m == 1 and gs.l_order == 1
    assert gs.h_description == "C2"


def test_group_structure_more_cases():
    # m even over Q: mu = -1 is allowed
    gs = group_structure(standard_spec(Q, 3, "1 + x^2"))
    assert gs.m == 2 and gs.l_order == 2
    # finite field, full multiplicative group
    gs = group_structure(standard_spec(F5, 2, "1"))
    assert gs.m == 0 and gs.l_order == 4
    # gcd of several exponents
    gs = group_structure(standard_spec(F7, 7, "1 + x^2 + x^4"))
    assert gs.m == 2 and gs.l_order == 2


def test_l_order_counts_the_listed_elements():
    # the order is computed from m and p; the elements are listed on demand
    for field, m in ((Q, 1), (Q, 2), (Q, 3), (Q, 6), (F5, 2), (F7, 3), (F7, 4), (F101, 10),
                     (F101, 7), (F2, 2), (F3, 4)):
        spec = standard_spec(field, m + 1, f"1 + x^{m}")
        gs = group_structure(spec)
        assert gs.m == m
        assert len(gs.l_elements) == gs.l_order
        assert list(gs.l_elements) == scan_roots(field.one, m)
        assert gs.l_elements is gs.l_elements
    assert group_structure(standard_spec(F5, 2, "1")).l_elements is None


def test_scaling_orbit_respects_structure():
    spec = standard_spec(F7, 5, "1 + x^3")
    gs = group_structure(spec)
    for mu in gs.l_elements:
        scaling(spec, mu)  # must validate
    with pytest.raises(InputError, match=r"h\(3\*x\) != h\(x\)"):
        scaling(spec, 3)  # 3^3 = 27 = 6 != 1 in F7
