import pytest

from dansurf import (
    AlgebraError,
    InputError,
    NotDivisible,
    Poly,
    RElem,
    binom,
    build_exponential,
    degree,
    derivation,
    evaluate_at_one,
    expand_in_slice,
    is_invariant,
    make_exponential,
    normal_form,
    parse_poly,
    solve_generator_images,
    verify_exponential,
)
from dansurf import expmaps
from dansurf.expmaps import ExponentialMap
from conftest import F2, F3, F5, Q, random_poly, random_relem, rng, standard_spec

SPEC21 = standard_spec(Q, 2, "1")
PHI = build_exponential(SPEC21, [(1, 1)])  # z -> z + x^2 U


def NF(spec, text):
    return normal_form(spec, parse_poly(text, spec.field))


def test_build_char0_f_equals_u():
    assert PHI.image("z") == NF(SPEC21, "z + x^2*U")
    assert PHI.image("y") == NF(SPEC21, "y + (2*z + 1)*U + x^2*U^2")
    assert PHI.image("x") == RElem.var(SPEC21, "x")
    assert PHI != ExponentialMap.trivial(SPEC21)


def test_build_char2_frobenius_exponent():
    spec = standard_spec(F2, 2, "1")
    phi = build_exponential(spec, [(2, 1)])
    assert phi.image("z") == NF(spec, "z + x^2*U^2")
    assert phi.image("y") == NF(spec, "y + U^2 + x^2*U^4")


def test_illegal_exponents():
    with pytest.raises(InputError, match="U-exponent 3 is not allowed in characteristic 0"):
        build_exponential(SPEC21, [(3, 1)])
    with pytest.raises(InputError, match="U-exponent 2 is not allowed in characteristic 0"):
        build_exponential(SPEC21, [(2, 1)])
    spec5 = standard_spec(F5, 2, "1")
    with pytest.raises(InputError, match="U-exponent 10 is not allowed in characteristic 5"):
        build_exponential(spec5, [(10, 1)])  # 10 = 2 * 5 is not a power of 5
    build_exponential(spec5, [(1, 1), (5, parse_poly("x", F5)), (25, 1)])


def test_verify_passes_for_family_maps():
    report = verify_exponential(PHI)
    assert report.passed
    spec = standard_spec(F3, 3, "2 + x")
    phi = build_exponential(spec, [(1, parse_poly("1 + x^2", F3)), (3, 1)])
    assert verify_exponential(phi).passed


def test_trivial_map_is_exponential():
    triv = ExponentialMap.trivial(SPEC21)
    assert triv.images == {v: RElem.var(SPEC21, v) for v in SPEC21.generators()}
    assert verify_exponential(triv).passed


def test_only_make_exponential_marks_a_map_verified():
    # the constructor takes images only and gives an unverified map; the
    # producers all return through make_exponential, which verifies
    raw = ExponentialMap(SPEC21, PHI.images)
    assert not raw.verified
    with pytest.raises(TypeError):
        ExponentialMap(SPEC21, PHI.images, verified=True)
    spec3 = standard_spec(F3, 3, "2 + x")
    for phi in (PHI, make_exponential(SPEC21, PHI.images), ExponentialMap.trivial(SPEC21),
                build_exponential(spec3, [(1, parse_poly("1 + x^2", F3)), (3, 1)])):
        assert phi.verified is True, phi
    # equality reads the ring and the images, verified or not
    assert raw == PHI and PHI == raw and not raw != PHI
    assert ExponentialMap(SPEC21, {}) == ExponentialMap.trivial(SPEC21)
    assert raw != ExponentialMap(SPEC21, {}) and raw.__eq__(PHI.images) is NotImplemented
    with pytest.raises(TypeError):
        hash(raw)  # its images are a dict


@pytest.mark.parametrize("name", ["spec", "images", "verified", "extra"])
def test_exponential_maps_refuse_assignment(name):
    for phi in (ExponentialMap(SPEC21, PHI.images), PHI):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(phi, name, True)
        if name != "extra":
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(phi, name)
    assert PHI.verified and not ExponentialMap(SPEC21, PHI.images).verified


def test_build_exponential_fails_as_make_exponential_does(monkeypatch):
    # a wrong y-image, as only a fault in the relation solving could give,
    # fails the one verification with make_exponential's message
    def wrong_y(spec, image_z):
        return {"x": RElem.var(spec, "x"), "y": RElem.var(spec, "y"), "z": image_z}

    monkeypatch.setattr(expmaps, "solve_generator_images", wrong_y)
    with pytest.raises(AlgebraError, match="^candidate images are not an exponential map: "
                                           "relation: image of the relation is "):
        build_exponential(SPEC21, [(1, 1)])


def test_negative_control_z_plus_xu():
    # z -> z + x*U breaks the relation: x^2 cannot divide x*(2z + 1 + xU)
    with pytest.raises(NotDivisible):
        solve_generator_images(SPEC21, NF(SPEC21, "z + x*U"))
    images = {
        "x": RElem.var(SPEC21, "x"),
        "y": RElem.var(SPEC21, "y"),
        "z": NF(SPEC21, "z + x*U"),
    }
    report = verify_exponential(ExponentialMap(SPEC21, images))
    assert not report.check("relation").passed


def test_negative_control_non_additive_u_part_char0():
    # z -> z + x^2 U^2 solves the relation but fails the coaction axiom in char 0
    images = solve_generator_images(SPEC21, NF(SPEC21, "z + x^2*U^2"))
    report = verify_exponential(ExponentialMap(SPEC21, images))
    assert report.check("relation").passed
    assert report.check("axiom_i").passed
    assert not report.check("axiom_ii").passed

    images = solve_generator_images(SPEC21, NF(SPEC21, "z + x^2*U + x^2*U^2"))
    report = verify_exponential(ExponentialMap(SPEC21, images))
    assert not report.check("axiom_ii").passed


def test_same_image_is_exponential_in_char_2():
    spec = standard_spec(F2, 2, "1")
    images = solve_generator_images(spec, NF(spec, "z + x^2*U^2"))
    assert verify_exponential(ExponentialMap(spec, images)).passed


def test_axiom_i_failure_detected():
    images = {
        "x": RElem.var(SPEC21, "x"),
        "y": RElem.var(SPEC21, "y"),
        "z": NF(SPEC21, "z + x^2 + x^2*U"),
    }
    report = verify_exponential(ExponentialMap(SPEC21, images))
    assert not report.check("axiom_i").passed


def test_derivation_examples():
    z = RElem.var(SPEC21, "z")
    y = RElem.var(SPEC21, "y")
    assert derivation(PHI, 1, z) == NF(SPEC21, "x^2")
    assert derivation(PHI, 2, y) == NF(SPEC21, "x^2")
    r = rng(30)
    for _ in range(20):
        a = random_relem(r, SPEC21)
        assert derivation(PHI, 0, a) == a


def test_degree_examples():
    assert degree(PHI, RElem.var(SPEC21, "z")) == 1
    assert degree(PHI, RElem.var(SPEC21, "y")) == 2
    assert degree(PHI, RElem.var(SPEC21, "x")) == 0
    assert degree(PHI, RElem.zero(SPEC21)) == float("-inf")


def test_degree_is_a_degree_function():
    r = rng(31)
    for _ in range(40):
        a = random_relem(r, SPEC21, nonzero=True)
        b = random_relem(r, SPEC21, nonzero=True)
        assert degree(PHI, a * b) == degree(PHI, a) + degree(PHI, b)
        if not (a + b).is_zero():
            assert degree(PHI, a + b) <= max(degree(PHI, a), degree(PHI, b))


def test_invariance():
    h_x3 = NF(SPEC21, "(1) * x^3")  # h = 1 here; x^3 * h(x)
    assert is_invariant(PHI, h_x3)
    assert not is_invariant(PHI, RElem.var(SPEC21, "z"))
    assert not is_invariant(PHI, RElem.var(SPEC21, "y"))
    assert is_invariant(PHI, RElem.zero(SPEC21))
    spec = standard_spec(Q, 3, "1 + x")
    phi = build_exponential(spec, [(1, parse_poly("x", Q))])
    assert is_invariant(phi, NF(spec, "(1 + x) * x^3"))
    assert not is_invariant(phi, NF(spec, "y + z"))


def test_invariants_have_nonpositive_degree():
    r = rng(32)
    for _ in range(20):
        p = random_poly(r, Q, ("x",), max_terms=3, max_exp=4)
        a = RElem(SPEC21, p, Poly.zero(Q))
        assert degree(PHI, a) <= 0
        assert is_invariant(PHI, a)


def test_evaluate_at_one():
    at1 = evaluate_at_one(PHI)
    assert at1["x"] == RElem.var(SPEC21, "x")
    assert at1["z"] == NF(SPEC21, "z + x^2")
    assert at1["y"] == NF(SPEC21, "y + 2*z + 1 + x^2")
    triv = evaluate_at_one(ExponentialMap.trivial(SPEC21))
    assert triv["z"] == RElem.var(SPEC21, "z")


LAW_MAPS = [
    (SPEC21, [(1, 1)]),
    (standard_spec(Q, 3, "1 + x"), [(1, "1 + x^2")]),
    (standard_spec(F2, 2, "1"), [(2, 1)]),
    (standard_spec(F3, 3, "2 + x"), [(1, "x"), (3, 1)]),
    (standard_spec(F5, 2, "1"), [(5, "x")]),
]


def _law_map(spec, coeffs):
    fixed = [
        (e, parse_poly(f, spec.field) if isinstance(f, str) else f) for e, f in coeffs
    ]
    return build_exponential(spec, fixed)


@pytest.mark.parametrize("spec,coeffs", LAW_MAPS)
def test_leibniz_rule(spec, coeffs):
    phi = _law_map(spec, coeffs)
    r = rng(33 + spec.field.characteristic)
    for _ in range(25):
        a = random_relem(r, spec)
        b = random_relem(r, spec)
        pab = phi.apply(a * b)
        pa, pb = phi.apply(a), phi.apply(b)
        for i in range(7):
            lhs = RElem(spec, pab.f1.coeff_of("U", i), pab.f2.coeff_of("U", i))
            rhs = RElem.zero(spec)
            for j in range(i + 1):
                dj = RElem(spec, pa.f1.coeff_of("U", j), pa.f2.coeff_of("U", j))
                dk = RElem(spec, pb.f1.coeff_of("U", i - j), pb.f2.coeff_of("U", i - j))
                rhs = rhs + dj * dk
            assert lhs == rhs


@pytest.mark.parametrize("spec,coeffs", LAW_MAPS)
def test_iterative_property(spec, coeffs):
    phi = _law_map(spec, coeffs)
    r = rng(34 + spec.field.characteristic)
    for _ in range(15):
        a = random_relem(r, spec)
        for i in range(5):
            for j in range(5):
                if i + j > 8:
                    continue
                lhs = derivation(phi, i, derivation(phi, j, a))
                rhs = derivation(phi, i + j, a).scale(binom(i + j, i, spec.field))
                assert lhs == rhs


@pytest.mark.parametrize("spec,coeffs", LAW_MAPS)
def test_derivation_lowers_degree(spec, coeffs):
    phi = _law_map(spec, coeffs)
    r = rng(35)
    for _ in range(25):
        a = random_relem(r, spec, nonzero=True)
        d = degree(phi, a)
        for i in range(1, int(d) + 1):
            di = derivation(phi, i, a)
            if not di.is_zero():
                assert degree(phi, di) <= d - i


def test_minimal_degree_divides_all_degrees_char_p():
    # F = f(x) U^p gives minimal positive degree p
    for field, p in ((F2, 2), (F3, 3), (F5, 5)):
        spec = standard_spec(field, 2, "1")
        phi = build_exponential(spec, [(p, parse_poly("x", field))])
        assert degree(phi, RElem.var(spec, "z")) == p
        r = rng(36 + p)
        for _ in range(20):
            a = random_relem(r, spec, nonzero=True)
            d = degree(phi, a)
            assert d % p == 0


def test_factorially_closed_on_monomial_factorizations():
    spec = standard_spec(Q, 3, "1 + x")
    phi = build_exponential(spec, [(1, 1)])
    h = NF(spec, "1 + x")
    x = RElem.var(spec, "x")
    for k in range(3):
        for m in range(3):
            product = x**k * h**m
            if product.is_zero():
                continue
            assert is_invariant(phi, product)
            assert is_invariant(phi, x**k) and is_invariant(phi, h**m)


def test_invariant_ring_is_kx_sampled():
    # for every family map: polynomials in x are invariant, y, z, y + z are not
    grid = [
        (standard_spec(Q, 2, "1"), [(1, parse_poly("x", Q))]),
        (standard_spec(F3, 3, "1 + x"), [(3, 1)]),
        (standard_spec(F5, 2, "2 + x"), [(1, 1), (5, parse_poly("1 + x^2", F5))]),
    ]
    for spec, coeffs in grid:
        phi = build_exponential(spec, coeffs)
        for text in ("x", "x^3", "1 + x + x^2"):
            elem = RElem(spec, parse_poly(text, spec.field), Poly.zero(spec.field))
            assert is_invariant(phi, elem)
        y, z = RElem.var(spec, "y"), RElem.var(spec, "z")
        assert not is_invariant(phi, y)
        assert not is_invariant(phi, z)
        assert not is_invariant(phi, y + z)


def test_expand_in_slice_requires_a_slice():
    with pytest.raises(AlgebraError, match=r"phi\(z\) != z \+ U; the element is not a slice") as exc:
        expand_in_slice(PHI, RElem.var(SPEC21, "z"), RElem.var(SPEC21, "y"))
    assert type(exc.value) is AlgebraError


def test_expand_in_slice_errors_are_guarded():
    with pytest.raises(AlgebraError):
        derivation(PHI, -1, RElem.var(SPEC21, "z"))


def test_apply_multiplies_once_per_group(monkeypatch):
    # phi(x) = x, so x stays free: the 30 terms of a fall into six groups by
    # their (y, z)-exponents, and each group is lifted once and multiplied by
    # its y- and z-power: 4 groups with y, 3 with z, and 1 product for y^2
    a = NF(SPEC21, "(1 + x + x^2 + x^3 + x^4)*(1 + y + y^2)*(1 + z)")
    assert len(a.f1.terms) + len(a.f2.terms) == 30
    expected = PHI.apply(a)
    calls = []
    original = RElem.__mul__

    def counting(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(RElem, "__mul__", counting)
    assert PHI.apply(a) == expected
    assert len(calls) <= 8


def _memo_maps(field):
    """The cylinder witness's map and a build_exponential map with the
    U-exponents 1 and p: maps whose applies share one memo."""
    from dansurf import build_witness

    p = field.characteristic
    spec = standard_spec(field, 3, "1 + x^2")
    coeffs = [(1, parse_poly("1 + x", field))] + ([(p, parse_poly("x", field))] if p else [])
    return [build_witness(field, 2, 3).phi, build_exponential(spec, coeffs)]


@pytest.mark.parametrize("field", [Q, F2, F3, F5], ids=lambda f: f.label)
def test_applies_through_one_map_match_fresh_maps(field):
    # the applies through one map share its memo of image powers and group
    # products; in any order they equal the applies through a fresh map each
    r = rng(41 + field.characteristic)
    for phi in _memo_maps(field):
        shared = ExponentialMap(phi.spec, phi.images)
        elems = [random_relem(r, phi.spec, ("x", "y", "T"), max_terms=4, max_exp=3)
                 for _ in range(8)]
        for _ in range(2):
            r.shuffle(elems)
            for a in elems:
                assert shared.apply(a) == ExponentialMap(phi.spec, phi.images).apply(a), a
        assert verify_exponential(shared).passed


def test_the_memo_is_no_field():
    # applying fills the memo, which equality and repr ignore and which
    # points nowhere back at the map: reference counts alone free the map
    import gc
    import weakref

    a, b = ExponentialMap(SPEC21, PHI.images), ExponentialMap(SPEC21, PHI.images)
    a.apply(NF(SPEC21, "y^2*z + x*y^3"))
    assert "_memo" in vars(a) and "_memo" not in vars(b)
    assert a == b and repr(a) == repr(b) and a._values() == b._values()
    with pytest.raises(TypeError):
        hash(a)  # its images are a dict, memo or not
    gc.disable()
    try:
        ref = weakref.ref(a)
        del a
        assert ref() is None
    finally:
        gc.enable()


def test_threads_share_a_map():
    # threads applying one map may form a power or a group product twice,
    # and store equal values, so every result equals a fresh map's (power()
    # reads a copy of a dense base's memo keys, as another thread may add one)
    import sys
    import threading

    phi = _memo_maps(Q)[0]
    r = rng(53)
    elems = [random_relem(r, phi.spec, ("x", "y", "T"), max_terms=3, max_exp=8)
             for _ in range(16)]
    expected = [ExponentialMap(phi.spec, phi.images).apply(a) for a in elems]
    wrong = []

    def work(shared, k):
        try:
            for i in range(len(elems)):
                j = (i * 5 + k) % len(elems)
                if shared.apply(elems[j]) != expected[j]:
                    wrong.append(j)
        except Exception as exc:  # a race that raises fails the test too
            wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(6):
            shared = ExponentialMap(phi.spec, phi.images)
            threads = [threading.Thread(target=work, args=(shared, k)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
