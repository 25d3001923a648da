from itertools import product

import pytest

from dansurf import (
    AlgebraError,
    Poly,
    RingSpec,
    classify,
    from_images,
    parse_poly,
    shear,
    substitute_poly,
    witness,
)
from dansurf.polyring import mono
from conftest import F2, F3, F5, Q, enumerate_oracle, standard_spec


def test_n_mismatch():
    v = classify(standard_spec(Q, 2, "1"), standard_spec(Q, 3, "1"))
    assert not v.isomorphic and v.reason == "n_mismatch"


def test_positive_example_over_q():
    s1 = standard_spec(Q, 2, "1 + x")
    s2 = standard_spec(Q, 2, "2 + 4*x")
    v = classify(s1, s2)
    assert v.isomorphic and v.reason == "ok"
    assert v.eta == 2 and v.mu == 2
    images = witness(s1, s2, v)
    assert str(images["x"]) == "2*x"
    assert str(images["y"]) == "1/16*y"
    assert str(images["z"]) == "1/2*z"


def test_support_mismatch():
    v = classify(standard_spec(Q, 3, "1 + x"), standard_spec(Q, 3, "1 + x^2"))
    assert not v.isomorphic and v.reason == "support_mismatch"


def test_no_root_over_q():
    # requires mu with mu^2 = 2: no rational solution
    v = classify(standard_spec(Q, 3, "1 + x^2"), standard_spec(Q, 3, "1 + 2*x^2"))
    assert not v.isomorphic and v.reason == "no_root"


def test_negative_mu_over_q():
    v = classify(standard_spec(Q, 3, "1 + x + x^2"), standard_spec(Q, 3, "1 - x + x^2"))
    assert v.isomorphic and v.mu == -1 and v.eta == 1


def test_bezout_combination():
    # supports {0, 2, 3}: gcd is 1 even though no single index is 1
    s1 = standard_spec(Q, 4, "1 + x^2 + x^3")
    s2 = standard_spec(Q, 4, "1 + 4*x^2 + 8*x^3")
    v = classify(s1, s2)
    assert v.isomorphic and v.mu == 2 and v.eta == 1
    witness(s1, s2, v)


def test_finite_field_example():
    s1 = standard_spec(F5, 2, "1 + x")
    s2 = standard_spec(F5, 2, "1 + 2*x")
    v = classify(s1, s2)
    assert v.isomorphic and v.eta == 1 and v.mu == 2
    images = witness(s1, s2, v)
    assert str(images["z"]) == "z"


def test_constant_h_always_isomorphic():
    v = classify(standard_spec(F5, 2, "1"), standard_spec(F5, 2, "2"))
    assert v.isomorphic and v.eta == 2 and v.mu == 1
    v = enumerate_oracle(standard_spec(F5, 2, "1"), standard_spec(F5, 2, "2"))
    assert v.isomorphic and v.eta == 2 and v.mu == 1


def test_identity_pair():
    s = standard_spec(F3, 2, "1 + x")
    v = enumerate_oracle(s, s)
    assert v.isomorphic and v.eta == 1 and v.mu == 1
    assert classify(s, s).mu == 1


def test_oracle_guards():
    with pytest.raises(AlgebraError):
        enumerate_oracle(standard_spec(Q, 2, "1"), standard_spec(Q, 2, "1"))


def all_reduced_specs(field, ns):
    """Every RingSpec over the field with n in ns, deg h < n, h(0) != 0."""
    p = field.characteristic
    specs = []
    for n in ns:
        for coeffs in product(range(p), repeat=n):
            if coeffs[0] == 0:
                continue
            h = Poly.from_items(
                field, [(mono(x=i), c) for i, c in enumerate(coeffs)]
            )
            specs.append(RingSpec(field, n, h))
    return specs


def _agree(v1, v2):
    if v1.isomorphic != v2.isomorphic:
        return False
    if v1.isomorphic:
        return v1.eta == v2.eta and v1.mu == v2.mu
    return True


@pytest.mark.parametrize("field,ns", [(F2, (2, 3)), (F3, (2,))])
def test_classifier_matches_oracle(field, ns):
    specs = all_reduced_specs(field, ns)
    for s1 in specs:
        for s2 in specs:
            assert _agree(classify(s1, s2), enumerate_oracle(s1, s2)), (s1, s2)


def test_equivalence_relation_spot_checks():
    specs = all_reduced_specs(F5, (2,))
    for s in specs[:8]:
        assert classify(s, s).isomorphic
    import random

    r = random.Random(50)
    for _ in range(40):
        s1, s2 = r.choice(specs), r.choice(specs)
        v12, v21 = classify(s1, s2), classify(s2, s1)
        assert v12.isomorphic == v21.isomorphic
    for _ in range(40):
        s1, s2, s3 = r.choice(specs), r.choice(specs), r.choice(specs)
        if classify(s1, s2).isomorphic and classify(s2, s3).isomorphic:
            assert classify(s1, s3).isomorphic


def test_witness_conjugates_automorphisms():
    s1 = standard_spec(Q, 2, "1 + x")
    s2 = standard_spec(Q, 2, "2 + 4*x")
    v = classify(s1, s2)
    fwd = witness(s1, s2, v)
    eta, mu = v.eta, v.mu
    from dansurf import RElem

    bwd = {
        "x": RElem.var(s1, "x").scale(mu.inv()),
        "y": RElem.var(s1, "y").scale(eta**2 * mu**s1.n),
        "z": RElem.var(s1, "z").scale(eta),
    }
    e = shear(s1, parse_poly("1 + x", Q))
    conj = {}
    for g in ("x", "y", "z"):
        t1 = bwd[g]  # alpha^-1(g) in R_1
        t2 = e.apply(t1)
        conj[g] = substitute_poly(s2, t2.to_poly(), fwd)
    got = from_images(s2, conj)
    assert got.mu == 1 and got.sigma == 1


def test_unreduced_guard():
    s1 = standard_spec(Q, 2, "1")
    with pytest.raises(AlgebraError):
        classify(s1, RingSpec(Q, 2, Poly.zero(Q), graded=True))
