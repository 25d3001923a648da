import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dansurf import (
    AlgebraError,
    InputError,
    RElem,
    build_exponential,
    build_witness,
    degree,
    derivation,
    expand_in_slice,
    is_invariant,
    normal_form,
    parse_poly,
    restrict_to_surface,
    verify_witness,
)
from dansurf import cancellation
from dansurf.cancellation import CancellationWitness
from dansurf.cli import dispatch
from dansurf.expmaps import CheckResult, ExponentialMap, VerificationReport
from conftest import F2, F3, F5, Q


def NF(spec, text):
    return normal_form(spec, parse_poly(text, spec.field))


def test_parameter_validation():
    for n1, n2 in ((2, 5), (2, 2), (1, 2)):  # n2 > 2 n1, n1 = n2, n1 < 2
        with pytest.raises(InputError, match=rf"need 2 <= n1 < n2 <= 2\*n1; got n1={n1}, n2={n2}$"):
            build_witness(Q, n1, n2)


def test_all_checks_pass_23_over_q():
    w = build_witness(Q, 2, 3)
    report = verify_witness(w)
    assert report.passed
    assert w.report == report  # build_witness hands back the report it computed
    assert [c.name for c in report.checks] == [
        "exponential",
        "embedded_relation",
        "recovered_relation",
        "invariance",
        "slice_action",
        "linear_form",
        "slice_generates",
    ]


def test_witness_is_an_immutable_record():
    # its map is built unverified; the witness's own "exponential" check
    # verifies it, and the passing report is a field like the others
    w = build_witness(Q, 2, 3)
    assert not w.phi.verified
    assert w.report.check("exponential") == CheckResult("exponential", True, "")
    for name in CancellationWitness._fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(w, name, None)
    assert w == build_witness(Q, 2, 3)
    with pytest.raises(TypeError):
        hash(w)  # its map holds a dict


def test_explicit_slice_23():
    w = build_witness(Q, 2, 3)
    # s = -4 x^3 T^3 + 3 x (2 z1 + 1) T^2 + 4 x^2 y2 T + y2 (2 z1 + 1), z1 = z + x^2 T
    expected = NF(
        w.spec2,
        "-4*x^3*T^3 + 3*x*(2*(z + x^2*T) + 1)*T^2 + 4*x^2*y*T + y*(2*(z + x^2*T) + 1)",
    )
    assert w.s == expected
    assert w.z1 == NF(w.spec2, "z + x^2*T")


def test_embedding_images_24():
    w = build_witness(Q, 2, 4)
    # 2*n1 - n2 = 0: the T^2 coefficient of s carries no power of x
    expected = NF(
        w.spec2,
        "-4*x^2*T^3 + 3*(2*(z + x^2*T) + 1)*T^2 + 4*x^2*y*T + y*(2*(z + x^2*T) + 1)",
    )
    assert w.s == expected


def test_slice_degenerates_in_char_2():
    w = build_witness(F2, 2, 3)
    assert w.s == NF(w.spec2, "x*T^2 + y")
    assert verify_witness(w).passed


def test_slice_properties():
    w = build_witness(Q, 2, 3)
    t_elem = RElem.var(w.spec2, "T")
    assert degree(w.phi, w.s) == 1
    assert degree(w.phi, t_elem) == 1
    assert derivation(w.phi, 1, w.s) == RElem.one(w.spec2)


def test_phi_moves_t_and_fixes_embedded_ring():
    w = build_witness(Q, 3, 4)
    assert is_invariant(w.phi, w.x1)
    assert is_invariant(w.phi, w.y1)
    assert is_invariant(w.phi, w.z1)
    assert not is_invariant(w.phi, RElem.var(w.spec2, "T"))
    assert not is_invariant(w.phi, RElem.var(w.spec2, "y"))


def test_expand_in_slice_collects_invariant_coefficients():
    w = build_witness(Q, 2, 3)
    spec = w.spec2
    for a in (RElem.var(spec, "T"), RElem.var(spec, "y"), RElem.var(spec, "z")):
        parts = expand_in_slice(w.phi, w.s, a)
        rebuilt = RElem.zero(spec)
        for coeff, power in parts:
            assert is_invariant(w.phi, coeff)
            rebuilt = rebuilt + coeff * w.s**power
        assert rebuilt == a


def test_expand_z1_times_slice():
    w = build_witness(Q, 2, 3)
    a = w.z1 * w.s
    parts = dict((power, coeff) for coeff, power in expand_in_slice(w.phi, w.s, a))
    assert parts[1] == w.z1


def test_expand_slice_itself():
    # s = 0 + 1*s
    w = build_witness(Q, 2, 3)
    parts = expand_in_slice(w.phi, w.s, w.s)
    assert parts == [(RElem.one(w.spec2), 1)]


def test_expand_in_slice_applies_twice(monkeypatch):
    # one application for the slice check and one for the image that the
    # shift U -> U - s expands, whatever the degree
    w = build_witness(Q, 2, 3)
    spec = w.spec2
    calls = []
    original = ExponentialMap.apply

    def counting(phi, a):
        calls.append(a)
        return original(phi, a)

    monkeypatch.setattr(ExponentialMap, "apply", counting)
    for a in (RElem.var(spec, "T") ** 2, RElem.var(spec, "y") * RElem.var(spec, "z"), w.s,
              RElem.var(spec, "T") ** 5):
        calls.clear()
        expand_in_slice(w.phi, w.s, a)
        assert len(calls) == 2


def test_verify_witness_applies_phi_to_s_once(monkeypatch):
    # slice_action forms phi(s), and the five expansions' slice guards read
    # it; y1 is certified from the embedded relation, not applied
    w = build_witness(Q, 2, 3)
    calls = []
    original = ExponentialMap.apply

    def counting(phi, a):
        calls.append(a)
        return original(phi, a)

    monkeypatch.setattr(ExponentialMap, "apply", counting)
    assert verify_witness(w).passed
    assert [a for a in calls if a == w.s] == [w.s]
    assert w.y1 not in calls and w.x1 in calls and w.z1 in calls


@pytest.mark.parametrize("field", [Q, F2, F3, F5], ids=lambda f: f.label)
@pytest.mark.parametrize("n1, n2", [(2, 3), (2, 4), (3, 4), (3, 5)])
def test_expand_in_slice_known_answer(field, n1, n2):
    # a = sum c_l s^l with chosen invariants c_l, polynomials in x1, y1, z1:
    # the expansion returns exactly the nonzero (c_l, l), ascending
    w = build_witness(field, n1, n2)
    x1, y1, z1 = w.x1, w.y1, w.z1
    choices = (
        [(2 * x1 + 1, 0), (z1, 1), (y1 - x1 * z1, 2)],
        [(x1**2 * y1, 1), (3 * z1 + 1, 3)],
        [(z1 * z1 - 2, 0), (x1, 1), (y1, 2), (1 + x1 * y1, 3)],
    )
    for chosen in choices:
        expected = [(c, l) for c, l in chosen if c]
        a = RElem.zero(w.spec2)
        for c, l in expected:
            a = a + c * w.s**l
        assert expand_in_slice(w.phi, w.s, a) == expected


def test_tampered_witness_fails_invariance():
    w = build_witness(Q, 2, 3)
    x = RElem.var(w.spec2, "x")
    u = RElem.var(w.spec2, "U")
    t = RElem.var(w.spec2, "T")
    bad_images = dict(w.phi.images)
    bad_images["T"] = t + x ** (w.n2 - w.n1) * u  # sign flipped
    bad_phi = ExponentialMap(w.spec2, bad_images)
    tampered = CancellationWitness(
        w.spec2, w.n1, w.n2, w.x1, w.z1, w.y1, bad_phi, w.s
    )
    report = verify_witness(tampered)
    assert not report.passed
    inv = report.check("invariance")
    assert not inv.passed and "z1" in inv.detail
    assert not report.check("slice_action").passed


@pytest.mark.parametrize("pair", [(2, 3), (3, 4), (3, 6)])
def test_restriction_matches_family_map(pair):
    w = build_witness(Q, *pair)
    restricted = restrict_to_surface(w)
    assert restricted == build_exponential(w.spec2, [(1, 1)])
    for v, img in restricted.images.items():
        assert img.substitute_params({"U": 0}) == RElem.var(w.spec2, v)


@pytest.mark.parametrize("field", [Q, F2, F3, F5])
def test_full_suite_34(field):
    assert verify_witness(build_witness(field, 3, 4)).passed


# Every (n1, n2) that build_witness accepts for n1 <= 5, over each field.
_INPUTS = [(field, n1, n2) for field in (Q, F2, F3, F5)
           for n1 in range(2, 6) for n2 in range(n1 + 1, 2 * n1 + 1)]


def reference_slice_generates(w):
    """The slice_generates check with the direct test phi(c) = c on every
    coefficient of all five rows."""
    spec = w.spec2
    t, y, z = (RElem.var(spec, v) for v in ("T", "y", "z"))
    bad = []
    for name, a in (("T", t), ("y2", y), ("z2", z), ("T^2", t * t), ("y2*z2", y * z)):
        try:
            parts = expand_in_slice(w.phi, w.s, a)
        except AlgebraError as exc:
            bad.append(f"{name}: {exc}")
            continue
        rebuilt = RElem.zero(spec)
        for coeff, k in parts:
            if w.phi.apply(coeff) != coeff:
                bad.append(f"{name}: coefficient of s^{k} is not invariant")
            rebuilt = rebuilt + coeff * w.s**k
        if rebuilt != a:
            bad.append(f"{name}: reconstruction differs")
    return CheckResult("slice_generates", not bad, "; ".join(bad))


def reference_invariance(w):
    """The invariance check with phi applied to each of x1, y1 and z1."""
    moved = [name for name, elem in (("x", w.x1), ("y1", w.y1), ("z1", w.z1))
             if w.phi.apply(elem) != elem]
    return CheckResult("invariance", not moved,
                       "" if not moved else "not invariant: " + ", ".join(moved))


def assert_matches_reference(w):
    """verify_witness's report equals the one whose invariance check applies
    phi to y1 and whose slice_generates check substitutes every
    coefficient; returns the report."""
    report = verify_witness(w)
    names = [c.name for c in report.checks]
    assert names[3] == "invariance" and names[-1] == "slice_generates"
    checks = list(report.checks)
    checks[3], checks[-1] = reference_invariance(w), reference_slice_generates(w)
    assert report == VerificationReport(tuple(checks))
    return report


@pytest.mark.parametrize("field, n1, n2", _INPUTS,
                         ids=[f"{f.label}-{n1}-{n2}" for f, n1, n2 in _INPUTS])
def test_product_rows_match_the_direct_check(field, n1, n2):
    assert assert_matches_reference(build_witness(field, n1, n2)).passed


def _invariants(w):
    """1, x, z1, y1 and x^n1*z1: elements of the embedded ring, fixed by phi."""
    return (RElem.one(w.spec2), w.x1, w.z1, w.y1, w.x1**w.n1 * w.z1)


def _shifted(w, c):
    """The witness with the slice s + c, again a slice when phi fixes c."""
    return CancellationWitness(w.spec2, w.n1, w.n2, w.x1, w.z1, w.y1, w.phi, w.s + c)


@pytest.mark.parametrize("field, n1, n2", _INPUTS,
                         ids=[f"{f.label}-{n1}-{n2}" for f, n1, n2 in _INPUTS])
def test_shifted_slices_match_the_direct_check(field, n1, n2):
    # phi(s + c) = s + c + U for invariant c, and the expansions in s + c
    # are not those in s; every coefficient is certified by the lemma, not
    # substituted, and the report must still be the substituting one
    w = build_witness(field, n1, n2)
    t = RElem.var(w.spec2, "T")
    for c in _invariants(w):
        shifted = _shifted(w, c)
        assert expand_in_slice(w.phi, shifted.s, t) != expand_in_slice(w.phi, w.s, t)
        report = assert_matches_reference(shifted)
        assert report.check("slice_action").passed and report.check("slice_generates").passed


_WITNESSES = {}


@settings(max_examples=100)
@given(st.sampled_from(_INPUTS), st.lists(st.integers(-2, 2), min_size=5, max_size=5))
def test_slices_shifted_by_drawn_invariants_match_the_direct_check(inputs, weights):
    if inputs not in _WITNESSES:
        _WITNESSES[inputs] = build_witness(*inputs)
    w = _WITNESSES[inputs]
    c = RElem.zero(w.spec2)
    for k, inv in zip(weights, _invariants(w)):
        c = c + k * inv
    report = assert_matches_reference(_shifted(w, c))
    assert report.check("slice_generates").passed


def _tampered(w, images, s=None):
    phi = ExponentialMap(w.spec2, images)
    return CancellationWitness(w.spec2, w.n1, w.n2, w.x1, w.z1, w.y1, phi, w.s if s is None else s)


@pytest.mark.parametrize("field", [Q, F3], ids=lambda f: f.label)
def test_tampered_witnesses_match_the_direct_check(field):
    w = build_witness(field, 2, 3)
    x, y, z, t, u = (RElem.var(w.spec2, v) for v in ("x", "y", "z", "T", "U"))
    # phi(T) with its sign flipped: still an exponential map, but s is no
    # slice of it, so every row's expansion is refused
    flipped = dict(w.phi.images, T=t + x ** (w.n2 - w.n1) * u)
    report = assert_matches_reference(_tampered(w, flipped))
    assert report.check("exponential").passed
    assert not report.check("slice_generates").passed
    # phi(y) without its x^n2*U^2 term breaks the relation
    short = dict(w.phi.images, y=w.phi.image("y") - x**w.n2 * u**2)
    report = assert_matches_reference(_tampered(w, short))
    assert "relation" in report.check("exponential").detail
    # y -> y + z*U, T -> T + U breaks the relation (its image is x^n2*z*U)
    # and keeps T a slice: the T, y2 and z2 rows pass phi(c) = c, and the
    # y2*z2 coefficients, products of theirs, do not, which the product path
    # would miss
    report = assert_matches_reference(_tampered(w, {"y": y + z * u, "T": t + u}, s=t))
    assert not report.check("exponential").passed
    assert report.check("slice_generates").detail == (
        "y2*z2: coefficient of s^0 is not invariant; "
        "y2*z2: coefficient of s^1 is not invariant")
    # a tampered y1 breaks the embedded relation, so y1 is not certified
    # from it: y1 + T is not invariant, y1 + x is
    for extra, detail in ((t, "not invariant: y1"), (x, "")):
        tampered = CancellationWitness(w.spec2, w.n1, w.n2, w.x1, w.z1, w.y1 + extra, w.phi, w.s)
        report = assert_matches_reference(tampered)
        assert not report.check("embedded_relation").passed
        assert report.check("invariance").detail == detail


def test_coefficients_are_substituted_iff_the_exponential_check_fails(monkeypatch):
    # y -> y + z^2*U, T -> T + U with s = T: not an exponential map (it
    # breaks the relation), and y2 and y2*z2 have coefficients it moves
    w = build_witness(Q, 2, 3)
    y, z, t, u = (RElem.var(w.spec2, v) for v in ("y", "z", "T", "U"))
    tampered = _tampered(w, {"y": y + z * z * u, "T": t + u}, s=t)
    rows = (t, y, z, t * t, y * z)
    expansions = [[c for c, _ in expand_in_slice(tampered.phi, t, a)] for a in rows]
    detail = ("y2: coefficient of s^0 is not invariant; y2: coefficient of s^1 is not invariant; "
              "y2*z2: coefficient of s^0 is not invariant; y2*z2: coefficient of s^1 is not invariant")
    calls = []
    original = ExponentialMap.apply

    def counting(phi, a):
        calls.append(a)
        return original(phi, a)

    monkeypatch.setattr(ExponentialMap, "apply", counting)
    # (a) the exponential check fails, so each row's image is followed by
    # the substitution of every one of its coefficients
    report = verify_witness(tampered)
    assert not report.check("exponential").passed
    assert report.check("slice_generates").detail == detail
    assert calls == [w.x1, w.z1, w.y1, t, *(e for a, cs in zip(rows, expansions) for e in (a, *cs))]
    assert report == assert_matches_reference(tampered)
    # (b) with the check forced to pass, the slice_generates loop applies
    # phi to no coefficient: only x1, z1, y1 (phi moves z1, so y1 is not
    # certified from the relation), s (= T) and the five rows
    monkeypatch.setattr(cancellation, "verify_exponential", lambda phi: VerificationReport(()))
    calls.clear()
    report = verify_witness(tampered)
    assert report.check("exponential").passed and report.check("slice_generates").passed
    assert calls == [w.x1, w.z1, w.y1, t, *rows]


# The text and --json outputs of cancel-verify on every input above, as
# printed when every coefficient of slice_generates was substituted.
_GOLDEN = json.loads((Path(__file__).parent / "data" / "cancel_verify.json").read_text())


@pytest.mark.parametrize("field, n1, n2, code, text, json_text", _GOLDEN,
                         ids=[f"{f}-{n1}-{n2}" for f, n1, n2, *_ in _GOLDEN])
def test_cancel_verify_golden_output(field, n1, n2, code, text, json_text):
    argv = ["cancel-verify", "--n1", str(n1), "--n2", str(n2), "--field", field]
    assert dispatch(argv) == (code, text)
    assert dispatch(argv + ["--json"]) == (code, json_text)
