"""The value records behave as frozen dataclasses do: both constructor forms
and their defaults, equality and hash by the field tuple, the repr, no
assignment, and the same validation errors."""

from fractions import Fraction

import pytest

from conftest import F5, Q, enumerate_oracle, standard_spec
from dansurf import (Automorphism, CancellationWitness, ExponentialMap, FieldSpec,
                     GroupStructure, Homogenization, InputError, IsoVerdict, Poly, RElem,
                     RingSpec, classify, group_structure)
from dansurf.expmaps import CheckResult, VerificationReport

SPEC = standard_spec(F5, 3, "1 + x^2")
PHI = ExponentialMap(SPEC, {})
X, Y, Z = (RElem.var(SPEC, v) for v in "xyz")

# Each record's positional arguments, without the defaulted ones, and the
# keyword arguments of every field in order, defaults spelled out.
RECORDS = [
    (FieldSpec, (), {"characteristic": 0}),
    (FieldSpec, (5,), {"characteristic": 5}),
    (RingSpec, (F5, 3, SPEC.h), {"field": F5, "n": 3, "h": SPEC.h, "graded": False,
                                 "free": False}),
    (Automorphism, (SPEC, F5.scalar(4), -1, -SPEC.h),
     {"spec": SPEC, "mu": F5.scalar(4), "sigma": -1, "f": -SPEC.h}),
    (GroupStructure, (2, 2, "cyclic of order 2", "C2 x C2", "shears", F5),
     {"m": 2, "l_order": 2, "l_description": "cyclic of order 2", "h_description": "C2 x C2",
      "n_description": "shears", "field": F5}),
    (CheckResult, ("relation", True), {"name": "relation", "passed": True, "detail": ""}),
    (VerificationReport, ((CheckResult("relation", True),),),
     {"checks": (CheckResult("relation", True),)}),
    (IsoVerdict, (True, F5.scalar(2), F5.one, "ok"),
     {"isomorphic": True, "eta": F5.scalar(2), "mu": F5.one, "reason": "ok"}),
    (Homogenization, (Fraction(1, 2), SPEC, PHI, {"x": (0,)}),
     {"parameter_weight": Fraction(1, 2), "target": SPEC, "bar": PHI, "s_sets": {"x": (0,)}}),
    (CancellationWitness, (SPEC, 2, 3, X, Z, Y, PHI, X),
     {"spec2": SPEC, "n1": 2, "n2": 3, "x1": X, "z1": Z, "y1": Y, "phi": PHI, "s": X,
      "report": None}),
]
IDS = [f"{cls.__name__}{len(args)}" for cls, args, _ in RECORDS]


@pytest.mark.parametrize("cls, args, kwargs", RECORDS, ids=IDS)
def test_constructors_defaults_equality_and_hash(cls, args, kwargs):
    a, b = cls(*args), cls(**kwargs)
    assert a == b and not a != b
    assert {name: getattr(a, name) for name in kwargs} == kwargs
    try:
        expected = hash(tuple(kwargs.values()))
    except TypeError:  # a dict field, as in Homogenization.s_sets, or a map's images
        with pytest.raises(TypeError):
            hash(a)
        return
    assert hash(a) == hash(b) == expected


@pytest.mark.parametrize("cls, args, kwargs", RECORDS, ids=IDS)
def test_other_types_are_not_implemented(cls, args, kwargs):
    a = cls(*args)
    assert a.__eq__("x") is NotImplemented and a != "x"
    assert a.__eq__(tuple(kwargs.values())) is NotImplemented
    other = CheckResult("relation", True) if cls is not CheckResult else FieldSpec(5)
    assert a.__eq__(other) is NotImplemented


@pytest.mark.parametrize("cls, args, kwargs", RECORDS, ids=IDS)
def test_records_refuse_assignment(cls, args, kwargs):
    # every record refuses assignment, CancellationWitness too
    a = cls(*args)
    name = next(iter(kwargs))
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(a, name, None)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        a.extra = 1
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(a, name)
    assert a == cls(**kwargs)


def test_reprs_list_the_fields():
    assert repr(FieldSpec(3)) == "FieldSpec(characteristic=3)"
    assert repr(CheckResult("a", False, "d")) == "CheckResult(name='a', passed=False, detail='d')"
    assert repr(VerificationReport((CheckResult("a", True),))) == (
        "VerificationReport(checks=(CheckResult(name='a', passed=True, detail=''),))")
    assert repr(IsoVerdict(True, Q.scalar(2), Q.one, "ok")) == (
        "IsoVerdict(isomorphic=True, eta=Scalar(2 over Q), mu=Scalar(1 over Q), reason='ok')")
    assert repr(RingSpec(Q, 2, Poly.const(Q, 1))) == (
        "RingSpec(field=FieldSpec(characteristic=0), n=2, h=Poly(1 over Q), graded=False, "
        "free=False)")


def test_validation_is_unchanged():
    with pytest.raises(InputError, match="characteristic 4 is not 0 or a prime"):
        FieldSpec(4)
    with pytest.raises(InputError, match="exceeds the 2\\^31 bound"):
        FieldSpec(2**31)
    with pytest.raises(InputError, match="deg_x\\(h\\) = 3 >= n = 3"):
        standard_spec(F5, 3, "1 + x^3")
    with pytest.raises(InputError, match="both graded and free"):
        RingSpec(F5, 3, Poly.zero(F5), graded=True, free=True)
    with pytest.raises(InputError, match="sigma must be"):
        Automorphism(SPEC, F5.one, 2, Poly.zero(F5))
    with pytest.raises(InputError, match="h\\(2\\*x\\) != h\\(x\\)"):
        Automorphism(SPEC, F5.scalar(2), 1, Poly.zero(F5))


def test_field_equality_is_its_own():
    # bench/tracer.py counts calls of FieldSpec.__eq__ as defined in its body
    assert "__eq__" in vars(FieldSpec) and "__hash__" in vars(FieldSpec)
    assert FieldSpec(5) == F5 and FieldSpec(5) != FieldSpec(7) and FieldSpec() == Q
    assert F5.one == 1 and F5.zero == 0 and F5.one.field is F5


def test_cached_properties_work_on_frozen_records():
    gs = group_structure(SPEC)
    assert "l_elements" not in vars(gs)
    assert gs.l_elements == (F5.one, F5.scalar(4)) and gs.l_elements is gs.l_elements
    assert gs == group_structure(SPEC)


def test_iso_verdicts_compare_as_the_oracle_needs():
    # the oracle gives the whole verdict for isomorphic pairs and for n_mismatch
    for (n1, h1), (n2, h2) in (((3, "1 + x"), (3, "2 + x")), ((3, "1 + x^2"), (3, "3 + 2*x^2")),
                               ((2, "1 + x"), (3, "1 + x"))):
        spec1, spec2 = standard_spec(F5, n1, h1), standard_spec(F5, n2, h2)
        verdict = classify(spec1, spec2)
        assert verdict == enumerate_oracle(spec1, spec2)
        assert hash(verdict) == hash(enumerate_oracle(spec1, spec2))
    assert IsoVerdict(False, None, None, "no_root") != IsoVerdict(False, None, None,
                                                                  "support_mismatch")
