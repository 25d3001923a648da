import decimal
import gc
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import dansurf
from dansurf import cli
from dansurf.cli import dispatch, main
from dansurf.scalars import digits_to_int

from test_fuzz import argvs


def test_normal_form_documented_output():
    code, out = dispatch(
        ["normal-form", "--ring", "R(n=2,h=1,field=F2)", "--expr", "z^2+z"]
    )
    assert code == 0
    assert out == "x^2*y"


def test_exp_verify_documented_output():
    code, out = dispatch(
        [
            "exp-verify",
            "--ring",
            "R(n=2,h=1,field=Q)",
            "--map",
            "x->x; z->z+x^2*U; y->y+(2*z+1)*U+x^2*U^2",
        ]
    )
    assert code == 0
    assert out == "relation: PASS\naxiom_i: PASS\naxiom_ii: PASS\nverified"


def test_iso_check_documented_output():
    code, out = dispatch(
        [
            "iso-check",
            "--left",
            "R(n=2,h=1,field=Q)",
            "--right",
            "R(n=3,h=1,field=Q)",
        ]
    )
    assert code == 0
    assert out == '{"isomorphic": false, "eta": null, "mu": null, "reason": "n_mismatch"}'


def test_outputs_are_deterministic():
    argv = ["iso-check", "--left", "R(n=2,h=1+x,field=Q)", "--right",
            "R(n=2,h=2+4*x,field=Q)"]
    first = dispatch(argv)
    second = dispatch(argv)
    assert first == second
    assert json.loads(first[1]) == {
        "isomorphic": True, "eta": "2", "mu": "2", "reason": "ok",
    }


def test_exp_verify_failure_exit_code():
    code, out = dispatch(
        [
            "exp-verify",
            "--ring",
            "R(n=2,h=1,field=Q)",
            "--map",
            "x->x; z->z+x*U; y->y",
        ]
    )
    assert code == 1
    assert "relation: FAIL" in out


def test_offsets_count_characters_not_bytes():
    # U+3000 is one character of three UTF-8 bytes, so h's "1\u3000+" ends
    # at offset 11 of the spec, not at byte 13
    argv = ["normal-form", "--ring", "R(n=2,h=1\u3000+,field=Q)", "--expr", "x"]
    assert dispatch(argv) == (2, "input error: unexpected end of input (offset 11)")


def test_usage_errors_exit_2():
    code, _ = dispatch(["no-such-command"])
    assert code == 2
    code, _ = dispatch(["normal-form", "--ring", "R(n=2,h=1,field=Q)"])
    assert code == 2
    code, out = dispatch(
        ["normal-form", "--ring", "R(n=2,h=1,field=Q)", "--expr", "2x"]
    )
    assert code == 2
    assert "offset 1" in out
    code, out = dispatch(
        ["normal-form", "--ring", "R(n=2,h=1,field=Q)", "--expr", "\u00b2"]
    )
    assert (code, out) == (2, "input error: unexpected character '\u00b2' (offset 0)")
    code, out = dispatch(
        ["exp-build", "--ring", "R(n=2,h=1,field=Q)", "--coeff", "a:1"]
    )
    assert (code, out) == (2, "input error: bad exponent 'a' in coefficient 'a:1' (offset 0)")
    # int() and Fraction() read every Unicode digit; the grammar reads 0-9
    mapping = "x->x; z->z+x^2*U; y->y+(2*z+1)*U+x^2*U^2"
    for argv, offset in (
        (["exp-build", "--ring", "R(n=2,h=1,field=Q)", "--coeff", "\u0661:1"], 0),
        (["normal-form", "--ring", "R(n=\u0662,h=1,field=Q)", "--expr", "z"], 4),
        (["normal-form", "--ring", "R(n=2,h=1,field=F\u0665)", "--expr", "z"], 17),
        (["homogenize", "--ring", "R(n=2,h=1,field=Q)", "--map", mapping,
          "--weights", "w{x:0, y:2, z:\u0661}"], 14),
    ):
        code, out = dispatch(argv)
        assert (code, out[:30]) == (2, "input error: unexpected charac")
        assert out.endswith(f"(offset {offset})")
    # nesting past 200 parentheses and powers past the exponent bound
    deep = "(" * 300 + "x" + ")" * 300
    code, out = dispatch(["normal-form", "--ring", "R(n=2,h=1,field=Q)", "--expr", deep])
    assert (code, out) == (2, "input error: parentheses nested deeper than 200 (offset 200)")
    code, out = dispatch(["normal-form", "--ring", "R(n=2,h=1,field=F3)",
                          "--expr", "(x^1000000)^1000000"])
    assert (code, out) == (2, "input error: power has exponent 1000000 * 1000000, "
                              "which exceeds 1000000 (offset 12)")
    # so are the exponents a product produces, checked at the offending factor
    for expr, offset, tops in (("x^1000000*x^1000000", 10, "1000000 + 1000000"),
                               ("x^999999*(x+1)*x", 15, "1000000 + 1")):
        code, out = dispatch(["normal-form", "--ring", "R(n=2,h=1,field=F2)", "--expr", expr])
        assert (code, out) == (2, f"input error: product has exponent {tops}, "
                                  f"which exceeds 1000000 (offset {offset})")
    # an exponent or characteristic too long for int() is rejected by its length
    code, out = dispatch(["normal-form", "--ring", "R(n=2,h=1,field=Q)",
                          "--expr", "x^" + "9" * 5000])
    assert (code, out) == (2, "input error: exponent of 5000 digits exceeds 1000000 (offset 2)")
    code, out = dispatch(["normal-form", "--ring", "R(n=2,h=1,field=F" + "9" * 5000 + ")",
                          "--expr", "z"])
    assert (code, out) == (2, "input error: characteristic of 5000 digits exceeds the 2^31 "
                              "bound (offset 17)")
    # a field spec that is not Q or F<p>, p prime below 2^31, is an input error
    for field, reason in (
        ("GF5", "expected 'Q' or 'F<p>'"),
        ("F4", "characteristic 4 is not 0 or a prime"),
        ("F2147483659", "characteristic 2147483659 exceeds the 2^31 bound"),
        ("F0", "characteristic 0 is written Q"),
    ):
        code, out = dispatch(
            ["normal-form", "--ring", f"R(n=2,h=1,field={field})", "--expr", "z"]
        )
        assert (code, out) == (2, f"input error: bad field spec {field!r}: {reason} (offset 16)")
    # integers are '-'? then 0-9 and weights -?int('/'int)?, not Python literals
    ring = "R(n=2,h=1,field=F2)"
    for argv, message in (
        (["derive", "--ring", _Q2, "--map", _MAP, "--expr", "y", "--order", "\u0662"],
         "usage error: argument --order: invalid int value: '\u0662'"),
        (["derive", "--ring", _Q2, "--map", _MAP, "--expr", "y", "--order", "+2"],
         "usage error: argument --order: invalid int value: '+2'"),
        (["cancel-verify", "--n1", "\u0662", "--n2", "\u0663"],
         "usage error: argument --n1: invalid int value: '\u0662'"),
        (["cancel-verify", "--n1", "2", "--n2", "3_0"],
         "usage error: argument --n2: invalid int value: '3_0'"),
        (["exp-build", "--ring", ring, "--coeff", "0_2:1"],
         "input error: bad exponent '0_2' in coefficient '0_2:1' (offset 0)"),
        (["exp-build", "--ring", ring, "--coeff", "1:1", "--coeff", " 2:x"],
         "input error: bad exponent ' 2' in coefficient ' 2:x' (offset 0)"),
        (["normal-form", "--ring", "R(n=1_0,h=1,field=Q)", "--expr", "z"],
         "input error: bad n value '1_0' (offset 4)"),
        (["normal-form", "--ring", "R(n=+2,h=1,field=Q)", "--expr", "z"],
         "input error: bad n value '+2' (offset 4)"),
        (["homogenize", "--ring", _Q2, "--map", _MAP, "--weights", "w{x:0, y:2, z:1e0}"],
         "input error: bad weight value '1e0' (offset 14)"),
        (["homogenize", "--ring", _Q2, "--map", _MAP, "--weights", "w{x:0, y:2, z:1.0}"],
         "input error: bad weight value '1.0' (offset 14)"),
        (["homogenize", "--ring", _Q2, "--map", _MAP, "--weights", "w{x:0_0, y:2, z:1}"],
         "input error: bad weight value '0_0' (offset 4)"),
        (["homogenize", "--ring", _Q2, "--map", _MAP, "--weights", "w{x:0, y:2, z:1/0}"],
         "input error: bad weight value '1/0' (offset 16)"),
        (["homogenize", "--ring", _Q2, "--map", _MAP, "--weights", "w{x:0, y:2, z:1/-2}"],
         "input error: bad weight value '1/-2' (offset 16)"),
    ):
        assert dispatch(argv) == (2, message), argv
    # --coeff exponents are bounded like the grammar's; 2^1100 used to recurse
    # once per binary digit in the Frobenius chain and overflow the stack
    for e, message in ((2**1100, "exponent of 332 digits exceeds 1000000"),
                       (2**200, "exponent of 61 digits exceeds 1000000"),
                       (2**20, "exponent 1048576 exceeds 1000000")):
        argv = ["exp-build", "--ring", ring, "--coeff", f"{e}:1"]
        assert dispatch(argv) == (2, f"input error: {message} (offset 0)"), e
    # the y-image carries U^(2E), so E above 500000 would print a map that
    # does not parse back
    code, out = dispatch(["exp-build", "--ring", ring, "--coeff", f"{2**19}:1"])
    assert (code, out) == (2, "input error: exponent 524288 exceeds 500000, as the y-image "
                              "would carry U^1048576 (offset 0)")
    # the weight vector must weigh every variable the map carries, in x, y, z,
    # T order; a missing one is reported at the closing brace, before the map
    # is verified
    for weights, mapping, var, offset in (("w{}", _MAP + "; T->T", "x", 2),
                                          ("w{x:0, y:2}", _BAD_MAP, "z", 10),
                                          ("w{x:0, y:2, z:1}", _MAP + "; T->T", "T", 15)):
        argv = ["homogenize", "--ring", _Q2, "--map", mapping, "--weights", weights]
        assert dispatch(argv) == (2, "input error: weight vector does not assign a weight "
                                     f"to {var!r} (offset {offset})"), weights


def test_a_value_may_start_with_one_dash():
    # -x is normal-form's own output, and it reads back without --expr=
    ring = "R(n=2,h=1,field=Q)"
    assert dispatch(["normal-form", "--ring", ring, "--expr", "-x"]) == (0, "-x")
    assert dispatch(["normal-form", "--ring", ring, "--expr", "-z^2", "--json"])[0] == 0
    assert dispatch(["aut-apply", "--ring", ring, "--word", "T", "--expr", "-z"]) == (0, "z + 1")
    assert dispatch(["cancel-verify", "--n1", "-2", "--n2", "3"]) == (
        2, "input error: need 2 <= n1 < n2 <= 2*n1; got n1=-2, n2=3")
    # a token with two dashes is always an option
    assert dispatch(["normal-form", "--ring", ring, "--expr", "--json"]) == (
        2, "usage error: argument --expr: expected one argument")
    code, out = dispatch(["normal-form", "--ring", ring, "--expr", "x", "-y"])
    assert (code, out) == (2, "usage error: unrecognized arguments: -y")


@pytest.mark.parametrize("field, coeff, message, offset", [
    ("Q", "1:2x", "unexpected 'x'", 3),
    ("Q", "1:(1", "expected ')'", 4),
    ("F3", "1:1/3", "denominator 3 is 0 in F3", 2),
    ("Q", "10:x +", "unexpected end of input", 6),
])
def test_coeff_offsets_count_from_the_argument(field, coeff, message, offset):
    # an error in a --coeff polynomial is placed in the whole E:POLY text
    argv = ["exp-build", "--ring", f"R(n=2,h=1,field={field})", "--coeff", coeff]
    assert dispatch(argv) == (2, f"input error: {message} (offset {offset})")


@pytest.mark.parametrize("p, k", [(2, 18), (3, 11), (5, 8)])
def test_largest_exp_build_power_parses_back(p, k):
    # p^k is the largest power of p at most 500000; its printed map goes
    # back in through exp-verify
    assert p**k <= 500000 < p ** (k + 1)
    ring = f"R(n=2,h=1,field=F{p})"
    code, out = dispatch(["exp-build", "--ring", ring, "--coeff", f"{p**k}:1"])
    assert code == 0, out
    assert f"U^{2 * p**k}" in out
    assert dispatch(["exp-verify", "--ring", ring, "--map", out]) == (
        0, "relation: PASS\naxiom_i: PASS\naxiom_ii: PASS\nverified")


def test_results_that_would_not_parse_back_exit_2():
    # a printed element or map must parse back, so an exponent above 10^6 in
    # a result is an input error naming it, with or without --json
    ring = "R(n=3,h=1,field=F2)"
    message = "input error: result has x^1050000, whose exponent exceeds 1000000"
    for extra in ([], ["--json"]):
        assert dispatch(["normal-form", "--ring", ring, "--expr", "z^700000"] + extra) == (
            2, message)
    assert dispatch(["aut-apply", "--ring", ring, "--word", "E(x^999998)", "--expr", "z"]) == (
        2, "input error: result has x^1000001, whose exponent exceeds 1000000")
    assert dispatch(["exp-build", "--ring", "R(n=2,h=1,field=Q)", "--coeff", "1:x^999999"]) == (
        2, "input error: result has x^2000000, whose exponent exceeds 1000000")
    # at the bound the result prints and parses back
    code, out = dispatch(["normal-form", "--ring", ring, "--expr", "x^999997*z"])
    assert (code, out) == (0, "x^999997*z")
    assert dispatch(["aut-apply", "--ring", ring, "--word", "E(x^999997)", "--expr", "z"]) == (
        0, "x^1000000 + z")


def test_integers_past_the_str_digit_limit():
    # Python refuses int <-> str conversions past sys.get_int_max_str_digits()
    # (4300 by default); the kernel prints and parses such integers exactly
    # without touching that interpreter-wide limit
    limit = sys.get_int_max_str_digits()
    ring = "R(n=2,h=1,field=Q)"
    code, out = dispatch(["normal-form", "--ring", ring, "--expr", "2^15000"])
    assert (code, out) == (0, str(decimal.Decimal(2**15000)))
    assert len(out) == 4516
    code, out = dispatch(["normal-form", "--ring", ring, "--expr=-3^9000*(1/2)^15000*x"])
    assert (code, out) == (0, f"-{decimal.Decimal(3**9000)}/{decimal.Decimal(2**15000)}*x")
    literal = "1" + "0" * 4999 + "7"
    code, out = dispatch(["normal-form", "--ring", ring, "--expr", literal + "*y - 10"])
    assert (code, out) == (0, f"{literal}*y - 10")
    code, out = dispatch(["normal-form", "--ring", "R(n=2,h=1,field=F7)", "--expr", literal])
    assert (code, out) == (0, str((10**5000 + 7) % 7))
    assert sys.get_int_max_str_digits() == limit


def test_exp_build_and_degree_and_derive():
    ring = "R(n=2,h=1,field=Q)"
    code, out = dispatch(["exp-build", "--ring", ring, "--coeff", "1:1"])
    assert code == 0
    assert out == "x -> x; y -> x^2*U^2 + 2*z*U + y + U; z -> x^2*U + z"
    mapping = "x->x; z->z+x^2*U; y->y+(2*z+1)*U+x^2*U^2"
    code, out = dispatch(
        ["exp-degree", "--ring", ring, "--map", mapping, "--expr", "y"]
    )
    assert (code, out) == (0, "2")
    code, out = dispatch(
        ["derive", "--ring", ring, "--map", mapping, "--expr", "y", "--order", "2"]
    )
    assert (code, out) == (0, "x^2")


def test_homogenize_derives_the_target():
    # w weighs every term of the relation alike, so gr_w(R) is R itself
    code, out = dispatch(["homogenize", "--ring", _Q2, "--map", _MAP,
                          "--weights", "w{x:0, y:0, z:0}"])
    assert (code, out.splitlines()[:3]) == (0, [
        "grdeg(U) = 0", "target = R(n=2, h=1, field=Q)",
        "bar map: x -> x; y -> x^2*U^2 + 2*z*U + y + U; z -> x^2*U + z"])
    # the target follows from the ring and the weights; naming one is a usage error
    code, out = dispatch(["homogenize", "--ring", _Q2, "--map", _MAP, "--weights", _W,
                          "--target", "R(n=2,h=0,field=Q,graded)"])
    assert (code, out) == (2, "usage error: unrecognized arguments: --target "
                              "R(n=2,h=0,field=Q,graded)")


def test_homogenize_stages_chain_through_the_cli():
    # stage two reads the ring and the bar map that stage one prints
    code, out = dispatch(["homogenize", "--ring", "R(n=3,h=1,field=Q)",
                          "--map", "x->x; z->z+x^3*U; y->y+(2*z+1)*U+x^3*U^2",
                          "--weights", "w{x:0, y:2, z:1}"])
    lines = out.splitlines()
    assert (code, lines[1]) == (0, "target = R(n=3, h=0, field=Q, graded)")
    ring = lines[1].removeprefix("target = ")
    bar_map = lines[2].removeprefix("bar map: ")
    assert bar_map == "x -> x; y -> x^3*U^2 + 2*z*U + y; z -> x^3*U + z"
    code, out = dispatch(["homogenize", "--ring", ring, "--map", bar_map,
                          "--weights", "w{x:-1, y:3, z:0}"])
    assert (code, out) == (0, "grdeg(U) = 3\ntarget = R(n=3, h=0, field=Q, graded)\n"
                              f"bar map: {bar_map}\nS(x) = {{0}}\nS(y) = {{0, 1, 2}}\n"
                              "S(z) = {0, 1}")


def test_homogenize_command():
    ring = "R(n=2,h=1,field=Q)"
    mapping = "x->x; z->z+x^2*U; y->y+(2*z+1)*U+x^2*U^2"
    code, out = dispatch(
        ["homogenize", "--ring", ring, "--map", mapping, "--weights", "w{x:0, y:2, z:1}"]
    )
    assert code == 0
    assert "grdeg(U) = 1" in out
    assert "bar map: x -> x; y -> x^2*U^2 + 2*z*U + y; z -> x^2*U + z" in out
    assert "S(y) = {0, 1, 2}" in out


def test_aut_commands():
    ring = "R(n=2,h=1,field=Q)"
    code, out = dispatch(["aut-compose", "--ring", ring, "--word", "T * T"])
    assert (code, out) == (0, "(mu=1, sigma=+1, f=0)")
    code, out = dispatch(["aut-decompose", "--ring", ring, "--word", "T * E(1)"])
    assert code == 0
    assert out == "L(1) * T * E(1)"
    # conjugating a shear through T negates it
    code, out = dispatch(["aut-decompose", "--ring", ring, "--word", "E(1) * T"])
    assert code == 0
    assert out == "L(1) * T * E(-1)"
    code, out = dispatch(
        ["aut-apply", "--ring", ring, "--word", "E(1)", "--expr", "z"]
    )
    assert (code, out) == (0, "x^2 + z")
    code, out = dispatch(["aut-structure", "--ring", "R(n=2,h=1+x,field=Q)"])
    assert code == 0
    assert "m = 1" in out and "H = C2" in out


def test_cancel_verify_command():
    code, out = dispatch(["cancel-verify", "--n1", "2", "--n2", "3", "--field", "F2"])
    assert code == 0
    for name in ("exponential", "embedded_relation", "slice_action", "linear_form"):
        assert f"{name}: PASS" in out
    assert "s = x*T^2 + y" in out


def test_cancel_verify_verifies_once(monkeypatch):
    import dansurf.cancellation

    calls = []
    original = dansurf.cancellation.verify_witness

    def counting(w):
        calls.append(w)
        return original(w)

    # rebind every dansurf name for the function, so no caller escapes the count
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dansurf" and vars(module).get("verify_witness") is original:
            monkeypatch.setattr(module, "verify_witness", counting)
    code, _ = dispatch(["cancel-verify", "--n1", "2", "--n2", "3", "--field", "F2"])
    assert code == 0
    assert len(calls) == 1


def test_aut_structure_does_not_list_l(monkeypatch):
    import dansurf.scalars

    calls = []
    original = dansurf.scalars.nth_roots

    def counting(c, d):
        calls.append(d)
        return original(c, d)

    # rebind every dansurf name for the function, so no caller escapes the count
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dansurf" and vars(module).get("nth_roots") is original:
            monkeypatch.setattr(module, "nth_roots", counting)
    for ring, order in (("R(n=5,h=1+x^3,field=F7)", "order 3"),
                        ("R(n=3,h=1+x^2,field=Q)", "order 2"),
                        ("R(n=1000001,h=1+x^1000000,field=F22000001)", "order 1000000")):
        code, out = dispatch(["aut-structure", "--ring", ring])
        assert code == 0 and f"L = cyclic of {order}" in out, out
    assert calls == []


def test_json_envelopes():
    code, out = dispatch(
        ["iso-check", "--left", "R(n=2,h=1,field=Q)", "--right",
         "R(n=2,h=2,field=Q)", "--json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["command"] == "iso-check"
    assert data["result"]["isomorphic"] is True
    assert data["result"]["eta"] == "2"
    code, out = dispatch(
        ["cancel-verify", "--n1", "2", "--n2", "3", "--field", "Q", "--json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["result"]["passed"] is True
    assert len(data["checks"]) == 7
    assert all(c["pass"] for c in data["checks"])


def test_word_decompose_roundtrip_via_cli():
    ring = "R(n=2,h=1,field=Q)"
    word = "L(3) * E(x) * T * E(1+x)"
    code, out = dispatch(["aut-decompose", "--ring", ring, "--word", word])
    assert code == 0
    code2, out2 = dispatch(["aut-compose", "--ring", ring, "--word", out])
    code3, out3 = dispatch(["aut-compose", "--ring", ring, "--word", word])
    assert code2 == code3 == 0
    assert out2 == out3


_Q2 = "R(n=2,h=1,field=Q)"
_MAP = "x->x; z->z+x^2*U; y->y+(2*z+1)*U+x^2*U^2"
_BAD_MAP = "x->x; z->z+x*U; y->y"
_BAD_RELATION = "image of the relation is -x^2*U^2 - 2*x*z*U - x*U, not 0"
_PASS_CHECK = '{{"name": "{}", "pass": true, "detail": ""}}'
# z -> z + 1/2*x^2*U^2 keeps the relation but not the coaction law, and the
# involution z -> -z - 1 has no U at all, so it fails axiom_i and axiom_ii
_SQUARE_MAP = "x->x; z->z+1/2*x^2*U^2; y->y+(z+1/2)*U^2+1/4*x^2*U^4"
_SQUARE_DETAIL = (
    "y: phi_S(phi_U) = 1/4*x^2*U^4 + 1/2*x^2*U^2*S^2 + 1/4*x^2*S^4 + z*U^2 + z*S^2 "
    "+ 1/2*U^2 + 1/2*S^2 + y but phi_(S+U) = 1/4*x^2*U^4 + x^2*U^3*S + 3/2*x^2*U^2*S^2 "
    "+ x^2*U*S^3 + 1/4*x^2*S^4 + z*U^2 + 2*z*U*S + z*S^2 + 1/2*U^2 + U*S + 1/2*S^2 + y; "
    "z: phi_S(phi_U) = 1/2*x^2*U^2 + 1/2*x^2*S^2 + z but phi_(S+U) = 1/2*x^2*U^2 "
    "+ x^2*U*S + 1/2*x^2*S^2 + z")
_INVOLUTION_MAP = "x->x; z->-z-1; y->y"
_INVOLUTION_AXIOM_II = "z: phi_S(phi_U) = z but phi_(S+U) = -z - 1"
_CANCEL_CHECKS = ("exponential", "embedded_relation", "recovered_relation", "invariance",
                  "slice_action", "linear_form", "slice_generates")

# (argv, exit code, text output, --json output): every command, a failing
# verification, an algebra error and two input errors, byte for byte.
GOLDEN = [
    (["normal-form", "--ring", "R(n=2,h=1,field=F2)", "--expr", "z^2+z"], 0,
     "x^2*y",
     '{"command": "normal-form", "inputs": {"ring": "R(n=2, h=1, field=F2)", '
     '"expr": "z^2+z"}, "result": "x^2*y", "checks": []}'),
    (["exp-build", "--ring", _Q2, "--coeff", "1:1+x"], 0,
     "x -> x; y -> x^4*U^2 + 2*x^3*U^2 + x^2*U^2 + 2*x*z*U + 2*z*U + x*U + y + U; "
     "z -> x^3*U + x^2*U + z",
     '{"command": "exp-build", "inputs": {"ring": "R(n=2, h=1, field=Q)", '
     '"coeff": ["1:1+x"]}, "result": "x -> x; y -> x^4*U^2 + 2*x^3*U^2 + x^2*U^2 '
     '+ 2*x*z*U + 2*z*U + x*U + y + U; z -> x^3*U + x^2*U + z", "checks": []}'),
    (["exp-verify", "--ring", _Q2, "--map", _MAP], 0,
     "relation: PASS\naxiom_i: PASS\naxiom_ii: PASS\nverified",
     '{"command": "exp-verify", "inputs": {"ring": "R(n=2, h=1, field=Q)", '
     f'"map": "{_MAP}"}}, "result": "verified", "checks": ['
     + ", ".join(_PASS_CHECK.format(n) for n in ("relation", "axiom_i", "axiom_ii"))
     + "]}"),
    (["exp-verify", "--ring", _Q2, "--map", _BAD_MAP], 1,
     f"relation: FAIL {_BAD_RELATION}\naxiom_i: PASS\naxiom_ii: PASS\nfailed",
     '{"command": "exp-verify", "inputs": {"ring": "R(n=2, h=1, field=Q)", '
     f'"map": "{_BAD_MAP}"}}, "result": "failed", "checks": [{{"name": "relation", '
     f'"pass": false, "detail": "{_BAD_RELATION}"}}, '
     + ", ".join(_PASS_CHECK.format(n) for n in ("axiom_i", "axiom_ii"))
     + "]}"),
    (["exp-verify", "--ring", _Q2, "--map", _SQUARE_MAP], 1,
     f"relation: PASS\naxiom_i: PASS\naxiom_ii: FAIL {_SQUARE_DETAIL}\nfailed",
     '{"command": "exp-verify", "inputs": {"ring": "R(n=2, h=1, field=Q)", '
     f'"map": "{_SQUARE_MAP}"}}, "result": "failed", "checks": ['
     + ", ".join(_PASS_CHECK.format(n) for n in ("relation", "axiom_i"))
     + f', {{"name": "axiom_ii", "pass": false, "detail": "{_SQUARE_DETAIL}"}}]}}'),
    (["exp-verify", "--ring", _Q2, "--map", _INVOLUTION_MAP], 1,
     f"relation: PASS\naxiom_i: FAIL z -> -z - 1\naxiom_ii: FAIL {_INVOLUTION_AXIOM_II}"
     "\nfailed",
     '{"command": "exp-verify", "inputs": {"ring": "R(n=2, h=1, field=Q)", '
     f'"map": "{_INVOLUTION_MAP}"}}, "result": "failed", "checks": ['
     + _PASS_CHECK.format("relation")
     + ', {"name": "axiom_i", "pass": false, "detail": "z -> -z - 1"}, '
     f'{{"name": "axiom_ii", "pass": false, "detail": "{_INVOLUTION_AXIOM_II}"}}]}}'),
    (["exp-degree", "--ring", _Q2, "--map", _MAP, "--expr", "y"], 0,
     "2",
     '{"command": "exp-degree", "inputs": {"ring": "R(n=2, h=1, field=Q)", '
     f'"map": "{_MAP}", "expr": "y"}}, "result": "2", "checks": []}}'),
    (["exp-degree", "--ring", _Q2, "--map", _BAD_MAP, "--expr", "y"], 1,
     f"error: candidate images are not an exponential map: relation: {_BAD_RELATION}",
     f"error: candidate images are not an exponential map: relation: {_BAD_RELATION}"),
    (["derive", "--ring", _Q2, "--map", _MAP, "--expr", "y", "--order", "2"], 0,
     "x^2",
     '{"command": "derive", "inputs": {"ring": "R(n=2, h=1, field=Q)", '
     f'"map": "{_MAP}", "expr": "y", "order": 2}}, "result": "x^2", "checks": []}}'),
    (["homogenize", "--ring", _Q2, "--map", _MAP, "--weights", "w{x:0, y:2, z:1}"], 0,
     "grdeg(U) = 1\ntarget = R(n=2, h=0, field=Q, graded)\n"
     "bar map: x -> x; y -> x^2*U^2 + 2*z*U + y; z -> x^2*U + z\n"
     "S(x) = {0}\nS(y) = {0, 1, 2}\nS(z) = {0, 1}",
     '{"command": "homogenize", "inputs": {"ring": "R(n=2, h=1, field=Q)", '
     f'"map": "{_MAP}", "weights": "w{{x:0, y:2, z:1}}", '
     '"target": "R(n=2, h=0, field=Q, graded)"}, "result": {"parameter_weight": "1", '
     '"bar_map": "x -> x; y -> x^2*U^2 + 2*z*U + y; z -> x^2*U + z", '
     '"s_sets": {"x": [0], "y": [0, 1, 2], "z": [0, 1]}}, "checks": []}'),
    (["aut-apply", "--ring", _Q2, "--word", "E(1)", "--expr", "z"], 0,
     "x^2 + z",
     '{"command": "aut-apply", "inputs": {"ring": "R(n=2, h=1, field=Q)", '
     '"word": "E(1)", "expr": "z"}, "result": "x^2 + z", "checks": []}'),
    (["aut-compose", "--ring", _Q2, "--word", "L(3) * E(x) * T * E(1+x)"], 0,
     "(mu=3, sigma=-1, f=9*x^2 - 1)",
     '{"command": "aut-compose", "inputs": {"ring": "R(n=2, h=1, field=Q)", '
     '"word": "L(3) * E(x) * T * E(1+x)"}, "result": "(mu=3, sigma=-1, f=9*x^2 - 1)", '
     '"checks": []}'),
    (["aut-decompose", "--ring", _Q2, "--word", "E(1) * T"], 0,
     "L(1) * T * E(-1)",
     '{"command": "aut-decompose", "inputs": {"ring": "R(n=2, h=1, field=Q)", '
     '"word": "E(1) * T"}, "result": "L(1) * T * E(-1)", "checks": []}'),
    (["aut-structure", "--ring", "R(n=2,h=1+x,field=Q)"], 0,
     "m = 1\nL = trivial (order 1)\nH = C2\nN = additive group of k[x] (shears E_f)",
     '{"command": "aut-structure", "inputs": {"ring": "R(n=2, h=x + 1, field=Q)"}, '
     '"result": {"m": 1, "l_order": 1, "l": "trivial", "h": "C2", '
     '"n": "additive group of k[x] (shears E_f)"}, "checks": []}'),
    (["iso-check", "--left", "R(n=2,h=1+x,field=Q)", "--right", "R(n=2,h=2+4*x,field=Q)"], 0,
     '{"isomorphic": true, "eta": "2", "mu": "2", "reason": "ok"}',
     '{"command": "iso-check", "inputs": {"left": "R(n=2, h=x + 1, field=Q)", '
     '"right": "R(n=2, h=4*x + 2, field=Q)"}, "result": {"isomorphic": true, '
     '"eta": "2", "mu": "2", "reason": "ok"}, "checks": [{"name": "witness_relation", '
     '"pass": true, "detail": "x -> 2*x; y -> 1/16*y; z -> 1/2*z"}]}'),
    (["iso-check", "--left", _Q2, "--right", "R(n=3,h=1,field=Q)"], 0,
     '{"isomorphic": false, "eta": null, "mu": null, "reason": "n_mismatch"}',
     '{"command": "iso-check", "inputs": {"left": "R(n=2, h=1, field=Q)", '
     '"right": "R(n=3, h=1, field=Q)"}, "result": {"isomorphic": false, "eta": null, '
     '"mu": null, "reason": "n_mismatch"}, "checks": []}'),
    (["cancel-verify", "--n1", "2", "--n2", "3", "--field", "F2"], 0,
     "".join(f"{n}: PASS\n" for n in _CANCEL_CHECKS) + "s = x*T^2 + y",
     '{"command": "cancel-verify", "inputs": {"n1": 2, "n2": 3, "field": "F2"}, '
     '"result": {"passed": true, "s": "x*T^2 + y"}, "checks": ['
     + ", ".join(_PASS_CHECK.format(n) for n in _CANCEL_CHECKS) + "]}"),
    (["cancel-verify", "--n1", "2", "--n2", "5"], 2,
     "input error: need 2 <= n1 < n2 <= 2*n1; got n1=2, n2=5",
     "input error: need 2 <= n1 < n2 <= 2*n1; got n1=2, n2=5"),
    (["normal-form", "--ring", _Q2, "--expr", "2x"], 2,
     "input error: unexpected 'x' (offset 1)",
     "input error: unexpected 'x' (offset 1)"),
]


@pytest.mark.parametrize("argv, code, text, json_text", GOLDEN,
                         ids=[" ".join(case[0][:1] + case[0][-1:]) for case in GOLDEN])
def test_golden_output(argv, code, text, json_text):
    assert dispatch(argv) == (code, text)
    assert dispatch(argv + ["--json"]) == (code, json_text)


_W = "w{x:0, y:2, z:1}"
_FREE = "R(n=2,h=0,field=Q,free)"
# Arguments outside the documented domain exit 2 with the kernel's message;
# a ring-spec condition is reported at the n= or h= value and an
# inadmissible L(mu) at its factor.  Failed verifications still exit 1.
_INPUT_ERRORS = [
    (["derive", "--ring", _Q2, "--map", _MAP, "--expr", "y", "--order", "-1"],
     "derivation index must be a natural number"),
    (["aut-compose", "--ring", _Q2, "--word", "L(0)"], "mu must be a unit (offset 0)"),
    (["aut-compose", "--ring", "R(n=2,h=1+x,field=Q)", "--word", "T * L(-1)"],
     "h(-1*x) != h(x) (offset 4)"),
    (["homogenize", "--ring", _Q2, "--map", _MAP, "--weights", "w{x:0, y:2}"],
     "weight vector does not assign a weight to 'z' (offset 10)"),
    (["homogenize", "--ring", _Q2, "--map", _MAP, "--weights", "w{x:0, y:2, z:1, q:1}"],
     "unknown variable 'q' in weight vector (offset 17)"),
    (["homogenize", "--ring", _Q2, "--map", _MAP, "--weights", "w{x:1, y:2, z:1}"],
     "the top part x^2*y of the relation under w{z:1, y:2, x:1} is neither the relation "
     "nor x^2*y - z^2"),
    (["homogenize", "--ring", _Q2, "--map", "x->x; y->y; z->z", "--weights", _W],
     "the map is trivial; no derivation coefficient is nonzero"),
    (["homogenize", "--ring", _Q2, "--map", _MAP, "--weights", "w{x:3, y:2, z:1, x:0}"],
     "repeated weight for x (offset 17)"),
    (["iso-check", "--left", _Q2, "--right", "R(n=2,h=1,field=F3)"],
     "rings over different fields"),
    (["normal-form", "--ring", "R(n=0,h=1,field=Q)", "--expr", "z"],
     "n must be at least 2, got 0 (offset 4)"),
    (["normal-form", "--ring", "R(n=2,h=x,field=Q)", "--expr", "z"],
     "h(0) must be nonzero (offset 8)"),
    (["normal-form", "--ring", "R(n=2,h=1+x^2,field=Q)", "--expr", "z"],
     "deg_x(h) = 2 >= n = 2; apply reduce_presentation (offset 8)"),
    (["normal-form", "--ring", "R(n=2, h=y, field=Q)", "--expr", "z"],
     "h must be a polynomial in x alone (offset 9)"),
    (["normal-form", "--ring", "R(n=2,h=1,field=Q,graded)", "--expr", "z"],
     "graded and free specs require h = 0 (offset 8)"),
    (["normal-form", "--ring", "R(n=2,h=0,field=Q,graded,free)", "--expr", "z"],
     "a spec cannot be both graded and free (offset 8)"),
    (["normal-form", "--ring", _FREE, "--expr", "z^2"], "free spec admits no z^2 reduction"),
    (["exp-build", "--ring", _Q2, "--coeff", "0:1"],
     "U-exponent 0 is not allowed in characteristic 0"),
    (["exp-build", "--ring", _Q2, "--coeff", "1:y"],
     "coefficient polynomials must involve x alone"),
    (["exp-build", "--ring", _FREE, "--coeff", "1:1"],
     "relation solving needs a spec with a relation"),
    (["exp-verify", "--ring", _Q2, "--map", "x->x; z->z+S; y->y"],
     "images must not involve the reserved parameter S"),
    (["derive", "--ring", _Q2, "--map", _MAP, "--expr", "U", "--order", "1"],
     "apply expects a U-free element"),
    (["exp-degree", "--ring", _Q2, "--map", _MAP, "--expr", "U"],
     "apply expects a U-free element"),
    (["aut-apply", "--ring", "R(n=2,h=0,field=Q,graded)", "--word", "L(2) * T", "--expr", "z"],
     "automorphism triples are defined for standard specs"),
    (["cancel-verify", "--n1", "2", "--n2", "9"], "need 2 <= n1 < n2 <= 2*n1; got n1=2, n2=9"),
    (["cancel-verify", "--n1", "1", "--n2", "2"], "need 2 <= n1 < n2 <= 2*n1; got n1=1, n2=2"),
    (["cancel-verify", "--n1", "2", "--n2", "3", "--field", "F0"],
     "bad field spec 'F0': characteristic 0 is written Q (offset 0)"),
]
_VERIFICATION_FAILURES = [
    (["exp-verify", "--ring", _Q2, "--map", _BAD_MAP],
     f"relation: FAIL {_BAD_RELATION}\naxiom_i: PASS\naxiom_ii: PASS\nfailed"),
    (["exp-degree", "--ring", _Q2, "--map", _BAD_MAP, "--expr", "y"],
     f"error: candidate images are not an exponential map: relation: {_BAD_RELATION}"),
    (["homogenize", "--ring", _Q2, "--map", _BAD_MAP, "--weights", _W],
     f"error: candidate images are not an exponential map: relation: {_BAD_RELATION}"),
]


@pytest.mark.parametrize(
    "argv, code, text",
    [(argv, 2, "input error: " + message) for argv, message in _INPUT_ERRORS]
    + [(argv, 1, text) for argv, text in _VERIFICATION_FAILURES],
    ids=[f"{i}-{argv[0]}" for i, (argv, _) in enumerate(_INPUT_ERRORS + _VERIFICATION_FAILURES)])
def test_exit_codes_sort_input_errors_from_failures(argv, code, text):
    assert dispatch(argv) == (code, text)


def test_free_spec_refuses_z_squared_in_a_group_product():
    # the images of x and y multiply inside one substitution group, where
    # their z-parts meet as z^2
    argv = ["exp-degree", "--ring", _FREE, "--map", "x->x+z*U; y->y+z*U", "--expr", "x*y"]
    assert dispatch(argv) == (2, "input error: product needs z^2, which a free spec cannot reduce")


def test_error_taxonomy(monkeypatch):
    import dansurf.cli
    import dansurf.errors as errors

    classes = {name: cls for name, cls in vars(errors).items() if isinstance(cls, type)}
    assert {name: cls.__bases__ for name, cls in classes.items()} == {
        "AlgebraError": (Exception,),
        "InputError": (errors.AlgebraError,),
        "ParseError": (errors.InputError,),
        "NotDivisible": (errors.AlgebraError,),
        "NotCanonicalShape": (errors.AlgebraError,),
    }
    for cls in classes.values():
        exc = cls("boom", 3) if cls is errors.ParseError else cls("boom")

        def fail(args, exc=exc):
            raise exc

        monkeypatch.setitem(dansurf.cli._HANDLERS, "aut-structure", (fail, "--ring"))
        code, out = dispatch(["aut-structure", "--ring", _Q2])
        if issubclass(cls, errors.InputError):
            assert (code, out) == (2, f"input error: {exc}")
        else:
            assert (code, out) == (1, "error: boom")


def test_roots_over_large_primes():
    # p > 10^4 was refused while roots were found by scanning F_p*
    for ring, m, order in (("R(n=3,h=1+x^2,field=F10007)", 2, 2),
                           ("R(n=7,h=1+x^6,field=F2147483647)", 6, 6)):
        code, out = dispatch(["aut-structure", "--ring", ring])
        assert (code, out.splitlines()[:2]) == (
            0, [f"m = {m}", f"L = cyclic of order {order} (order {order})"])
    code, out = dispatch(["iso-check", "--left", "R(n=3,h=1+x^2,field=F10007)",
                          "--right", "R(n=3,h=2+x^2,field=F10007)"])
    verdict = json.loads(out)
    assert (code, verdict["isomorphic"], verdict["eta"]) == (0, True, "2")
    mu = int(verdict["mu"])
    assert 2 * mu * mu % 10007 == 1 and mu < 10007 - mu  # the smaller root of 2*mu^2 = 1


_F2_COEFFS = ["exp-build", "--ring", "R(n=2,h=1,field=F2)", "--coeff", "1:1", "--coeff", "2:x"]
_F2_COEFFS_MAP = "x -> x; y -> x^4*U^4 + x^2*U^2 + x*U^2 + y + U; z -> x^3*U^2 + x^2*U + z"
# Cases beside GOLDEN that exercise the parser's state: an append action and
# usage errors raised part-way through parsing.
_PARSER_CASES = [
    (_F2_COEFFS, 0, _F2_COEFFS_MAP),
    (_F2_COEFFS + ["--json"], 0,
     '{"command": "exp-build", "inputs": {"ring": "R(n=2, h=1, field=F2)", '
     f'"coeff": ["1:1", "2:x"]}}, "result": "{_F2_COEFFS_MAP}", "checks": []}}'),
    (["exp-build", "--ring", _Q2], 2,
     "usage error: the following arguments are required: --coeff"),
    (["derive", "--ring", _Q2, "--map", _MAP, "--expr", "y", "--order", "two"], 2,
     "usage error: argument --order: invalid int value: 'two'"),
    (["aut-structure", "--ring", _Q2, "--scan-bound", "5"], 2,
     "usage error: unrecognized arguments: --scan-bound 5"),
]


def test_shared_parser_leaves_no_state():
    # dispatch parses with one parser per process: run every case twice, in
    # shuffled order, and each output must match its single-run expectation
    cases = [(argv, code, text) for argv, code, text, _ in GOLDEN]
    cases += [(argv + ["--json"], code, json_text) for argv, code, _, json_text in GOLDEN]
    cases += _PARSER_CASES
    order = cases * 2
    random.Random(7).shuffle(order)
    for argv, code, text in order:
        assert dispatch(argv) == (code, text), argv


_HELP = [
    ["-h"],
    ["normal-form", "-h"],
    ["normal-form", "--ring", "R(n=2,h=1,field=Q)", "--help"],
]


@pytest.mark.parametrize("argv", _HELP)
def test_help_is_returned_not_printed(argv, capsys):
    code, text = dispatch(argv)
    assert capsys.readouterr().out == ""
    command = " normal-form" if "normal-form" in argv else ""
    assert code == 0 and text.startswith(f"usage: dansurf{command} [-h]")
    assert "show this help message and exit" in text and not text.endswith("\n")
    # main() prints the text argparse prints, which ends in one newline
    assert main(argv) == 0
    assert capsys.readouterr().out == text + "\n"


def _assert_no_cyclic_garbage(args):
    dispatch(args)
    gc.collect()
    gc.disable()
    try:
        dispatch(args)
        dispatch(args)
        assert gc.collect() == 0, args
    finally:
        gc.enable()


@pytest.mark.parametrize("argv", [argv for argv, *_ in GOLDEN], ids=lambda argv: argv[0])
def test_dispatch_leaves_no_cyclic_garbage(argv):
    # a spec keeps no element and a field no scalar that points back at it,
    # and a help formatter unlinks its sections, so every command's objects
    # are freed by reference counts alone
    for args in (argv, argv + ["--json"], [argv[0], "-h"], [argv[0], "--help"]):
        _assert_no_cyclic_garbage(args)


_REFUSALS = [
    (["normal-form", "--ring", "R(n=2,h=1,field=Q)"],
     "usage error: the following arguments are required: --expr"),
    (["no-such-command"], "usage error: argument command: invalid choice: 'no-such-command'"),
    (["derive", "--ring", "R(n=2,h=1,field=Q)", "--map", _MAP, "--expr", "y", "--order", "1.5"],
     "usage error: argument --order: invalid int value: '1.5'"),
    (["normal-form", "--ring", "R(n=2,h=1,field=Q)", "--expr", "x^"],
     "input error: expected a natural-number exponent (offset 2)"),
    (["normal-form", "--ring", "R(n=1,h=1,field=Q)", "--expr", "z^2"],
     "input error: n must be at least 2, got 1 (offset 4)"),
]


@pytest.mark.parametrize("argv, message", _REFUSALS,
                         ids=["missing-argument", "unknown-command", "order-1.5", "expr-x^",
                              "ring-n=1"])
def test_refusals_leave_no_cyclic_garbage(argv, message):
    # a usage or input error unwinds through the parser and the argument
    # parser without leaving a cycle (an exception's traceback holds frames)
    code, text = dispatch(argv)
    assert code == 2 and text.startswith(message), text
    for args in (argv, argv + ["--json"]):
        _assert_no_cyclic_garbage(args)


_NORMAL_FORM = ["normal-form", "--ring", "R(n=2,h=1+x,field=F3)", "--expr", "z^2 - x"]


def test_import_footprint():
    # without site (python -S), which may preload modules, a text command
    # loads neither dataclasses, inspect, typing nor argparse, and json only
    # once a command writes JSON; argparse loads for help, whose text is the
    # one it always gave (at 80 columns)
    script = "\n".join([
        "import sys",
        "from dansurf.cli import dispatch",
        f"assert dispatch({_NORMAL_FORM!r}) == (0, 'x^2*y + 2*x*z + 2*z + 2*x')",
        "print([m for m in ('dataclasses', 'inspect', 'typing', 'json', 'argparse')"
        " if m in sys.modules])",
        f"print(dispatch({_NORMAL_FORM + ['--json']!r})[1])",
        "print('argparse' in sys.modules)",
        "print(repr(dispatch(['normal-form', '-h'])))",
    ])
    src = os.path.dirname(os.path.dirname(dansurf.__file__))
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src, "COLUMNS": "80"}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]",
        '{"command": "normal-form", "inputs": {"ring": "R(n=2, h=x + 1, field=F3)", '
        '"expr": "z^2 - x"}, "result": "x^2*y + 2*x*z + 2*z + 2*x", "checks": []}',
        "False",
        repr((0, "usage: dansurf normal-form [-h] [--json] --ring RING --expr EXPR\n\n"
                 "options:\n"
                 "  -h, --help   show this help message and exit\n"
                 "  --json       emit the JSON envelope\n"
                 "  --ring RING\n"
                 "  --expr EXPR")),
    ]


def test_python_dash_m_runs_the_cli():
    # the package's __main__ runs the CLI only as the main module, so that
    # importing it (as a walk over the package's modules does) runs nothing
    src = os.path.dirname(os.path.dirname(dansurf.__file__))
    proc = subprocess.run([sys.executable, "-m", "dansurf", *_NORMAL_FORM], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "x^2*y + 2*x*z + 2*z + 2*x\n", "")


_HUGE = "9" * 5000  # past the interpreter's 4300-digit int-to-str limit
_HUGE_Q = f"R(n={_HUGE},h=1,field=Q)"
_THIRD = "1/3" + "0" * 5000  # its denominator is 0 in F3


@pytest.mark.parametrize("argv, code, expected", [
    (["normal-form", "--ring", _HUGE_Q, "--expr", "z^2"], 2,
     f"input error: result has x^{_HUGE}, whose exponent exceeds 1000000"),
    (["exp-build", "--ring", _HUGE_Q, "--coeff", "1:1"], 2,
     f"input error: result has x^{_HUGE}, whose exponent exceeds 1000000"),
    (["aut-compose", "--ring", _HUGE_Q, "--word", "E(1)"], 0,
     f"(mu=1, sigma=+1, f=x^{_HUGE})"),
    (["iso-check", "--left", _HUGE_Q, "--right", _HUGE_Q, "--json"], 0,
     f'"inputs": {{"left": "R(n={_HUGE}, h=1, field=Q)", "right": "R(n={_HUGE}, h=1, field=Q)"}}'),
    (["aut-structure", "--ring", _HUGE_Q, "--json"], 0,
     f'"inputs": {{"ring": "R(n={_HUGE}, h=1, field=Q)"}}'),
    (["cancel-verify", "--n1", _HUGE, "--n2", "3"], 2,
     f"input error: need 2 <= n1 < n2 <= 2*n1; got n1={_HUGE}, n2=3"),
    (["cancel-verify", "--n1", "2", "--n2", _HUGE], 2,
     f"input error: need 2 <= n1 < n2 <= 2*n1; got n1=2, n2={_HUGE}"),
    (["exp-build", "--ring", _Q2, "--coeff", f"-{_HUGE}:1"], 2,
     f"input error: U-exponent -{_HUGE} is not allowed in characteristic 0"),
    (["normal-form", "--ring", f"R(n=-{_HUGE},h=1,field=Q)", "--expr", "x"], 2,
     f"input error: n must be at least 2, got -{_HUGE} (offset 4)"),
    (["normal-form", "--ring", "R(n=2,h=1,field=F3)", "--expr", _THIRD], 2,
     f"input error: denominator 3{'0' * 5000} is 0 in F3 (offset 0)"),
    (["normal-form", "--ring", f"R(n=2,h={_THIRD},field=F3)", "--expr", "x"], 2,
     f"input error: denominator 3{'0' * 5000} is 0 in F3 (offset 8)"),
    (["aut-compose", "--ring", "R(n=2,h=1,field=F3)", "--word", f"L({_THIRD})"], 2,
     f"input error: denominator 3{'0' * 5000} is 0 in F3 (offset 2)"),
    (["homogenize", "--ring", _Q2, "--map", _MAP, "--weights", f"w{{x:0, y:2{_HUGE}, z:1}}"], 2,
     f"of the relation under w{{z:1, y:2{_HUGE}, x:0}} is neither"),
    (["homogenize", "--ring", _Q2, "--map", _MAP,
      "--weights", f"w{{x:0, y:2/1{_HUGE}, z:1/1{_HUGE}}}"], 0, f"grdeg(U) = 1/1{_HUGE}\n"),
    (["normal-form", "--ring", _Q2, "--expr", f"x^{'0' * 5000}5"], 0, "x^5"),
], ids=["n-z2", "n-exp-build", "n-aut-compose", "n-iso-check", "n-aut-structure", "n1", "n2",
        "coeff-exponent", "negative-n", "F3-expr", "F3-h", "F3-word", "weight",
        "weight-denominator", "exponent-zeros"])
def test_integers_past_the_str_digit_limit_in_every_message(argv, code, expected):
    # every integer a result or a message carries prints in full, whatever
    # its length: no ValueError from int-to-str conversion escapes dispatch
    result = dispatch(argv)
    assert result[0] == code, result[1][:200]
    assert expected in result[1]


def test_derive_json_echoes_an_order_past_the_str_digit_limit():
    # the envelope carries the order's exact digits as a JSON number, and the
    # interpreter-wide digit limit stays as it is
    limit = sys.get_int_max_str_digits()
    argv = ["derive", "--ring", _Q2, "--map", _MAP, "--expr", "y", "--order", _HUGE]
    assert dispatch(argv) == (0, "0")
    code, out = dispatch(argv + ["--json"])
    assert code == 0 and f'"order": {_HUGE}}}, "result": "0"' in out
    envelope = json.loads(out, parse_int=digits_to_int)
    assert envelope["inputs"]["order"] == digits_to_int(_HUGE)
    assert sys.get_int_max_str_digits() == limit


def test_long_exponents_are_refused_before_conversion(monkeypatch):
    # a --coeff exponent, like an exponent in an expression, is refused by its
    # digit count: the long text is never converted to an int
    import dansurf.ioformats
    import dansurf.scalars

    seen = []
    convert = dansurf.scalars.digits_to_int

    def recording(text):
        seen.append(len(text))
        return convert(text)

    monkeypatch.setattr(dansurf.scalars, "digits_to_int", recording)
    monkeypatch.setattr(dansurf.ioformats, "digits_to_int", recording)
    # from a cold cache, so that the ring text is read (and its digits seen)
    dansurf.ioformats.parse_ring_spec.cache_clear()
    long = "9" * 400000
    assert dispatch(["exp-build", "--ring", _Q2, "--coeff", f"{long}:1"]) == (
        2, "input error: exponent of 400000 digits exceeds 1000000 (offset 0)")
    assert dispatch(["normal-form", "--ring", _Q2, "--expr", f"x^{long}"]) == (
        2, "input error: exponent of 400000 digits exceeds 1000000 (offset 2)")
    assert seen and max(seen) < 400000


# Argument lists beside the cases above, each with whether _read_argv reads
# it; the rest argparse reads, refuses or answers with help.
_ARGV_EDGES = [
    ([], False),
    (["normal-form"], False),
    (["--json", "normal-form", "--ring", _Q2, "--expr", "z"], False),
    (["normal-form", "--ring", _Q2, "--expr"], False),
    (["normal-form", "--ring", _Q2, "--ring", _Q2, "--expr", "z"], False),
    (["normal-form", "--ri", _Q2, "--expr", "z"], False),
    (["normal-form", "--ring=" + _Q2, "--expr", "z"], False),
    (["normal-form", "--ring", _Q2, "--expr", "-z"], False),
    (["normal-form", "--ring", _Q2, "--expr", "--json"], False),
    (["normal-form", "--ring", _Q2, "--expr", ""], True),
    (["normal-form", "--ring", _Q2, "--expr", " -z"], True),
    (["normal-form", "--ring", _Q2, "--expr", "z", "--json", "--json"], False),
    (["normal-form", "--ring", _Q2, "--expr", "z", "--", "x"], False),
    (["normal-form", "--ring", _Q2, "--expr", "z", "x"], False),
    (["normal-form", "--ring", _Q2, "--expr", "z", "-h"], False),
    (["normal-form", "--ring", _Q2, "--expr", "z", "--he"], False),
    (["NORMAL-FORM", "--ring", _Q2, "--expr", "z"], False),
    (["aut-structure", "--ring", _Q2, "--expr", "z"], False),
    (["exp-build", "--coeff", "1:1", "--ring", _Q2, "--coeff", "2:x", "--json"], True),
    (["exp-build", "--ring", _Q2, "--coeff", "-1:1"], False),
    (["cancel-verify", "--n2", "3", "--n1", "2"], True),
    (["cancel-verify", "--n1", "2", "--n2", "3", "--field", "F5", "--field", "Q"], False),
    (["cancel-verify", "--n1", "0002", "--n2", "3", "--json"], True),
    (["cancel-verify", "--n1", "2", "--n2", "\uff13"], False),
    (["cancel-verify", "--n1", "2", "--n2", "-3"], False),
    (["cancel-verify", "--n1", "2", "--n2", ""], False),
    (["derive", "--ring", _Q2, "--map", _MAP, "--expr", "y", "--order", _HUGE], True),
]


def _agrees_with_argparse(argv) -> bool:
    """Whether _read_argv reads argv, after checking that its namespace, if
    any, is the one argparse gives, value and type alike."""
    read = cli._read_argv(argv)
    try:
        expected = vars(cli._parser().parse_args(argv))
    except (cli.UsageError, cli._Help):
        expected = None
    if read is None:
        return False
    typed = {k: (type(v), v) for k, v in vars(read).items()}
    assert expected is not None and typed == {k: (type(v), v) for k, v in expected.items()}, argv
    return True


def test_argv_reader_matches_argparse():
    golden = [argv for argv, *_ in GOLDEN]
    for argv in golden + [argv + ["--json"] for argv in golden]:
        assert _agrees_with_argparse(argv), argv
    for argv, read in _ARGV_EDGES:
        assert _agrees_with_argparse(argv) == read, argv
    for argv in _HELP + [argv for argv, *_ in
                         _PARSER_CASES + _REFUSALS + _INPUT_ERRORS + _VERIFICATION_FAILURES]:
        _agrees_with_argparse(argv)


@settings(max_examples=100)
@given(argvs(), st.booleans(), st.booleans())
def test_argv_reader_matches_argparse_on_grammar_inputs(argv, as_json, split):
    # the grammar fuzz writes --expr=TEXT; written as two words too
    if split:
        argv = [w for a in argv for w in (a.split("=", 1) if a.startswith("--expr=") else [a])]
    _agrees_with_argparse(argv + ["--json"] if as_json else argv)


_BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _pass_argvs(workload, seed):
    """The argv of pass 0 of a bench/ workload, as bench/worker.py runs it."""
    sys.path.insert(0, _BENCH)
    try:
        from workloads import make_pass
    finally:
        sys.path.remove(_BENCH)
    for group in make_pass(workload, seed, 0):
        try:
            cmd = next(group)
            while True:
                yield cmd.argv
                cmd = group.send(dispatch(cmd.argv)[1])
        except StopIteration:
            pass
        finally:
            group.close()


@pytest.mark.skipif(not os.path.isdir(_BENCH), reason="bench/ is absent")
@pytest.mark.parametrize("workload", ["cli-mix", "charp-powers", "cylinder"])
def test_argv_reader_reads_every_workload_command(workload):
    for seed in (1, 2, 3):
        for argv in _pass_argvs(workload, seed):
            assert _agrees_with_argparse(argv), argv
