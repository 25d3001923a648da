"""Argument lists drawn from the input grammars, run through `dispatch`.

No exception escapes, every exit code is a documented one, a --json outcome
is JSON, and the outputs that are elements or maps parse back: `normal-form`
output fed to `normal-form` prints the same text, and `exp-build` output fed
to `exp-verify` verifies.  Sizes stay small: parentheses nest at most five
deep, exponents are small except on monomials near the 10^6 bound, and a
bound on the total degree keeps every power cheap.
"""

import json

from hypothesis import given, settings, strategies as st

from dansurf.cli import dispatch

FIELDS = ("Q", "F2", "F3", "F5", "F2147483647")
SCALARS = ("0", "1", "2", "7", "1/2", "3/4", "12345678901234567890")
# Monomials near the exponent bound, in the variables whose images stay
# monomials: the normal form of z^k over Q, the image of y^k under a map or
# an automorphism, and a power of a random x-image all grow with k, so no
# z or y appears here and maps draw none.
BIG = ("x^999999", "X^1000000", "T^500000", "U^999998", "S^1000001", "x^1000001")
MAX_DEPTH = 5


@st.composite
def expressions(draw, names="xyzTUSXYZ", depth=0, budget=6, big=True):
    """Text of an expression and a bound on its total degree (at most budget)."""
    pieces, top = [], 0
    for i in range(draw(st.integers(1, 3))):
        text, deg = draw(terms(names, depth, budget, big))
        sign = draw(st.sampled_from(("", "-") if i == 0 else (" + ", " - ")))
        pieces.append(sign + text)
        top = max(top, deg)
    return "".join(pieces), top


@st.composite
def terms(draw, names, depth, budget, big):
    factors, total = [], 0
    for _ in range(draw(st.integers(1, 3))):
        if total >= budget and factors:
            break
        text, deg = draw(factors_(names, depth, budget - total, big))
        factors.append(text)
        total += deg
    return "*".join(factors), total


@st.composite
def factors_(draw, names, depth, budget, big):
    kind = draw(st.sampled_from(("var", "scalar", "paren", "var", "paren", "big")))
    if kind == "big" and big:  # a power of x alone where only x is allowed
        monomial = draw(st.sampled_from(BIG))
        return (monomial if names != "x" else "x" + monomial[1:]), 1
    if kind == "paren" and depth < MAX_DEPTH and budget:
        text, deg = draw(expressions(names, depth + 1, budget, big))
        text = f"({text})"
    elif kind == "scalar":
        text, deg = draw(st.sampled_from(SCALARS)), 0
    else:
        text, deg = draw(st.sampled_from(names)), 1
    # a power keeps the degree within the budget (deg 0: any small exponent)
    top = 3 if deg == 0 else min(3, budget // deg)
    e = draw(st.integers(-1, top))
    if e < 0:
        return text, deg
    return f"{text}^{e}", deg * e


@st.composite
def rings(draw, field=None):
    """A ring spec (text, n, h), mostly valid: n >= 2 and deg h < n."""
    field = field or draw(st.sampled_from(FIELDS))
    n = draw(st.integers(2, 4))
    h = draw(st.sampled_from(("1", "1 + x", "2 - x", "1 + x^2", "3 + 2*x^3")[:n + 1]))
    flag = draw(st.sampled_from(("", "", "", "", "", "", ",graded", ",free")))
    if flag:
        h = "0"
    if draw(st.sampled_from((False,) * 9 + (True,))):  # anything the grammar allows
        h = draw(expressions("xy", budget=3))[0]
        n = draw(st.integers(0, 3))
    return f"R(n={n},h={h},field={field}{flag})", n, h


def standard_map(n, h):
    """The exponential map z -> z + x^n*U of R(n, h), written out."""
    return f"x -> x; z -> z + x^{n}*U; y -> y + (2*z + {h})*U + x^{n}*U^2"


@st.composite
def maps(draw, n, h):
    if not draw(st.booleans()):
        return standard_map(n, h)
    images = [f"{v} -> {draw(expressions('xyzU', budget=3, big=False))[0]}" for v in "xyz"]
    return "; ".join(draw(st.permutations(images)))


@st.composite
def words(draw):
    atoms = st.one_of(st.sampled_from(("T", "L(1)", "L(-1)", "L(2)", "L(0)")),
                      expressions("x", budget=3).map(lambda e: f"E({e[0]})"))
    return " * ".join(draw(st.lists(atoms, min_size=1, max_size=3)))


@st.composite
def weights(draw):
    values = st.sampled_from(("0", "1", "2", "-1", "1/2", "-3/5"))
    keys = draw(st.lists(st.sampled_from("xyzTU"), min_size=2, max_size=4, unique=True))
    return "w{" + ", ".join(f"{k}:{draw(values)}" for k in keys) + "}"


@st.composite
def argvs(draw):
    ring, n, h = draw(rings())
    expr = "--expr=" + draw(expressions())[0]  # one word, also for a leading '-'
    command = draw(st.sampled_from((
        "normal-form", "exp-build", "exp-verify", "exp-degree", "derive", "homogenize",
        "aut-apply", "aut-compose", "aut-decompose", "aut-structure", "iso-check",
        "cancel-verify")))
    if command == "normal-form":
        return [command, "--ring", ring, expr]
    if command == "exp-build":
        coeffs = draw(st.lists(st.tuples(
            st.sampled_from((1, 2, 3, 4, 5, 8, 9, 25, 0, 499999, 500000, 500001, 1000001)),
            expressions("x", budget=3)), min_size=1, max_size=2))
        argv = [command, "--ring", ring]
        for e, (poly, _) in coeffs:
            argv += ["--coeff", f"{e}:{poly}"]
        return argv
    if command in ("exp-verify", "exp-degree", "derive", "homogenize"):
        argv = [command, "--ring", ring, "--map", draw(maps(n, h))]
        if command == "homogenize":
            return argv + ["--weights", draw(weights())]
        if command == "exp-verify":
            return argv
        argv.append(expr)
        return argv + ["--order", str(draw(st.integers(-1, 3)))] if command == "derive" else argv
    if command.startswith("aut-"):
        argv = [command, "--ring", ring]
        if command == "aut-structure":
            return argv
        argv += ["--word", draw(words())]
        return argv + [expr] if command == "aut-apply" else argv
    if command == "iso-check":
        field = None if draw(st.booleans()) else ring.split("field=")[1].split(",")[0].rstrip(")")
        return [command, "--left", ring, "--right", draw(rings(field))[0]]
    n1, n2 = draw(st.sampled_from(((2, 3), (2, 4), (3, 4), (3, 6), (4, 5), (1, 2), (2, 5))))
    return [command, "--n1", str(n1), "--n2", str(n2),
            "--field", draw(st.sampled_from(FIELDS + ("F4",)))]


@settings(max_examples=300)
@given(argvs(), st.booleans())
def test_dispatch_on_grammar_inputs(argv, as_json):
    code, out = dispatch(argv + ["--json"] if as_json else argv)
    assert code in (0, 1, 2), (argv, code, out)
    if code == 2:
        assert out.startswith(("usage error: ", "input error: ")), (argv, out)
        return
    if as_json and not out.startswith("error: "):
        envelope = json.loads(out)
        assert envelope["command"] == argv[0]
        if argv[0] in ("normal-form", "exp-build"):
            out = envelope["result"]
    if code:
        return
    if argv[0] == "normal-form":
        assert dispatch(argv[:3] + [f"--expr={out}"]) == (0, out), argv
    elif argv[0] == "exp-build":
        back = dispatch(["exp-verify", "--ring", argv[2], "--map", out])
        assert back[0] == 0 and back[1].endswith("\nverified"), (argv, back)
