"""Seeded command streams for the three benchmark workloads.

A workload is a sequence of passes.  A pass is a list of groups, and a group
is a generator that yields `Cmd` objects and receives each command's output
text, so later commands of a group can be built from, or checked against,
earlier outputs (a map printed by `exp-build` is fed to `exp-verify`; the
normal form of r is the reference for the normal form of r + relation*g).

Every command carries the exit code it must return and a known-answer check.
The reference of each check comes from how the input was built, never from
the output of the command being checked.  This module does not import
dansurf: the program only ever sees the argv lists made here.

Each pass has a fixed shape (the same command kinds, rings and exponent
classes in the same counts); the seed picks coefficients, ring parameters
within a class, the order of the groups and the --json flags.  That keeps the
cost of a pass nearly the same from seed to seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

WORKLOADS = ("cli-mix", "charp-powers", "cylinder")

CANCEL_CHECKS = (
    "exponential",
    "embedded_relation",
    "recovered_relation",
    "invariance",
    "slice_action",
    "linear_form",
    "slice_generates",
)
VERIFY_CHECKS = ("relation", "axiom_i", "axiom_ii")
README_WEIGHTS = "w{x:0, y:2, z:1}"
N_MISMATCH = '{"isomorphic": false, "eta": null, "mu": null, "reason": "n_mismatch"}'


@dataclass
class Cmd:
    """One CLI invocation, the exit code it must return, and its check.

    `check` maps the output text to None when the output is right, or to a
    short reason when it is wrong.
    """

    argv: list
    code: int = 0
    check: Optional[Callable[[str], Optional[str]]] = None


# ---------------------------------------------------------------- scalars ---


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % f for f in range(2, math.isqrt(n) + 1))


def field_label(p: int) -> str:
    return "Q" if p == 0 else f"F{p}"


def reduce(v, p: int):
    return v % p if p else Fraction(v)


def fmt_scalar(v, p: int) -> str:
    """A scalar as the CLI prints it: a residue, an integer or a/b."""
    if p:
        return str(v % p)
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def rand_unit(rng: random.Random, p: int):
    if p:
        return rng.randrange(1, p)
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))


def roots_of_unity(m: int, p: int) -> list:
    """All mu with mu^m = 1 (brute force over F_p; +-1 over Q)."""
    if p:
        return [u for u in range(1, p) if pow(u, m, p) == 1]
    return [Fraction(1), Fraction(-1)] if m % 2 == 0 else [Fraction(1)]


# ------------------------------------------------------ polynomials in x ---


def xpoly(coeffs: dict, p: int) -> dict:
    """Normalise {degree: coefficient}, dropping zero coefficients."""
    out = {}
    for d, c in coeffs.items():
        c = reduce(c, p)
        if c:
            out[d] = c
    return out


def fmt_xpoly(coeffs: dict, p: int) -> str:
    """Canonical text of a polynomial in x: descending degree, unit
    coefficients elided except on the constant term, ' - ' for negatives."""
    pieces = []
    for d in sorted(coeffs, reverse=True):
        c = reduce(coeffs[d], p)
        if not c:
            continue
        negative = not p and c < 0
        mag = -c if negative else c
        mono = "" if d == 0 else ("x" if d == 1 else f"x^{d}")
        if not mono:
            body = fmt_scalar(mag, p)
        elif mag == 1:
            body = mono
        else:
            body = f"{fmt_scalar(mag, p)}*{mono}"
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f" - {body}" if negative else f" + {body}")
    return "".join(pieces) or "0"


def input_xpoly(coeffs: dict, p: int) -> str:
    """The same polynomial written in ascending order (not canonical), so a
    command that echoes it must really re-print it."""
    terms = []
    for d in sorted(coeffs):
        c = fmt_scalar(coeffs[d], p)
        terms.append(c if d == 0 else f"({c})*x^{d}")
    return " + ".join(terms) or "0"


def rand_xpoly(rng: random.Random, p: int, degrees) -> dict:
    return xpoly({d: rand_unit(rng, p) for d in degrees}, p)


def rand_h(rng: random.Random, p: int, n: int, support=None) -> dict:
    """A reduced h: nonzero constant term, degree below n."""
    if support is None:
        support = [0] + [d for d in range(1, n) if rng.random() < 0.5]
    return rand_xpoly(rng, p, support)


def ring(n: int, h: dict, p: int) -> str:
    return f"R(n={n},h={input_xpoly(h, p)},field={field_label(p)})"


def relation(n: int, h: dict, p: int) -> str:
    return f"(x^{n}*y - z^2 - ({input_xpoly(h, p)})*z)"


def rand_elem(rng: random.Random, p: int, terms: int, max_deg: int) -> str:
    """A random element of k[x,y,z] as input text (not canonical)."""
    out = []
    for _ in range(terms):
        c = fmt_scalar(rand_unit(rng, p), p)
        exps = [rng.randrange(0, max_deg + 1) for _ in range(3)]
        mono = "*".join(f"{v}^{e}" for v, e in zip("xyz", exps) if e)
        out.append(f"({c})*{mono}" if mono else f"({c})")
    return " + ".join(out)


# ----------------------------------------------------------------- checks ---


def _view(out: str, js: bool):
    return json.loads(out)["result"] if js else out


def expect_text(expected: str, js: bool = False):
    def check(out):
        got = _view(out, js)
        return None if got == expected else f"expected {expected[:80]!r}, got {str(got)[:80]!r}"
    return check


def expect_prefix(prefix: str, js: bool = False):
    def check(out):
        got = _view(out, js)
        return None if got.startswith(prefix) else f"expected prefix {prefix!r}, got {got[:80]!r}"
    return check


def expect_all_pass(names, js: bool, verdict: str):
    """Every named check reports PASS, in order.  In text mode the report is
    one `name: PASS` line per check and then `verdict`; in JSON mode the
    envelope's checks all pass and the result is `verdict` (exp-verify) or
    has passed = true (cancel-verify)."""
    def check(out):
        if js:
            env = json.loads(out)
            rows = [(c["name"], c["pass"]) for c in env["checks"]]
            res = env["result"]
            ok = res == verdict if verdict else res["passed"] is True
        else:
            lines = out.split("\n")
            rows = [(line.partition(": ")[0], line.partition(": ")[2] == "PASS")
                    for line in lines[: len(names)]]
            tail = lines[len(names)] if len(lines) > len(names) else ""
            ok = tail == verdict if verdict else tail.startswith("s = ")
        if rows != [(name, True) for name in names] or not ok:
            return f"checks not all PASS: {rows}"
        return None
    return check


def expect_verify_failed(js: bool):
    def check(out):
        if js:
            env = json.loads(out)
            ok = env["result"] == "failed" and not all(c["pass"] for c in env["checks"])
        else:
            ok = out.split("\n")[-1] == "failed" and "FAIL" in out
        return None if ok else f"expected a failed verification, got {out[:80]!r}"
    return check


def structure(m: int, p: int):
    """(order of L, description of L, description of H) when the positive
    x-exponents of h have gcd m (m = 0: h is constant)."""
    if m == 0:
        return (None if p == 0 else p - 1), "full multiplicative group k*", "C2 x k*"
    order = 1 if m == 1 else len(roots_of_unity(m, p))
    if order == 1:
        return 1, "trivial", "C2"
    return order, f"cyclic of order {order}", f"C2 x C{order}"


def structure_text(m: int, p: int) -> str:
    order, l_desc, h_desc = structure(m, p)
    suffix = f" (order {order})" if order is not None else ""
    return (f"m = {m}\nL = {l_desc}{suffix}\nH = {h_desc}\n"
            "N = additive group of k[x] (shears E_f)")


def expect_structure(m: int, p: int, js: bool):
    if not js:
        return expect_text(structure_text(m, p))
    order = structure(m, p)[0]

    def check(out):
        res = json.loads(out)["result"]
        ok = res["m"] == m and res["l_order"] == order
        return None if ok else f"structure {res} does not match m={m}, order={order}"
    return check


def _parse_scalar(text: str, p: int):
    v = Fraction(text)
    if not p:
        return v
    return v.numerator * pow(v.denominator, -1, p) % p


def expect_isomorphic(h1: dict, h2: dict, p: int, js: bool):
    """Positive verdict, and the returned (eta, mu) really maps h1 to h2."""
    def check(out):
        res = json.loads(out)
        if js:
            res = res["result"]
        if not res.get("isomorphic") or res.get("reason") != "ok":
            return f"expected isomorphic, got {res}"
        eta, mu = _parse_scalar(res["eta"], p), _parse_scalar(res["mu"], p)
        image = xpoly({d: eta * c * mu**d for d, c in h1.items()}, p)
        return None if image == h2 else f"eta={res['eta']}, mu={res['mu']} do not map h1 to h2"
    return check


def expect_n_mismatch(js: bool):
    def check(out):
        if js:
            res = json.loads(out)["result"]
            return None if json.dumps(res) == N_MISMATCH else f"expected n_mismatch, got {res}"
        return None if out == N_MISMATCH else f"expected n_mismatch, got {out!r}"
    return check


def _argv(args, js):
    return list(args) + (["--json"] if js else [])


# ----------------------------------------------------------------- groups ---


def readme_group():
    """The README examples; the first three have documented output."""
    q_map = "x->x; z->z+x^2*U; y->y+(2*z+1)*U+x^2*U^2"
    yield Cmd(["normal-form", "--ring", "R(n=2,h=1,field=F2)", "--expr", "z^2+z"],
              check=expect_text("x^2*y"))
    yield Cmd(["exp-verify", "--ring", "R(n=2,h=1,field=Q)", "--map", q_map],
              check=expect_text("relation: PASS\naxiom_i: PASS\naxiom_ii: PASS\nverified"))
    yield Cmd(["iso-check", "--left", "R(n=2,h=1,field=Q)", "--right", "R(n=3,h=1,field=Q)"],
              check=expect_text(N_MISMATCH))
    yield Cmd(["cancel-verify", "--n1", "2", "--n2", "3", "--field", "Q"],
              check=expect_all_pass(CANCEL_CHECKS, False, ""))
    # F = (1+x) U with n = 2: z -> z + x^2 (1+x) U.
    yield Cmd(["exp-build", "--ring", "R(n=2,h=1,field=Q)", "--coeff", "1:1+x"],
              check=expect_prefix("x -> x; y -> "))
    # D^2(y) is the U^2 coefficient x^n f^2 = x^2.
    yield Cmd(["derive", "--ring", "R(n=2,h=1,field=Q)", "--map", q_map, "--expr", "y",
               "--order", "2"], check=expect_text("x^2"))
    yield Cmd(["homogenize", "--ring", "R(n=2,h=1,field=Q)", "--map", q_map,
               "--weights", README_WEIGHTS], check=expect_prefix("grdeg(U) = 1\n"))
    # E_1 . T sends z to -z - h - x^n, which is T . E_(-1).
    yield Cmd(["aut-decompose", "--ring", "R(n=2,h=1,field=Q)", "--word", "E(1) * T"],
              check=expect_text("L(1) * T * E(-1)"))
    yield Cmd(["aut-structure", "--ring", "R(n=2,h=1+x,field=Q)"],
              check=expect_text(structure_text(1, 0)))


def nf_pair_group(rng, p, n, h, r_text, js_first=False, js_second=False):
    """normal-form of r and of r + relation*g must agree."""
    g = rand_elem(rng, p, 2, 1)
    spec = ring(n, h, p)
    first = yield Cmd(_argv(["normal-form", "--ring", spec, "--expr", r_text], js_first))
    yield Cmd(_argv(["normal-form", "--ring", spec, "--expr",
                     f"{r_text} + {relation(n, h, p)}*({g})"], js_second),
              check=expect_text(_view(first, js_first), js_second))


def exp_group(rng, p, n, e, full=True, js=lambda: False, h_support=None):
    """exp-build F = f1 U + f U^e, then the commands that read the printed map.

    Known answers: the map passes exp-verify; deg(y) = 2e,
    deg(x^j) = 0; D^e(z) = x^n f; D^0(a) is the normal form of a; and under
    w{x:0, y:2, z:1} the parameter weight is 1/e.
    """
    h = rand_h(rng, p, n, h_support)
    spec = ring(n, h, p)
    f1 = rand_xpoly(rng, p, [0, 1]) if e > 1 else {}
    f = rand_xpoly(rng, p, [0, 1])
    coeffs = (["--coeff", f"1:{input_xpoly(f1, p)}"] if f1 else []) + [
        "--coeff", f"{e}:{input_xpoly(f, p)}"]
    j = js()
    built = _view((yield Cmd(_argv(["exp-build", "--ring", spec] + coeffs, j),
                             check=expect_prefix("x -> x; y -> ", j))), j)
    base = ["--ring", spec, "--map", built]
    j = js()
    yield Cmd(_argv(["exp-verify"] + base, j),
              check=expect_all_pass(VERIFY_CHECKS, j, "verified"))
    if not full:
        return
    j = js()
    yield Cmd(_argv(["exp-degree"] + base + ["--expr", "y"], j), check=expect_text(str(2 * e), j))
    j = js()
    yield Cmd(_argv(["exp-degree"] + base + ["--expr", f"x^{rng.randrange(1, 4)}"], j),
              check=expect_text("0", j))
    j = js()
    yield Cmd(_argv(["derive"] + base + ["--expr", "z", "--order", str(e)], j),
              check=expect_text(fmt_xpoly({d + n: c for d, c in f.items()}, p), j))
    a = rand_elem(rng, p, 3, 2)
    j = js()
    form = _view((yield Cmd(_argv(["normal-form", "--ring", spec, "--expr", a], j))), j)
    j = js()
    yield Cmd(_argv(["derive"] + base + ["--expr", a, "--order", "0"], j),
              check=expect_text(form, j))
    weight = "1" if e == 1 else f"1/{e}"
    j = js()
    if j:
        check = lambda out: (None if json.loads(out)["result"]["parameter_weight"] == weight
                             else f"parameter weight is not {weight}")
    else:
        check = expect_prefix(f"grdeg(U) = {weight}\n")
    yield Cmd(_argv(["homogenize"] + base + ["--weights", README_WEIGHTS], j), check=check)


def aut_group(rng, p, n, js=lambda: False):
    """A word L(mu) * T^eps * E(g) with a legal mu: decompose returns
    (mu, eps, g); compose reports mu and sigma; aut-apply respects the
    relation."""
    if n > 2 and rng.random() < 0.5:
        m = rng.randrange(2, n)
        h = rand_h(rng, p, n, [0, m])
        mu = rng.choice(roots_of_unity(m, p))
    else:
        h = rand_h(rng, p, n, [0])
        mu = rand_unit(rng, p)
    eps = rng.randrange(2)
    g = rand_xpoly(rng, p, [0, 1, 2])
    spec = ring(n, h, p)
    mu_text = fmt_scalar(mu, p)
    word = f"L({mu_text}) * " + ("T * " if eps else "") + f"E({input_xpoly(g, p)})"
    canonical = f"L({mu_text}) * " + ("T * " if eps else "") + f"E({fmt_xpoly(g, p)})"
    j = js()
    yield Cmd(_argv(["aut-decompose", "--ring", spec, "--word", word], j),
              check=expect_text(canonical, j))
    j = js()
    sigma = "-1" if eps else "+1"
    yield Cmd(_argv(["aut-compose", "--ring", spec, "--word", word], j),
              check=expect_prefix(f"(mu={mu_text}, sigma={sigma}, f=", j))
    r = rand_elem(rng, p, 3, 2)
    rel = f"{r} + {relation(n, h, p)}*({rand_elem(rng, p, 2, 1)})"
    j = js()
    image = _view((yield Cmd(_argv(["aut-apply", "--ring", spec, "--word", word, "--expr", r], j))),
                  j)
    j = js()
    yield Cmd(_argv(["aut-apply", "--ring", spec, "--word", word, "--expr", rel], j),
              check=expect_text(image, j))


def structure_group(rng, p, js):
    n = rng.choice((3, 5))
    m = rng.randrange(2, n)
    support = [0] + [d for d in range(m, n, m)]
    h = rand_h(rng, p, n, support)
    yield Cmd(_argv(["aut-structure", "--ring", ring(n, h, p)], js),
              check=expect_structure(m, p, js))


def iso_group(rng, p, js):
    """h2 = eta * h1(mu x) must come back isomorphic with a valid (eta, mu)."""
    n = rng.choice((2, 3, 5))
    top = rng.randrange(1, n)
    h1 = rand_h(rng, p, n, [0, top] + [d for d in range(1, top) if rng.random() < 0.5])
    eta = rand_unit(rng, p)
    mu = rand_unit(rng, p) if p else Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))
    h2 = xpoly({d: eta * c * mu**d for d, c in h1.items()}, p)
    yield Cmd(_argv(["iso-check", "--left", ring(n, h1, p), "--right", ring(n, h2, p)], js),
              check=expect_isomorphic(h1, h2, p, js))


def mismatch_group(rng, p, js):
    n1, n2 = rng.sample((2, 3, 5), 2)
    yield Cmd(_argv(["iso-check", "--left", ring(n1, rand_h(rng, p, n1), p),
                     "--right", ring(n2, rand_h(rng, p, n2), p)], js),
              check=expect_n_mismatch(js))


def cancel_group(rng, p, n1, js=False):
    n2 = rng.randrange(n1 + 1, 2 * n1 + 1)
    yield Cmd(_argv(["cancel-verify", "--n1", str(n1), "--n2", str(n2), "--field", field_label(p)],
                    js), check=expect_all_pass(CANCEL_CHECKS, js, ""))


def error_group(rng, p, js):
    """Documented error cases: a syntax error exits 2, a map that is not
    exponential exits 1."""
    n = rng.choice((2, 3, 5))
    spec = ring(n, rand_h(rng, p, n), p)
    bad = rng.choice(("2x", "x^", "(x+1", "x**2", "x+*y"))
    yield Cmd(_argv(["normal-form", "--ring", spec, "--expr", bad], js), code=2,
              check=lambda out: None if out.startswith("input error:") else f"got {out!r}")
    k = rng.randrange(0, n)
    yield Cmd(_argv(["exp-verify", "--ring", spec, "--map", f"x->x; z->z+x^{k}*U; y->y"], js),
              code=1, check=expect_verify_failed(js))


# ----------------------------------------------------------------- passes ---


def _prime_between(rng, lo, hi):
    while True:
        p = rng.randrange(lo, hi)
        if is_prime(p):
            return p


def _spread(rng, values, k):
    """k values drawn evenly from `values` in a seeded order, so every pass
    has the same mix of ring sizes."""
    out = (list(values) * k)[:k]
    rng.shuffle(out)
    return out


def cli_mix_pass(rng):
    """The README examples, then two rounds of the twelve commands on small
    rings; about half the commands ask for --json."""

    def js():
        return rng.random() < 0.5

    groups = [readme_group()]
    for _ in range(2):
        for p, n in zip((0, 2, 3, 5, 0, 3), _spread(rng, (2, 3, 5), 6)):
            groups.append(nf_pair_group(rng, p, n, rand_h(rng, p, n), rand_elem(rng, p, 4, 3),
                                        js(), js()))
        # The smallest legal exponent above 1 in each characteristic.
        for (p, e), n in zip(((0, 1), (2, 4), (3, 3), (5, 5)), _spread(rng, (2, 3, 5), 4)):
            groups.append(exp_group(rng, p, n, e, js=js))
        for p, n in zip((0, 2, 3, 5), _spread(rng, (2, 3, 5), 4)):
            groups.append(aut_group(rng, p, n, js=js))
        # Root scans over F_p* cost about p - 1 steps: one prime per size band.
        scan_primes = (rng.choice((7, 11, 13)), _prime_between(rng, 90, 110),
                       _prime_between(rng, 900, 1100), _prime_between(rng, 9000, 10000))
        for p in (0,) + scan_primes[1:]:
            groups.append(structure_group(rng, p, js()))
        for p in (0,) + scan_primes:
            groups.append(iso_group(rng, p, js()))
        for _ in range(2):
            groups.append(mismatch_group(rng, rng.choice((0, 2, 3, 5)), js()))
        groups.append(cancel_group(rng, 2, 2, js()))
        groups.append(error_group(rng, rng.choice((0, 2, 3, 5)), js()))
    return groups


def charp_pass(rng):
    """exp-build with F = f1 U + f U^(p^k), the maps fed on, and z^k forms.

    Rings are fixed at n = 2 with h = a + b x (h = a for the z^k forms), so
    the cost of a command depends on p and the exponent, and the seed picks
    only coefficients and order.
    """
    groups = []
    # 2^7 and 3^4 appear twice: their commands (75-110 ms) form the middle
    # of the cost ladder, so the median falls well inside one block.
    for p, e in ((2, 32), (2, 64), (2, 128), (2, 128), (2, 256), (3, 27), (3, 81),
                 (3, 81), (3, 243), (5, 25), (5, 125)):
        groups.append(exp_group(rng, p, 2, e, h_support=[0, 1]))
    groups.append(exp_group(rng, 2, 2, 512, full=False, h_support=[0, 1]))
    for p, lo, hi in ((2, 450, 550), (2, 600, 700), (3, 400, 500), (3, 500, 600),
                      (5, 300, 400)):
        h = rand_h(rng, p, 2, [0])
        groups.append(nf_pair_group(rng, p, 2, h, f"z^{rng.randrange(lo, hi)}"))
    return groups


def _dense(rng):
    """A dense element over Q: the fourth power of a random linear form with
    rational coefficients."""
    lin = " + ".join(f"({fmt_scalar(rand_unit(rng, 0), 0)})*{v}" for v in ("1", "x", "y", "z"))
    return f"({lin})^4"


def dense_group(rng, n, apply):
    """normal-form, or aut-apply of a random word, of a dense element r and
    of r + relation*g; the two outputs must agree."""
    h = rand_h(rng, 0, n, [0])
    spec = ring(n, h, 0)
    r = _dense(rng)
    rel = f"{r} + {relation(n, h, 0)}*({rand_elem(rng, 0, 2, 1)})"
    if apply:
        g = rand_xpoly(rng, 0, [0, 1])
        word = f"L({fmt_scalar(rand_unit(rng, 0), 0)}) * T * E({input_xpoly(g, 0)})"
        cmd = ["aut-apply", "--ring", spec, "--word", word, "--expr"]
    else:
        cmd = ["normal-form", "--ring", spec, "--expr"]
    first = yield Cmd(cmd + [r])
    yield Cmd(cmd + [rel], check=expect_text(first))


def cylinder_pass(rng):
    """cancel-verify for each n1 over Q (twice), F2, F3 and F5 plus two more
    over Q, each with a seeded n2; then dense Q elements through aut-apply
    (7 pairs) and normal-form (9 pairs).

    Sorted by cost, a pass is 18 normal forms (~5 ms), then 14 aut-apply and
    4 F2 cancel-verify calls (30-45 ms), then F3, F5 and Q cancel-verify calls
    (~0.1, ~0.27, ~0.6 s).  The counts put the median near the middle of the
    second block and the 90th percentile near the middle of the ten Q calls,
    away from the edges between blocks.
    """
    groups = []
    for n1 in (2, 3, 4, 5):
        for p in (0, 0, 2, 3, 5):
            groups.append(cancel_group(rng, p, n1))
    for n1 in (3, 4):
        groups.append(cancel_group(rng, 0, n1))
    for apply, n in zip([True] * 7 + [False] * 9, _spread(rng, (2, 3, 5), 16)):
        groups.append(dense_group(rng, n, apply))
    return groups


_PASSES = {"cli-mix": cli_mix_pass, "charp-powers": charp_pass, "cylinder": cylinder_pass}


def make_pass(workload: str, seed: int, index) -> list:
    """The groups of pass `index` of a workload, in seeded order."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    groups = _PASSES[workload](rng)
    rng.shuffle(groups)
    return groups
