"""Differential tests against sympy, an independent implementation.

The package never imports sympy; these tests are skipped when it is absent.
"""

import pytest

sympy = pytest.importorskip("sympy")

from fractions import Fraction  # noqa: E402

from dansurf import FieldSpec, Poly, normal_form, parse_poly, substitute_poly  # noqa: E402
from dansurf.polyring import VARS, mono  # noqa: E402
from conftest import F2, F3, F5, Q, random_poly, random_relem, rng, standard_spec  # noqa: E402

# The generators in the package's variable order z > y > x > T > U > S, so
# sympy's lex order with these generators puts z first.
GENS = sympy.symbols(" ".join(VARS))
SYM = dict(zip(VARS, GENS))
FIELDS = [Q, F2, F3, F5]
SPECS = [(2, "1"), (3, "1 + x^2"), (2, "1 + x")]


def to_sympy(p: Poly):
    total = sympy.Integer(0)
    for m, c in p.terms.items():
        term = sympy.Rational(c.value.numerator, c.value.denominator)
        for gen, e in zip(GENS, m):
            term *= gen**e
        total += term
    return total


def domain(field):
    p = field.characteristic
    return {"domain": sympy.QQ} if p == 0 else {"modulus": p}


def agree(ours, theirs, field) -> bool:
    return sympy.Poly(ours - theirs, *GENS, **domain(field)).is_zero


def reduce_mod_relation(expr, spec):
    x, y, z = SYM["x"], SYM["y"], SYM["z"]
    relation = x**spec.n * y - z**2 - to_sympy(spec.h) * z
    _, remainder = sympy.reduced(sympy.expand(expr), [relation], *GENS, order="lex",
                                 **domain(spec.field))
    return remainder


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label)
@pytest.mark.parametrize("n, h", SPECS)
def test_normal_form_matches_sympy_reduced(field, n, h):
    spec = standard_spec(field, n, h)
    r = rng(n)
    for _ in range(8):
        p = random_poly(r, field, ("x", "y", "z", "U"), max_terms=4, max_exp=4)
        ours = normal_form(spec, p).to_poly()
        assert agree(to_sympy(ours), reduce_mod_relation(to_sympy(p), spec), field), p


@pytest.mark.parametrize("field", FIELDS[1:], ids=lambda f: f.label)
@pytest.mark.parametrize("n, h", SPECS)
def test_z_powers_past_2p_match_sympy_reduced(field, n, h):
    # from 2p on, power() forms z^k as frobenius(z^(k // p)) * z^(k % p)
    spec = standard_spec(field, n, h)
    p = field.characteristic
    for k in (2 * p, 2 * p + 1, p * p + p - 1):
        ours = normal_form(spec, Poly.from_items(field, [(mono(z=k), 1), (mono(z=k - 1, U=1), 1)]))
        theirs = reduce_mod_relation(SYM["z"] ** k + SYM["U"] * SYM["z"] ** (k - 1), spec)
        assert agree(to_sympy(ours.to_poly()), theirs, field), k


def coefficient_poly(r, field, kind, max_terms=8):
    """A random poly in x, y, z, U whose coefficients are written as all
    integers, all non-integral fractions (denominators 2, 3, 5, 7, those
    invertible in the field), or a mix of both."""
    p = field.characteristic
    denominators = [d for d in (2, 3, 5, 7) if not p or d % p]
    items = []
    for _ in range(r.randint(1, max_terms)):
        c = kind if kind != "mixed" else r.choice(("integral", "fractional"))
        num = r.choice((-1, 1)) * r.randint(1, 40)
        d = r.choice(denominators)
        value = num if c == "integral" else Fraction(num * d + r.randint(1, d - 1), d)
        items.append((mono(**{v: r.randint(0, 3) for v in ("x", "y", "z", "U")}), value))
    return Poly.from_items(field, items)


@pytest.mark.parametrize("field, kind", [(Q, "integral"), (Q, "fractional"), (Q, "mixed"),
                                         (F2, "mixed"), (F3, "mixed"), (F5, "mixed")],
                         ids=lambda v: getattr(v, "label", v))
def test_poly_product_matches_sympy(field, kind):
    r = rng(len(kind) + field.characteristic)
    for _ in range(12):
        a = coefficient_poly(r, field, kind)
        b = coefficient_poly(r, field, kind)
        theirs = sympy.Poly(to_sympy(a), *GENS, **domain(field)) * sympy.Poly(
            to_sympy(b), *GENS, **domain(field))
        ours = a * b
        assert sympy.Poly(to_sympy(ours), *GENS, **domain(field)) == theirs, (a, b)
        assert ours == b * a


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label)
def test_poly_substitute_matches_sympy(field):
    r = rng(7)
    for k in range(10):
        p = random_poly(r, field, ("x", "y", "z", "U"), max_terms=4, max_exp=4)
        bound = ("x", "U", "z", "y")[: 1 + k % 4]
        bindings = {v: random_poly(r, field, ("x", "y", "T"), max_terms=3, max_exp=2)
                    for v in bound}
        theirs = to_sympy(p).subs({SYM[v]: to_sympy(b) for v, b in bindings.items()},
                                  simultaneous=True)
        assert agree(to_sympy(p.substitute(bindings)), theirs, field), (p, bindings)


# Monomial images, which act in place on each term: zero and constants,
# scalings with fractions over Q, swapped variables, a monomial holding z,
# and a monomial holding x beside a 3-term x-image.
MONOMIAL_IMAGES = [
    {"U": "0", "T": "-1"},
    {"x": "7/11*x", "y": "121/49*y", "U": "3"},
    {"x": "3/7*y", "y": "-2*x", "T": "U"},
    {"y": "x*z", "U": "5/7*T^2"},
    {"x": "x + y + T", "y": "x*y^2*T", "z": "2*x"},
]


@pytest.mark.parametrize("field", FIELDS + [FieldSpec(2147483647)], ids=lambda f: f.label)
def test_monomial_images_match_sympy(field):
    spec = standard_spec(field, 3, "1 + x^2")
    r = rng(13 + field.characteristic % 1000)
    for texts in MONOMIAL_IMAGES:
        polys = {v: parse_poly(t, field) for v, t in texts.items()}
        elems = {v: normal_form(spec, q) for v, q in polys.items()}
        subs = {SYM[v]: to_sympy(q) for v, q in polys.items()}
        for _ in range(3):
            p = random_poly(r, field, ("x", "y", "z", "T", "U"), max_terms=5, max_exp=4)
            theirs = to_sympy(p).subs(subs, simultaneous=True)
            assert agree(to_sympy(p.substitute(polys)), theirs, field), (p, texts)
            ours = substitute_poly(spec, p, elems).to_poly()
            assert agree(to_sympy(ours), reduce_mod_relation(theirs, spec), field), (p, texts)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label)
@pytest.mark.parametrize("n, h", SPECS)
def test_substitute_poly_matches_sympy_expand_then_reduce(field, n, h):
    spec = standard_spec(field, n, h)
    r = rng(11 * n)
    for k in range(6):
        p = random_poly(r, field, ("x", "y", "z", "T"), max_terms=3, max_exp=3)
        # images for a growing subset of x, y, z, T; the rest map to themselves
        bound = ("z", "y", "x", "T")[: 1 + k % 4]
        images = {v: random_relem(r, spec, ("x", "y", "U")) for v in bound}
        ours = substitute_poly(spec, p, images).to_poly()
        theirs = to_sympy(p).subs({SYM[v]: to_sympy(img.to_poly()) for v, img in images.items()},
                                  simultaneous=True)
        assert agree(to_sympy(ours), reduce_mod_relation(theirs, spec), field), (p, images)


# Fractional words L(mu) * T * E(g) and rings (n, h) where h(mu*x) = h(x),
# as cylinder's aut-apply commands use them: a constant h allows any mu, an
# even h allows mu = -1.
FRACTIONAL_WORDS = [(2, "1/2", "-1/2", "3/2 + 2/3*x"), (3, "5/3", "2/7", "1/4 - 3/5*x"),
                    (3, "1/2 + 2/3*x^2", "-1", "3/2 + 2/3*x")]


@pytest.mark.parametrize("n, h, mu, g", FRACTIONAL_WORDS)
def test_fractional_aut_apply_matches_sympy_expand_then_reduce(n, h, mu, g):
    # each factor is applied to the expanded polynomial as the substitution
    # it stands for, rightmost first, and the result reduced at the end:
    # E_g: z -> z + x^n g, y -> y + 2 z g + x^n g^2 + h g; T: z -> -z - h;
    # L_mu: x -> mu x, y -> mu^-n y
    from dansurf import parse_aut_word, parse_poly

    spec = standard_spec(Q, n, h)
    auto = parse_aut_word(f"L({mu}) * T * E({g})", spec)
    x, y, z = SYM["x"], SYM["y"], SYM["z"]
    hs, gs, mus = (to_sympy(parse_poly(t, Q)) for t in (h, g, mu))
    shear = {z: z + x**n * gs, y: y + 2 * z * gs + x**n * gs**2 + hs * gs}
    flip = {z: -z - hs}
    scale = {x: mus * x, y: y / mus**n}
    r = rng(n)
    for k in range(3):
        coeffs = [Fraction(r.choice((-1, 1)) * r.randint(1, 9), r.randint(2, 9)) for _ in range(4)]
        lin = " + ".join(f"({c})*{v}" for c, v in zip(coeffs, ("1", "x", "y", "z")))
        dense = normal_form(spec, parse_poly(f"({lin})^{2 + k}", Q))
        theirs = to_sympy(dense.to_poly())
        for step in (shear, flip, scale):
            theirs = sympy.expand(theirs.subs(step, simultaneous=True))
        ours = auto.apply(dense).to_poly()
        assert agree(to_sympy(ours), reduce_mod_relation(theirs, spec), Q), (lin, k)


# Coefficient families z -> z + x^n F(x, U) for build_exponential, with the
# U-exponents 1 and p^k that characteristic p allows.
EXP_FAMILIES = [
    (Q, 2, "1", [(1, "1 + x")]),
    (Q, 3, "1 + x^2", [(1, "1/2*x - 3")]),
    (F2, 2, "1", [(1, "1"), (2, "x"), (4, "1 + x")]),
    (F3, 2, "1 + x", [(1, "x"), (9, "2")]),
    (F5, 3, "2 + x^2", [(5, "1 + x"), (25, "3")]),
]


@pytest.mark.parametrize("field, n, h, coeffs", EXP_FAMILIES,
                         ids=[f"{f.label}-n{n}-U{c[-1][0]}" for f, n, _, c in EXP_FAMILIES])
def test_exponential_map_images_match_sympy(monkeypatch, field, n, h, coeffs):
    # the relation under the images and both sides of the coaction law,
    # expanded and reduced by sympy, against the views that
    # verify_exponential forms: the substitutions for the relation and for
    # phi_S(phi_U(z)), and the binomial expansion of phi_(S+U)(g) for x and
    # z.  y's identity is certified from the relation, so sympy checks both
    # of its sides on its own: the independent check of that lemma
    import dansurf.expmaps as expmaps
    from dansurf import build_exponential, parse_poly, verify_exponential

    spec = standard_spec(field, n, h)
    phi = build_exponential(spec, [(e, parse_poly(t, field)) for e, t in coeffs])
    U, S = SYM["U"], SYM["S"]
    images = {SYM[v]: to_sympy(img.to_poly()) for v, img in phi.images.items()}
    images_s = {g: img.subs(U, S) for g, img in images.items()}
    substituted, shifted = [], []  # (the element, its view) per side

    def substituting(*args, kernel=expmaps.substitute_view):
        view = kernel(*args)
        substituted.append((args[1], view))
        return view

    def shifting(a, rows, kernel=expmaps.u_shifted):
        view = kernel(a, rows)
        shifted.append((a, view))
        return view

    monkeypatch.setattr(expmaps, "substitute_view", substituting)
    monkeypatch.setattr(expmaps, "u_shifted", shifting)
    assert verify_exponential(phi).passed
    monkeypatch.undo()
    (rel, image_rel), *lhs_views = substituted
    assert rel == spec.relation() and not image_rel[1]
    theirs = reduce_mod_relation(to_sympy(rel).subs(images, simultaneous=True), spec)
    assert agree(theirs, sympy.Integer(0), field)
    # phi(x) = x is unmoved, so its phi_S(phi_U(x)) is x itself
    assert [a for a, _ in lhs_views] == [phi.images["z"]]
    lhs_of = {"x": phi.images["x"].ints(), "z": lhs_views[0][1]}
    assert [a for a, _ in shifted] == [phi.images["x"], phi.images["z"]]
    rhs_of = {"x": shifted[0][1], "z": shifted[1][1]}
    for var in phi.carriers():
        img = images[SYM[var]]
        theirs_lhs = reduce_mod_relation(img.subs(images_s, simultaneous=True), spec)
        theirs_rhs = reduce_mod_relation(img.subs(U, S + U), spec)
        assert agree(theirs_lhs, theirs_rhs, field), var
        if var in lhs_of:
            assert agree(to_sympy(Poly._of_view(field, lhs_of[var])), theirs_lhs, field), var
            assert agree(to_sympy(Poly._of_view(field, rhs_of[var])), theirs_rhs, field), var
    # U^(p^k) reaches the images: the y-image carries U^(2*E) for the top E
    top = max(e for e, _ in coeffs)
    assert phi.image("y").degree_in("U") == 2 * top
