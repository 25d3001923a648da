"""Exponential maps phi: R -> R[U] and their higher derivations.

An exponential map is a ring homomorphism phi into the polynomial extension
R[U] satisfying two axioms: evaluating U at 0 recovers the identity, and the
coaction law phi_S(phi_U(a)) = phi_{S+U}(a) holds.  Both are checked here on
generators, which suffices because all the maps involved are homomorphisms
determined by generator images.

Writing phi(a) = sum_i D^i(a) U^i defines the associated locally finite
iterative higher derivation D = {D^i}; D^i(a) is recovered by coefficient
extraction, and the degree deg_phi(a) = deg_U(phi(a)) is a degree function.
"""

from __future__ import annotations

from functools import cached_property

from .errors import AlgebraError, InputError
from .polyring import (VAR_MONO, Accumulator, Poly, SubstitutionMemo, is_variable, lowest_terms,
                       reduce_view, unmoved)
from .records import Record
from .scalars import int_to_str
from .surface import RElem, RingSpec, forced_y, substitute_poly, substitute_view


class CheckResult(Record):
    _fields = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        vars(self).update(name=name, passed=passed, detail=detail)


class VerificationReport(Record):
    _fields = ("checks",)

    def __init__(self, checks: tuple):
        vars(self)["checks"] = checks

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary(self) -> str:
        """The failed checks as "name: detail" items joined by "; "."""
        return "; ".join(f"{c.name}: {c.detail}" for c in self.failures())


class ExponentialMap(Record):
    """Generator images in R[U]; `verified` is True only for the maps that
    make_exponential returns, whose images passed verify_exponential.

    Images are stored for every ring generator and, when the map acts on a
    polynomial extension R[T], for the parameter T as well.  The parameter S
    is reserved for the coaction check and never carries an image.

    Substitution through the images keeps its powers and group products in
    the map's memo, formed on first use and shared by every later apply and
    the relation check.  It is not a field: equality, hash and repr ignore
    it, and it points nowhere back at the map.
    """

    _fields = ("spec", "images", "verified")

    def __init__(self, spec: RingSpec, images: dict):
        full = {}
        for var in spec.generators():
            full[var] = images.get(var, RElem.var(spec, var))
        if "T" in images:
            full["T"] = images["T"]
        for var, img in images.items():
            if var not in full:
                raise InputError(f"cannot assign an image to {var!r}")
        for var, img in full.items():
            if not isinstance(img, RElem) or img.spec != spec:
                raise InputError(f"image of {var} is not an element of the ring")
            if img.degree_in("S") > 0:
                raise InputError("images must not involve the reserved parameter S")
        vars(self).update(spec=spec, images=full, verified=False)

    @cached_property
    def _memo(self) -> SubstitutionMemo:
        return SubstitutionMemo()

    def carriers(self) -> tuple:
        """The variables whose images determine the map."""
        return tuple(sorted(self.images))

    def image(self, var: str) -> RElem:
        return self.images[var]

    def apply(self, a: RElem) -> RElem:
        """phi(a) for a in the source ring (a must not already involve U)."""
        if a.spec != self.spec:
            raise InputError("element of a different ring")
        if a.degree_in("U") > 0:
            raise InputError("apply expects a U-free element")
        return substitute_poly(self.spec, a, self.images, self._memo)

    def __eq__(self, other):
        """The same ring and images, verified or not."""
        if not isinstance(other, ExponentialMap):
            return NotImplemented
        return self.spec == other.spec and self.images == other.images

    def __repr__(self):
        inner = "; ".join(f"{v} -> {self.images[v]}" for v in sorted(self.images))
        return f"ExponentialMap({inner})"

    @classmethod
    def trivial(cls, spec: RingSpec) -> "ExponentialMap":
        return make_exponential(spec, {})


def _legal_exponent(e: int, p: int) -> bool:
    if e == 1:
        return True
    if p == 0 or e < 1:
        return False
    while e % p == 0:
        e //= p
    return e == 1


def solve_generator_images(spec: RingSpec, image_z: RElem) -> dict:
    """Given phi(x) = x and a candidate phi(z), the images with the phi(y)
    that the relation forces (surface.forced_y with mu = 1).  NotDivisible
    here means the candidate z-image breaks the relation."""
    if not spec.standard and not spec.graded:
        raise InputError("relation solving needs a spec with a relation")
    return {
        "x": RElem.var(spec, "x"),
        "y": forced_y(spec, spec.field.one, image_z),
        "z": image_z,
    }


def build_exponential(spec: RingSpec, coeffs) -> ExponentialMap:
    """Construct the map x -> x, z -> z + x^n * F(x, U) from coefficient data.

    `coeffs` lists pairs (e, f_e) with F = sum f_e(x) U^e.  In characteristic
    zero only e = 1 is allowed; in characteristic p the exponents must be 1
    or powers of p.  The y-image is derived from the relation (never assumed),
    and make_exponential verifies the result.
    """
    field = spec.field
    p = field.characteristic
    F = Poly.zero(field)
    for e, f_e in coeffs:
        if type(f_e) is not Poly:
            f_e = Poly.const(field, f_e)
        if not f_e.variables() <= {"x"}:
            raise InputError("coefficient polynomials must involve x alone")
        if not _legal_exponent(e, p):
            raise InputError(
                f"U-exponent {int_to_str(e)} is not allowed in characteristic {p}"
            )
        F = F + f_e * Poly.variable(field, "U", e)
    xnF = Poly.variable(field, "x", spec.n) * F
    image_z = RElem(spec, xnF, Poly.const(field, 1))
    return make_exponential(spec, solve_generator_images(spec, image_z))


def make_exponential(spec: RingSpec, images: dict) -> ExponentialMap:
    """Build the map of candidate images once, verify it and mark it
    verified; raise if verification fails.

    The only code that marks a map verified."""
    phi = ExponentialMap(spec, images)
    report = verify_exponential(phi)
    if not report.passed:
        raise AlgebraError(
            "candidate images are not an exponential map: " + report.summary()
        )
    vars(phi)["verified"] = True
    return phi


def at_u_zero(a: RElem) -> RElem:
    """a at U = 0: the terms of a free of U."""
    d, items = a.ints()
    return a._like(lowest_terms(d, [(m, v) for m, v in items if not m[4]]))


def u_renamed_s(a: RElem) -> RElem:
    """a at U = S, for an a free of S (as every map image is): the terms of a
    with the U-exponent moved to S."""
    d, items = a.ints()
    return a._like((d, [((a0, a1, a2, a3, 0, a4), v) for (a0, a1, a2, a3, a4, _), v in items]))


def binomial_row(i: int, p: int) -> list:
    """The pairs (j, C(i, j)) with C(i, j) nonzero in characteristic p, the
    binomials reduced mod p.  Below p (and over Q) each entry comes from the
    last by one product and one division, exact over Q and by the inverse of
    j + 1 mod p over F_p.  From p on, Lucas' theorem gives the row as the
    product of the rows of i's base-p digits, so that i = p^k has the two
    entries j = 0 and j = p^k."""
    row = [(0, 1)]
    if p and i >= p:
        place = 1
        while i:
            i, digit = divmod(i, p)
            row = [(j + t * place, c * b % p) for t, b in binomial_row(digit, p)
                   for j, c in row]
            place *= p
        return row
    c = 1
    for j in range(i):
        c = c * (i - j) * pow(j + 1, -1, p) % p if p else c * (i - j) // (j + 1)
        row.append((j + 1, c))
    return row


def u_shifted(a: RElem, rows: dict) -> tuple:
    """The reduced integer view of a at U = S + U, for an a free of S: each
    term c*m*U^i gives C(i, j)*c*m*S^j*U^(i - j) for every j of i's
    binomial row (binomial_row(), kept in `rows` by i).  No two of these
    share a monomial, as i = (i - j) + j."""
    field = a.field
    p = field.characteristic
    acc = Accumulator()
    acc.den, items = a.ints()
    sums = acc.sums
    for (a0, a1, a2, a3, i, _), v in items:
        row = rows.get(i)
        if row is None:
            row = rows[i] = binomial_row(i, p)
        for j, c in row:
            sums[a0, a1, a2, a3, i - j, j] = c * v
    return reduce_view(field, acc)


def verify_exponential(phi: ExponentialMap) -> VerificationReport:
    """Run the three checks on the generator images of a built map.

    (relation)  the images satisfy the defining relation in R[U], so the
                candidate is a well-defined homomorphism;
    (axiom_i)   setting U = 0 in each image returns the generator;
    (axiom_ii)  phi_S(phi_U(g)) = phi_{S+U}(g) for every carrier g.

    Each check reads integer views (Poly.ints()) and forms elements and
    their text only for a failure's detail.  The relation is substituted
    through the map's memo.  axiom_i reads the U-free terms of each image.
    For axiom_ii, phi_S(phi_U(g)) substitutes the images with U renamed to
    S (u_renamed_s(), exact because images are free of S) into phi(g),
    unless phi(g) is unmoved by them, and phi_{S+U}(g) expands each term of
    phi(g) by a binomial row (u_shifted()); the two reduced views are
    compared.

    y is certified without either side when the spec has a relation, the
    relation check passed, phi(x) is x and every other carrier (x, z and T
    when present) passed axiom_ii.  That is exact: A = phi_S o phi_U and
    B = phi_{S+U} are then ring homomorphisms R -> R[S, U] that agree on x
    and z, so x^n*A(y) = A(z^2 + h*z) = B(z^2 + h*z) = x^n*B(y), and x is a
    nonzerodivisor in R[S, U], which is free over k[x, y, T, S, U] on
    {1, z} as the relation is monic in z.  Otherwise y is substituted like
    any carrier, so the report is the one that substituting every carrier
    gives.
    """
    spec = phi.spec
    checks = []

    rel = spec.relation()
    if rel is None:
        checks.append(CheckResult("relation", True, "free ring, nothing to preserve"))
    else:
        view = substitute_view(spec, rel, phi.images, phi._memo)
        if not view[1]:
            checks.append(CheckResult("relation", True))
        else:
            image_rel = RElem._trusted(spec, None, view)
            checks.append(
                CheckResult(
                    "relation",
                    False,
                    f"image of the relation is {image_rel}, not 0",
                )
            )

    bad = []
    for var in phi.carriers():
        d, items = phi.images[var].ints()
        if [(m, v) for m, v in items if not m[4]] != [(VAR_MONO[var], d)]:
            bad.append(f"{var} -> {at_u_zero(phi.images[var])}")
    checks.append(
        CheckResult("axiom_i", not bad, "; ".join(bad) if bad else "")
    )

    certify_y = rel is not None and checks[0].passed and is_variable(phi.images["x"], "x")
    images_s = {v: u_renamed_s(img) for v, img in phi.images.items()}
    rows = {}
    bad = {}
    for var in sorted(phi.carriers(), key=lambda v: v == "y"):  # y last
        if var == "y" and certify_y and not bad:
            continue
        img = phi.images[var]
        if unmoved(img, images_s, z_top=1):
            lhs = img.ints()
        else:
            lhs = substitute_view(spec, img, images_s)
        rhs = u_shifted(img, rows)
        if lhs[0] != rhs[0] or dict(lhs[1]) != dict(rhs[1]):
            lhs, rhs = (RElem._trusted(spec, None, v) for v in (lhs, rhs))
            bad[var] = f"{var}: phi_S(phi_U) = {lhs} but phi_(S+U) = {rhs}"
    bad = [bad[var] for var in phi.carriers() if var in bad]
    checks.append(
        CheckResult("axiom_ii", not bad, "; ".join(bad) if bad else "")
    )

    return VerificationReport(tuple(checks))


def derivation(phi: ExponentialMap, i: int, a: RElem) -> RElem:
    """D^i(a): the U^i-coefficient of phi(a).  D^0 is the identity."""
    if i < 0:
        raise InputError("derivation index must be a natural number")
    return phi.apply(a).u_coefficients().get(i, RElem.zero(phi.spec))


def degree(phi: ExponentialMap, a: RElem):
    """deg_phi(a) = deg_U(phi(a)); -inf for a = 0."""
    return phi.apply(a).degree_in("U")


def is_invariant(phi: ExponentialMap, a: RElem) -> bool:
    return phi.apply(a) == a


def evaluate_at_one(phi: ExponentialMap) -> dict:
    """The automorphism obtained by setting U = 1, as generator images.

    Its inverse is obtained by setting U = -1; the round trip is checked on
    the carriers before returning.
    """
    spec = phi.spec
    at_one = {v: img.substitute_params({"U": 1}) for v, img in phi.images.items()}
    at_neg = {v: img.substitute_params({"U": -1}) for v, img in phi.images.items()}
    for var in phi.carriers():
        forward = substitute_poly(spec, at_neg[var], at_one)
        backward = substitute_poly(spec, at_one[var], at_neg)
        if forward != RElem.var(spec, var) or backward != RElem.var(spec, var):
            raise AlgebraError(
                f"internal error: U = 1 evaluation is not invertible on {var}"
            )
    return at_one


def expand_in_slice(phi: ExponentialMap, s: RElem, a: RElem,
                    memo: SubstitutionMemo = None, image_s: RElem = None):
    """Write a = sum a_l s^l with every coefficient a_l invariant.

    Requires phi(s) = s + U.  Then phi(a) = sum a_l (s + U)^l, and the shift
    U -> U - s, a ring automorphism of R[U] in every characteristic, turns
    it into sum a_l U^l: the a_l are the U-coefficients of the shifted
    image, and a_0 = phi(a) at U = -s is the Dixmier map.  Returns
    (coefficient, power) pairs in ascending power order, nonzero
    coefficients only.  `memo`, if given, is the one that the caller keeps
    for the shift by this s (polyring.substitute_terms); `image_s`, if
    given, is phi(s) as the caller formed it, which the slice guard reads
    instead of applying phi to s again.
    """
    u = RElem.var(phi.spec, "U")
    if (phi.apply(s) if image_s is None else image_s) != s + u:
        raise AlgebraError(f"phi({s}) != {s} + U; the element is not a slice")
    shifted = substitute_poly(phi.spec, phi.apply(a), {"U": u - s}, memo)
    return [(c, l) for l, c in shifted.u_coefficients().items()]
