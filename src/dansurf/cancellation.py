"""The cylinder construction behind non-cancellation.

For 2 <= n1 < n2 <= 2*n1 and h1 = h2 = 1, the smaller ring R_1 embeds into
R_2[T] by

    x_1 -> x,
    z_1 -> z_2 + x^{n1} T,
    y_1 -> x^{n2-n1} y_2 + (2 z_1 + 1) T - x^{n1} T^2,

and R_2[T] carries an exponential map fixing the embedded R_1:

    phi(y_2) = y_2 + (2 z_1 - 2 x^{n1} T + 1) U + x^{n2} U^2,
    phi(T)   = T - x^{n2-n1} U,

with the slice

    s = -4 x^{3n1-n2} T^3 + 3 x^{2n1-n2} (2 z_1 + 1) T^2
        + 4 x^{n1} y_2 T + y_2 (2 z_1 + 1),

satisfying phi(s) = s + U, which forces R_2[T] = R_1[s].  Every displayed
identity is machine-checked by verify_witness; the identity involving a
negative power of x is restated multiplied through by x^{n2-n1} so it lives
inside the ring.

That R_2[T] = R_1[s] is checked on T, y_2, z_2, T^2 and y_2 z_2: each is
expanded as sum c_l s^l and rebuilt from its expansion, and every c_l must
be invariant.  Once phi passes the exponential check it is a ring
homomorphism of R_2[T] with phi_S(phi_U(a)) = phi_{S+U}(a) for every a,
and then each c_l is invariant with no substitution: the c_l are the
U-coefficients of Psi(a) = phi(a)(U - s), and applying phi_S to them with U
fixed gives phi_{S+U}(a) at U -> U - s - S, which is Psi(a) again, since
phi(s) = s + U.  No division enters, so this holds in every characteristic.
When the exponential check fails, every c_l is substituted.  By the same
token phi fixes y_1 once it fixes x and z_1, since x^{n1} y_1 = z_1^2 + z_1
and x is a nonzerodivisor; and phi(s) is formed once, for the slice check
and every expansion.
"""

from __future__ import annotations

from .errors import AlgebraError, InputError
from .expmaps import (
    CheckResult,
    ExponentialMap,
    VerificationReport,
    build_exponential,
    expand_in_slice,
    verify_exponential,
)
from .polyring import Poly, SubstitutionMemo, power
from .records import Record
from .scalars import FieldSpec, int_to_str
from .surface import RElem, RingSpec


class CancellationWitness(Record):
    """The embedding, the map and the slice; build_witness keeps the passing
    report of verify_witness as `report`."""

    _fields = ("spec2", "n1", "n2", "x1", "z1", "y1", "phi", "s", "report")

    def __init__(self, spec2: RingSpec, n1: int, n2: int, x1: RElem, z1: RElem, y1: RElem,
                 phi: ExponentialMap, s: RElem, report: VerificationReport | None = None):
        vars(self).update(spec2=spec2, n1=n1, n2=n2, x1=x1, z1=z1, y1=y1, phi=phi, s=s,
                          report=report)


def build_witness(field: FieldSpec, n1: int, n2: int) -> CancellationWitness:
    """Construct the embedding, the map, and the slice, then verify everything.

    The passing report is kept as the witness's `report`.
    """
    if not (2 <= n1 < n2 <= 2 * n1):
        raise InputError(
            f"need 2 <= n1 < n2 <= 2*n1; got n1={int_to_str(n1)}, n2={int_to_str(n2)}"
        )
    spec2 = RingSpec(field, n2, Poly.const(field, 1))
    x = RElem.var(spec2, "x")
    y = RElem.var(spec2, "y")
    z = RElem.var(spec2, "z")
    t = RElem.var(spec2, "T")
    u = RElem.var(spec2, "U")

    z1 = z + x**n1 * t
    y1 = x ** (n2 - n1) * y + (2 * z1 + 1) * t - x**n1 * t**2

    img_t = t - x ** (n2 - n1) * u
    img_y = y + (2 * z1 - 2 * x**n1 * t + 1) * u + x**n2 * u**2
    img_z = z1 - x**n1 * img_t
    # unverified: the "exponential" check of verify_witness verifies it
    phi = ExponentialMap(spec2, {"x": x, "y": img_y, "z": img_z, "T": img_t})

    s = (
        -4 * x ** (3 * n1 - n2) * t**3
        + 3 * x ** (2 * n1 - n2) * (2 * z1 + 1) * t**2
        + 4 * x**n1 * y * t
        + y * (2 * z1 + 1)
    )

    report = verify_witness(CancellationWitness(spec2, n1, n2, x, z1, y1, phi, s))
    if not report.passed:
        raise AlgebraError(
            "internal error: cylinder construction failed verification: "
            + report.summary()
        )
    return CancellationWitness(spec2, n1, n2, x, z1, y1, phi, s, report)


def _zero_check(name: str, value: RElem, label: str = "") -> CheckResult:
    """Passes when value is zero; otherwise the detail shows the value."""
    return CheckResult(name, value.is_zero(), "" if value.is_zero() else f"{label}{value}")


def verify_witness(w: CancellationWitness) -> VerificationReport:
    """Run the seven checks; failures become report checks, never exceptions.

    invariance applies phi to x1 and z1.  y1 is certified without an apply
    when the exponential and embedded_relation checks passed, x1 is x and
    phi fixes x and z1: phi is then a ring homomorphism, so x^n1*phi(y1) =
    phi(z1)^2 + phi(z1) = x^n1*y1, and x is a nonzerodivisor of R2[T][U].
    Otherwise phi is applied to y1 too.  phi(s) is formed once, by the
    slice_action check, and each expansion's slice guard reads it.

    slice_generates expands T, y2, z2, T^2 and y2*z2 in the slice
    (expand_in_slice, whose guard checks phi(s) = s + U), asks each
    expansion to rebuild its element, and asks each coefficient c to be
    invariant.  When the exponential check passed, no c is substituted:
    phi is then a ring homomorphism of R2[T] (the relation check) whose
    coaction identity holds on every carrier, T included, and so on all of
    R2[T], as both sides are homomorphisms.  The c_l of a are the
    U-coefficients of Psi(a) = phi(a)(U - s), and applying phi_S to them
    with U fixed gives phi_(S+U)(a) at U -> U - s - S, which is Psi(a): so
    phi(c_l) = c_l, with no division, in every characteristic.  When the
    exponential check failed, every coefficient of every row is
    substituted, phi(c) = c, so the report is the one that substituting
    every coefficient gives in every case.
    """
    spec2 = w.spec2
    x = RElem.var(spec2, "x")
    y = RElem.var(spec2, "y")
    z = RElem.var(spec2, "z")
    t = RElem.var(spec2, "T")
    u = RElem.var(spec2, "U")
    checks = []

    report = verify_exponential(w.phi)
    checks.append(CheckResult("exponential", report.passed, report.summary()))

    emb = x**w.n1 * w.y1 - (w.z1 * w.z1 + w.z1)
    checks.append(_zero_check("embedded_relation", emb))

    rec_z = w.z1 - x**w.n1 * t
    rec = x**w.n2 * y - (rec_z * rec_z + rec_z)
    checks.append(_zero_check("recovered_relation", rec))

    fixed = {name: w.phi.apply(elem) == elem for name, elem in (("x", w.x1), ("z1", w.z1))}
    # x^n1*y1 = z1^2 + z1 and x is a nonzerodivisor: phi fixes y1 if it fixes x and z1
    certify_y1 = checks[0].passed and checks[1].passed and w.x1 == x and all(fixed.values())
    fixed["y1"] = certify_y1 or w.phi.apply(w.y1) == w.y1
    moved = [name for name in ("x", "y1", "z1") if not fixed[name]]
    checks.append(
        CheckResult(
            "invariance",
            not moved,
            "" if not moved else "not invariant: " + ", ".join(moved),
        )
    )

    image_s = w.phi.apply(w.s)
    slice_diff = image_s - (w.s + u)
    checks.append(_zero_check("slice_action", slice_diff, "phi(s) - s - U = "))

    linear = x ** (w.n2 - w.n1) * w.s + t - w.y1 * (2 * w.z1 + 1)
    checks.append(_zero_check("linear_form", linear))

    bad = []
    # the powers of s and of U - s, formed once for the five elements
    powers, shift = {1: w.s}, SubstitutionMemo()
    certified = checks[0].passed  # phi is exponential: every expansion coefficient is invariant
    for name, a in (("T", t), ("y2", y), ("z2", z), ("T^2", t * t), ("y2*z2", y * z)):
        try:
            parts = expand_in_slice(w.phi, w.s, a, shift, image_s)
        except AlgebraError as exc:
            bad.append(f"{name}: {exc}")
            continue
        rebuilt = RElem.zero(spec2)
        for coeff, k in parts:
            if not certified and w.phi.apply(coeff) != coeff:
                bad.append(f"{name}: coefficient of s^{k} is not invariant")
            rebuilt = rebuilt + (coeff * power(powers, k) if k else coeff)
        if rebuilt != a:
            bad.append(f"{name}: reconstruction differs")
    checks.append(
        CheckResult("slice_generates", not bad, "; ".join(bad))
    )

    return VerificationReport(tuple(checks))


def restrict_to_surface(w: CancellationWitness) -> ExponentialMap:
    """The induced map on R_2 (drop T); equals the coefficient-family map F = U."""
    images = {v: w.phi.image(v) for v in ("x", "y", "z")}
    for var, img in images.items():
        if img.degree_in("T") >= 1:
            raise InputError(f"restricted image of {var} still involves T")
    reference = build_exponential(w.spec2, [(1, 1)])
    if images != reference.images:
        raise AlgebraError("internal error: restriction differs from the F = U map")
    return reference
