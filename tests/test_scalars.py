import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dansurf import AlgebraError, FieldSpec, InputError, Scalar, binom, nth_roots
from dansurf import scalars
from dansurf.scalars import MAX_PRIME, is_prime
from conftest import F2, F3, F5, F7, F101, Q, random_scalar, rng, scan_roots

FIELDS = [Q, F2, F3, F5, F7, F101]


def test_field_spec_validation():
    FieldSpec(0)
    FieldSpec(2)
    FieldSpec(101)
    with pytest.raises(AlgebraError):
        FieldSpec(4)
    with pytest.raises(AlgebraError):
        FieldSpec(2**31)


def _trial_division(n: int) -> bool:
    """The reference: n is prime when no f with f*f <= n divides it."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def test_miller_rabin_matches_trial_division():
    # all n below 2*10^5, the 2000 integers below 2^31, products of two
    # primes near sqrt(2^31), and the strong pseudoprimes to the bases 2,
    # (2, 3) and (2, 3, 5), which base 7 or an earlier one exposes
    primes = [n for n in range(2 * 10**5) if _trial_division(n)]
    assert [n for n in range(2 * 10**5) if is_prime(n)] == primes
    for n in range(2**31 - 2000, 2**31):
        assert is_prime(n) == _trial_division(n), n
    near = [n for n in range(46300, 46400) if _trial_division(n)]
    assert near and near[0] < 46341 < near[-1]
    for a in near:
        for b in (near[0], near[-1]):
            assert not is_prime(a * b) and not _trial_division(a * b), (a, b)
    for n in (2047, 1373653, 25326001):
        assert not is_prime(n) and not _trial_division(n)
    assert is_prime(2147483647) and is_prime(2147483629)
    with pytest.raises(ValueError):
        is_prime(3215031751)


def test_characteristic_bound_keeps_is_prime_exact(monkeypatch):
    # is_prime is exact below 3215031751, and FieldSpec refuses 2^31 and up
    # before it asks is_prime
    assert MAX_PRIME <= 3215031751
    asked = []
    monkeypatch.setattr(scalars, "is_prime", lambda n: asked.append(n) or True)
    for c in (2**31, 3215031751, 2**64):
        with pytest.raises(InputError, match="exceeds the 2"):
            FieldSpec(c)
    assert asked == []
    FieldSpec(2**31 - 1)
    assert asked == [2**31 - 1]


def test_field_spec_labels():
    assert FieldSpec(0).label == "Q"
    assert FieldSpec(5).label == "F5"
    assert FieldSpec.parse("Q") == FieldSpec(0)
    assert FieldSpec.parse("F5") == FieldSpec(5)
    with pytest.raises(AlgebraError):
        FieldSpec.parse("f5")
    with pytest.raises(AlgebraError):
        FieldSpec.parse("GF(5)")


def test_scalar_normalization_is_canonical():
    a = Q.scalar(Fraction(2, 4))
    b = Q.scalar(Fraction(1, 2))
    assert a == b and hash(a) == hash(b)
    c = F5.scalar(7)
    assert c == F5.scalar(2) and c.value == 2


def canonical_q(s) -> bool:
    """An int exactly when integral, otherwise a Fraction."""
    v = s.value
    return type(v) is int if Fraction(v).denominator == 1 else type(v) is Fraction


def test_q_values_are_ints_when_integral():
    half = Q.scalar(Fraction(1, 2))
    cases = [
        (Q.scalar(3), 3),
        (Q.scalar(Fraction(4, 2)), 2),
        (half + half, 1),
        (Q.scalar(Fraction(3, 2)) - half, 1),
        (half * Q.scalar(4), 2),
        (Q.scalar(1).inv(), 1),
        (Q.scalar(-1).inv(), -1),
        (Q.scalar(-2) ** 3, -8),
        (half**-2, 4),
        (half**0, 1),
    ]
    for s, value in cases:
        assert type(s.value) is int and s.value == value, s
    for s in (half, half * Q.scalar(3), Q.scalar(2).inv(), half**3, -half):
        assert type(s.value) is Fraction, s
    assert Q.scalar(2).inv().value == Fraction(1, 2)
    # equal values compare and hash equal whatever their Python type
    assert Scalar(Q, 2) == Scalar(Q, Fraction(2)) == Q.scalar(Fraction(6, 3))
    assert hash(Scalar(Q, 2)) == hash(Scalar(Q, Fraction(2))) == hash(Q.scalar(Fraction(6, 3)))
    assert Q.scalar(2) == 2 and Q.scalar(2) == Fraction(2)


# |v| < 50 with denominators up to 6 is |v| <= 299/6: the bounds give the
# same value set as filtering on abs(v) < 50, without rejection sampling.
BOUNDED = st.fractions(min_value=Fraction(-299, 6), max_value=Fraction(299, 6), max_denominator=6)


@given(BOUNDED, BOUNDED, st.integers(-3, 3))
def test_q_arithmetic_stays_canonical(a, b, k):
    x, y = Q.scalar(a), Q.scalar(b)
    results = [x, y, x + y, x - y, y - x, x * y, -x]
    if b:
        results += [y.inv(), x / y]
    if a or k >= 0:
        results.append(x**k)
    assert all(canonical_q(s) for s in results)
    assert (x + y).value == a + b and (x * y).value == a * b


def test_scalar_arithmetic_exact():
    a = Q.scalar(Fraction(1, 3))
    assert a + a + a == 1
    assert (a / a) == 1
    assert -a + a == 0
    b = F5.scalar(3)
    assert b * b.inv() == 1
    assert b**-1 == b.inv()
    with pytest.raises(ZeroDivisionError):
        F5.zero.inv()


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30),
       st.sampled_from([0, 2, 3, 5, 7, 101]))
def test_field_axioms(xa, xb, xc, p):
    field = FieldSpec(p)
    a, b, c = field.scalar(xa), field.scalar(xb), field.scalar(xc)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if not a.is_zero():
        assert a * a.inv() == field.one


# --- binomial coefficients -------------------------------------------------

def test_binom_examples():
    # C(2,1) = 2 vanishes mod 2
    assert binom(2, 1, F2) == F2.zero
    # C(p^j q, p^j) = q mod p with (p,j,q) = (3,2,5): 5 mod 3 = 2
    assert binom(45, 9, F3) == F3.scalar(2)
    # oracle: direct integer computation
    assert binom(4, 2, Q) == Q.scalar(6)


def test_binom_out_of_range_is_zero():
    assert binom(3, 7, Q) == Q.zero
    assert binom(3, 7, F5) == F5.zero


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_binom_matches_integer_oracle(p):
    field = FieldSpec(p)
    for i in range(61):
        for j in range(61):
            assert binom(i, j, field) == field.scalar(math.comb(i, j)), (i, j, p)


def test_binom_large_indices_no_blowup():
    # Lucas reduction never builds the (astronomical) integer C(10^6, 10^3).
    assert binom(10**6, 10**3, F7) == F7.scalar(math.comb(10**6, 10**3) % 7)


def test_binom_prime_power_pattern():
    # C(p^j * q, p^j) = q mod p across several shapes
    for p, j, q in [(2, 3, 3), (3, 1, 7), (5, 2, 4), (7, 1, 2)]:
        field = FieldSpec(p)
        assert binom(p**j * q, p**j, field) == field.scalar(q % p)


def test_scalar_is_immutable():
    s = F5.scalar(3)
    for name, value in (("value", 4), ("field", F7), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(s, name, value)
    assert (s.field, s.value) == (F5, 3)


# --- root extraction --------------------------------------------------------

def test_nth_roots_examples():
    roots = nth_roots(Q.scalar(4), 2)
    assert sorted(s.value for s in roots) == [-2, 2]
    assert nth_roots(Q.scalar(2), 2) == []
    cubes = nth_roots(F7.one, 3)
    assert sorted(s.value for s in cubes) == [1, 2, 4]


def test_nth_roots_rejects_zero():
    with pytest.raises(AlgebraError):
        nth_roots(Q.zero, 2)


def test_nth_roots_rational_cases():
    assert [s.value for s in nth_roots(Q.scalar(Fraction(8, 27)), 3)] == [Fraction(2, 3)]
    assert [s.value for s in nth_roots(Q.scalar(-8), 3)] == [-2]
    assert nth_roots(Q.scalar(-4), 2) == []
    assert sorted(s.value for s in nth_roots(Q.scalar(Fraction(9, 4)), 2)) == [
        Fraction(-3, 2),
        Fraction(3, 2),
    ]


def test_nth_roots_past_the_old_scan_bound():
    # p = 10007 was refused while roots were found by scanning F_p*
    field = FieldSpec(10007)
    assert [s.value for s in nth_roots(field.one, 2)] == [1, 10006]
    assert nth_roots(field.scalar(5), 2) == scan_roots(field.scalar(5), 2)


def _primes_below(n):
    return [p for p in range(2, n) if all(p % f for f in range(2, math.isqrt(p) + 1))]


@pytest.mark.parametrize("p", _primes_below(400))
def test_nth_roots_match_brute_force(p):
    # d = 1..24 and every c: one table of d-th powers per d is the scan for
    # all c at once
    field = FieldSpec(p)
    for d in range(1, 25):
        table = {c: [] for c in range(1, p)}
        for mu in range(1, p):
            table[pow(mu, d, p)].append(mu)
        for c, expected in table.items():
            assert [s.value for s in nth_roots(field.scalar(c), d)] == expected, (d, c)


@pytest.mark.parametrize("p", [10007, 65537, 2**31 - 1])
def test_nth_roots_large_primes(p):
    # roots of mu^d = c are checked directly: p is too large to scan
    field = FieldSpec(p)
    r = rng(p)
    for d in (1, 2, 3, 5, 6, 16, 17, 30, 256, 462):
        g = math.gcd(d, p - 1)
        for c in (1, p - 1, r.randrange(1, p), pow(r.randrange(1, p), d, p)):
            roots = [s.value for s in nth_roots(field.scalar(c), d)]
            solvable = pow(c, (p - 1) // g, p) == 1
            assert len(roots) == (g if solvable else 0), (p, d, c)
            assert roots == sorted(set(roots))
            assert all(0 < mu < p and pow(mu, d, p) == c for mu in roots)


def test_nth_roots_exactness_over_q():
    r = rng(21)
    for _ in range(20):
        base = random_scalar(r, Q, nonzero=True)
        d = r.randint(1, 4)
        c = base**d
        roots = nth_roots(c, d)
        assert base in roots
        for m in roots:
            assert m**d == c
