"""Sparse exact multivariate polynomials over the fixed alphabet x, y, z, T, U, S.

Monomials are 6-tuples of exponents in the internal order (z, y, x, T, U, S);
the term order for printing and tie-breaking is graded lexicographic with
z > y > x > T > U > S.  Weighted degrees are exact rationals, so gradings
with fractional parameter weights work without rounding.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import InputError, NotDivisible
from .scalars import FieldSpec, Scalar, int_to_str, rational_to_str

VARS = ("z", "y", "x", "T", "U", "S")
VAR_INDEX = {v: i for i, v in enumerate(VARS)}
ZERO_MONO = (0, 0, 0, 0, 0, 0)
# The monomial of each variable, e.g. VAR_MONO["x"] = (0, 0, 1, 0, 0, 0).
VAR_MONO = {v: tuple(int(i == j) for j in range(6)) for i, v in enumerate(VARS)}
NEG_INF = float("-inf")

# Factor order used when rendering a single monomial (x first, as in x^2*y).
PRINT_ORDER = ("x", "y", "z", "T", "U", "S")


def mono(**exps) -> tuple:
    """Build a monomial tuple from keyword exponents, e.g. mono(x=2, y=1)."""
    m = [0] * 6
    for var, e in exps.items():
        if var not in VAR_INDEX:
            raise InputError(f"unknown variable {var!r}")
        m[VAR_INDEX[var]] = e
    return tuple(m)


def format_mono(m: tuple) -> str:
    parts = []
    for var in PRINT_ORDER:
        e = m[VAR_INDEX[var]]
        if e == 1:
            parts.append(var)
        elif e > 1:
            parts.append(f"{var}^{int_to_str(e)}")
    return "*".join(parts)


class WeightVector:
    """Rational weights on a subset of the variables.  Monomial weights are
    summed in ints: each weight as a numerator over the weights' common
    denominator, None for an unweighted variable."""

    __slots__ = ("weights", "_den", "_nums")

    def __init__(self, weights: dict):
        w = {}
        for var, val in weights.items():
            if var not in VAR_INDEX:
                raise InputError(f"unknown variable {var!r} in weight vector")
            w[var] = Fraction(val)
        self.weights = w
        self._den = lcm(*[v.denominator for v in w.values()])
        self._nums = [int(w[v] * self._den) if v in w else None for v in VARS]

    def weight(self, var: str) -> Fraction:
        if var not in self.weights:
            raise InputError(f"weight vector does not assign a weight to {var!r}")
        return self.weights[var]

    def mono_weight(self, m: tuple):
        """The weight of m: an int when the weights are integral, else a Fraction."""
        total = 0
        for var, e, num in zip(VARS, m, self._nums):
            if e:  # an unweighted var raises in weight(), which names it
                total += e * (self.weight(var) if num is None else num)
        return total if self._den == 1 else Fraction(total, self._den)

    def __eq__(self, other):
        return isinstance(other, WeightVector) and self.weights == other.weights

    def __repr__(self):
        inner = ", ".join(f"{v}:{rational_to_str(self.weights[v])}" for v in VARS
                          if v in self.weights)
        return "w{" + inner + "}"


class Poly:
    """A polynomial, stored as its reduced integer view (d, [(m, v)]): the
    coefficient of the monomial m is v/d, no v is zero, and d is the lcm of
    the reduced denominators (1 over F_p and for integral Q), so that equal
    polynomials have equal d and the same items.

    Values are immutable, and operations return fresh values.  `terms`, the
    map from monomials to nonzero Scalars, is formed from the view on first
    read and kept; the constructor Poly(field, terms) keeps the terms it is
    given and forms the view from them.
    """

    __slots__ = ("field", "_ints", "_terms")

    def __init__(self, field: FieldSpec, terms: dict):
        # Trusted constructor; terms must already be canonical.
        self.field = field
        self._terms = terms
        self._ints = terms_view(field, terms)

    @property
    def terms(self) -> dict:
        """{monomial: Scalar} over the nonzero coefficients, formed once."""
        terms = self._terms
        if terms is None:
            terms = self._terms = view_terms(self.field, self._ints)
        return terms

    def ints(self) -> tuple:
        """The reduced integer view (d, [(m, v)]) that the value is stored as
        and fold_product() reads."""
        return self._ints

    @staticmethod
    def _of_view(field: FieldSpec, view: tuple, terms: dict = None) -> "Poly":
        """The Poly of a reduced integer view (reduce_view()) and, if given,
        of the Scalar terms that are already formed for it."""
        p = object.__new__(Poly)
        p.field = field
        p._ints = view
        p._terms = terms
        return p

    @staticmethod
    def from_items(field: FieldSpec, items) -> "Poly":
        terms = {}
        for m, c in items:
            c = field.scalar(c)
            if m in terms:
                c = terms[m] + c
            if c.is_zero():
                terms.pop(m, None)
            else:
                terms[m] = c
        return Poly(field, terms)

    @staticmethod
    def zero(field: FieldSpec) -> "Poly":
        return Poly._of_view(field, (1, []))

    @staticmethod
    def const(field: FieldSpec, value) -> "Poly":
        v = field.scalar(value).value
        return Poly._of_view(field, (v.denominator, [(ZERO_MONO, v.numerator)] if v else []))

    @staticmethod
    def variable(field: FieldSpec, name: str, exp: int = 1) -> "Poly":
        i = VAR_INDEX.get(name)
        if i is None:
            raise InputError(f"unknown variable {name!r}")
        m = [0] * 6
        m[i] = exp
        return Poly._of_view(field, (1, [(tuple(m), 1)]))

    def _like(self, view: tuple) -> "Poly":
        """A value of self's kind with the given reduced view: the one
        constructor of the methods whose result has the kind of self."""
        return Poly._of_view(self.field, view)

    def _coerce(self, other):
        # exactly a Poly: an element of a quotient ring is not a polynomial
        if type(other) is Poly:
            if other.field is not self.field and other.field != self.field:
                raise InputError("polynomials over different fields")
            return other
        if isinstance(other, (int, Scalar)):
            return Poly.const(self.field, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o._ints[1]:
            return self
        return self._like(add_views(self.field, self._ints, o._ints))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o._ints[1]:
            return self
        return self._like(add_views(self.field, self._ints, o._ints, -1))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        d, items = self._ints
        p = self.field.characteristic
        return self._like((d, [(m, p - v) for m, v in items] if p else
                              [(m, -v) for m, v in items]))

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        many, one = self, o
        if len(one._ints[1]) != 1:
            if len(many._ints[1]) == 1:
                many, one = one, many
            elif not (many._ints[1] and one._ints[1]):
                return Poly.zero(self.field)
            else:
                acc = Accumulator()
                fold_product(acc, self._ints, o._ints)
                return Poly._of_view(self.field, reduce_view(self.field, acc))
        # a one-term factor, as in the products that build a relation, a
        # shear or exp-build's F from parsed parts: shift the exponents and
        # multiply each Scalar by its one; a product of nonzero field
        # elements needs no zero test
        ((b0, b1, b2, b3, b4, b5), c), = one.terms.items()
        terms = {}
        for (a0, a1, a2, a3, a4, a5), v in many.terms.items():
            terms[a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5] = v * c
        return Poly(self.field, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if not isinstance(k, int) or k < 0:
            raise InputError("polynomial powers must be natural numbers")
        return power({1: self}, k) if k else Poly.const(self.field, 1)

    def dense_over_q(self) -> bool:
        """Whether power() steps up: over Q, three terms in two variables (the
        e-th power of a binomial has e + 1 terms, like a univariate one's)."""
        return (not self.field.characteristic and len(self._ints[1]) > 2
                and len(self.variables()) > 1)

    def is_monomial(self) -> bool:
        """At most one term, so power() forms c^e*m^e in one step."""
        return len(self._ints[1]) <= 1

    def monomial_power(self, e: int) -> "Poly":
        """self^e (e >= 1) for a base of at most one term: c^e*m^e, whose
        view is (d^e, [(m^e, v^e)]), reduced as (d, [(m, v)]) is."""
        d, items = self._ints
        if not items:
            return self
        ((a0, a1, a2, a3, a4, a5), v), = items
        m = (a0 * e, a1 * e, a2 * e, a3 * e, a4 * e, a5 * e)
        p = self.field.characteristic
        return self._like((1, [(m, pow(v, e, p))]) if p else (d**e, [(m, v**e)]))

    def frobenius(self) -> "Poly":
        """self^p over F_p: every exponent of the view times p, the values
        kept, as (sum c*m)^p = sum c^p*m^p and c^p = c."""
        p = self.field.characteristic
        return self._like((1, [((a0 * p, a1 * p, a2 * p, a3 * p, a4 * p, a5 * p), v)
                               for (a0, a1, a2, a3, a4, a5), v in self._ints[1]]))

    def scale(self, c) -> "Poly":
        """c*self: each value times c's numerator, over d times c's
        denominator, in lowest terms (mod p over F_p)."""
        c = self.field.scalar(c).value
        d, items = self._ints
        p = self.field.characteristic
        if not c:
            return self._like((1, []))
        if p:
            return self._like((1, [(m, v * c % p) for m, v in items]))
        k = c.numerator
        return self._like(lowest_terms(d * c.denominator, [(m, v * k) for m, v in items]))

    def __bool__(self):
        return bool(self._ints[1])

    def is_zero(self) -> bool:
        return not self._ints[1]

    def is_constant(self) -> bool:
        items = self._ints[1]
        return not items or (len(items) == 1 and items[0][0] == ZERO_MONO)

    def __eq__(self, other):
        if type(other) is not Poly:
            return NotImplemented
        return self.field == other.field and same_view(self._ints, other._ints)

    def __hash__(self):
        d, items = self._ints
        return hash((self.field, d, frozenset(items)))

    def variables(self) -> set:
        used = set()
        for m, _ in self._ints[1]:
            for i, e in enumerate(m):
                if e:
                    used.add(VARS[i])
        return used

    def constant_value(self) -> Scalar:
        """The coefficient of the constant monomial."""
        d, items = self._ints
        for m, v in items:
            if m == ZERO_MONO:
                return coefficient(self.field, v, d)
        return self.field.zero

    def coeff_of(self, var: str, k: int) -> "Poly":
        """The coefficient of var^k, as a polynomial in the remaining variables."""
        vi = VAR_INDEX[var]
        d, items = self._ints
        return Poly._of_view(self.field, lowest_terms(
            d, [(m[:vi] + (0,) + m[vi + 1 :], v) for m, v in items if m[vi] == k]))

    def degree_in(self, var: str):
        vi = VAR_INDEX[var]
        return max((m[vi] for m, _ in self._ints[1]), default=NEG_INF)

    def substitute(self, bindings: dict) -> "Poly":
        """Homomorphic substitution; variables absent from bindings map to themselves."""
        images = {}
        for var, val in bindings.items():
            if var not in VAR_INDEX:
                raise InputError(f"unknown variable {var!r} in substitution")
            if type(val) is not Poly:
                val = Poly.const(self.field, val)
            elif val.field != self.field:
                raise InputError("substitution value over a different field")
            images[var] = val
        if unmoved(self, images):
            return Poly._of_view(self.field, self._ints, self._terms)
        return Poly._of_view(self.field, substitute_terms(self, images))

    def weighted_degree(self, w: WeightVector):
        """max over terms of the weighted exponent sum; -inf on the zero polynomial."""
        weight = w.mono_weight
        return max((weight(m) for m, _ in self._ints[1]), default=NEG_INF)

    def top_part(self, w: WeightVector) -> "Poly":
        """The sum of the terms achieving the weighted degree, each weight
        read once."""
        d, items = self._ints
        if not items:
            raise InputError("top part of the zero polynomial is undefined")
        weight = w.mono_weight
        weights = [weight(m) for m, _ in items]
        best = max(weights)
        return self._like(lowest_terms(d, [it for it, wt in zip(items, weights) if wt == best]))

    def divide_var_power(self, var: str, m: int) -> "Poly":
        """Exact division by var^m; raises NotDivisible naming the offending term."""
        vi = VAR_INDEX[var]
        d, items = self._ints
        lowered = []
        for mo, v in items:
            if mo[vi] < m:
                c = coefficient(self.field, v, d)
                term = f"{c}*{format_mono(mo)}" if format_mono(mo) else str(c)
                raise NotDivisible(f"term {term} has {var}-exponent {int_to_str(mo[vi])} < "
                                   f"{int_to_str(m)}")
            lowered.append((mo[:vi] + (mo[vi] - m,) + mo[vi + 1 :], v))
        return self._like((d, lowered))

    def __repr__(self):
        return f"Poly({format_poly(self)} over {self.field.label})"

    def __str__(self):
        return format_poly(self)


def terms_view(field: FieldSpec, terms: dict) -> tuple:
    """The reduced integer view of canonical Scalar terms: d is the lcm of
    the coefficient denominators and v each coefficient times d, an int."""
    items = [(m, c.value) for m, c in terms.items()]
    d = 1 if field.characteristic else lcm(*{v.denominator for _, v in items})
    if d != 1:
        items = [(m, v.numerator * (d // v.denominator)) for m, v in items]
    return d, items


def coefficient(field: FieldSpec, v: int, d: int) -> Scalar:
    """The Scalar v/d of a view's value v over its denominator d."""
    return Scalar(field, v if d == 1 else Fraction(v, d) if v % d else v // d)


def lowest_terms(den: int, items: list) -> tuple:
    """The view (den, items) with the common factor of den and every value
    divided out, so that den is the lcm of the reduced denominators; a view
    over F_p has den = 1 and is returned as it is."""
    if den != 1:
        g = gcd(den, *[v for _, v in items])
        if g != 1:
            den //= g
            items = [(m, v // g) for m, v in items]
    return den, items


def same_view(a: tuple, b: tuple) -> bool:
    """Whether two reduced views are one polynomial: the same denominator
    and the same items, in any order."""
    (da, la), (db, lb) = a, b
    return da == db and len(la) == len(lb) and (la == lb or dict(la) == dict(lb))


def add_views(field: FieldSpec, left: tuple, right: tuple, sign: int = 1) -> tuple:
    """The reduced view of left + sign*right (sign = 1 or -1): the values of
    both over the lcm of their denominators, summed, and reduced once by
    reduce_view()."""
    (dl, left), (dr, right) = left, right
    acc = Accumulator()
    d = acc.den = dl if dl == dr else lcm(dl, dr)
    k = d // dl
    sums = acc.sums = dict(left) if k == 1 else {m: v * k for m, v in left}
    k = sign * (d // dr)
    get = sums.get
    for m, v in right:
        s = get(m)
        sums[m] = v * k if s is None else s + v * k
    return reduce_view(field, acc)


class Accumulator:
    """Raw sums of term-pair products: int numerators `sums` over the one
    common denominator `den`, which is 1 over F_p and while every folded
    operand is integral."""

    __slots__ = ("den", "sums")

    def __init__(self):
        self.den = 1
        self.sums = {}


def fold_product(acc: Accumulator, left: tuple, right: tuple) -> None:
    """Add the product of two integer views (Poly.ints()) to acc: one int
    product and one int sum per term pair, in every field.  A product with
    a new denominator rescales acc to the common one first; reduce_view()
    turns the sum of any number of products into a view."""
    (dl, left), (dr, right) = left, right
    if not (left and right):
        return
    d, sums = dl * dr, acc.sums
    if d != acc.den:  # only over Q, with a fractional operand
        common = lcm(acc.den, d)
        if common != acc.den:
            k = common // acc.den
            for m in sums:
                sums[m] *= k
            acc.den = common
        if common != d:
            k = common // d
            left = [(m, v * k) for m, v in left]
    get = sums.get
    for (a0, a1, a2, a3, a4, a5), v in left:
        for (b0, b1, b2, b3, b4, b5), w in right:
            m = (a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5)
            s = get(m)
            sums[m] = v * w if s is None else s + v * w


def reduce_view(field: FieldSpec, acc: Accumulator) -> tuple:
    """The one reduction of a fold: the reduced integer view (d, [(m, v)]) of
    the raw sums in acc, which a Poly stores.  Each value is reduced mod p,
    or over Q the numerators and the common denominator are divided by
    their gcd (lowest_terms()); zeros are dropped and no Scalar is formed."""
    p = field.characteristic
    if p:
        items = []
        for m, v in acc.sums.items():
            v %= p
            if v:
                items.append((m, v))
        return 1, items
    return lowest_terms(acc.den, [(m, v) for m, v in acc.sums.items() if v])


def view_terms(field: FieldSpec, view: tuple) -> dict:
    """The terms of a reduced view, as Poly.terms forms them on first read:
    Scalars v // d where d divides v, else Fraction(v, d)."""
    d, items = view
    return {m: coefficient(field, v, d) for m, v in items}


# The integer view of the constant 1, in every field.
UNIT_VIEW = (1, ((ZERO_MONO, 1),))


def power(memo: dict, e: int):
    """base^e (e >= 1) for memo = {1: base, ...}, memoised.

    A base of at most one term gets c^e*m^e in one step and keeps only
    base^e.  In characteristic p, from e = p on, base^e =
    frobenius(base^(e // p)) * base^(e % p): the p-th power of a sum is the
    sum of the p-th powers, so (S + U)^(p^k) = S^(p^k) + U^(p^k) costs no
    product at all.
    Powers of a base that is dense_over_q() are dense, and a product by the
    small base costs less than a square (Fateman, Stud. Appl. Math. 53,
    1974), so it steps up from its largest memoised power below e and keeps
    only base^e (ask in ascending order).  Any other base steps from e - 1
    when that power is memoised and squares otherwise.
    """
    if e not in memo:
        base = memo[1]
        p = base.field.characteristic
        if base.is_monomial():
            memo[e] = base.monomial_power(e)
        elif p and e >= p:
            q, r = divmod(e, p)
            frob = power(memo, q).frobenius()
            memo[e] = frob * power(memo, r) if r else frob
        elif base.dense_over_q():
            # the keys copied: a memo that a map shares may grow meanwhile
            k = max([k for k in list(memo) if k < e])
            acc = memo[k]
            for _ in range(k, e):
                acc = acc * base
            memo[e] = acc
        elif e - 1 in memo:
            memo[e] = memo[e - 1] * base
        elif e % 2:
            memo[e] = power(memo, e - 1) * base
        else:
            half = power(memo, e // 2)
            memo[e] = half * half
    return memo[e]


def is_variable(img, var: str) -> bool:
    """Whether the Poly or RElem img is the variable var itself, read from
    its integer view."""
    d, items = img.ints()
    return d == 1 and len(items) == 1 and items[0] == (VAR_MONO[var], 1)


def moved_indices(images: dict, memo: SubstitutionMemo = None) -> list:
    """The indices of the variables whose image in `images` is not the
    variable itself; kept in `memo`, formed on first use, where the caller
    keeps one for these images."""
    if memo is not None and memo.moved is not None:
        return memo.moved
    moved = [VAR_INDEX[var] for var, img in images.items() if not is_variable(img, var)]
    if memo is not None:
        memo.moved = moved
    return moved


def unmoved(p: Poly, images: dict, z_top: float = float("inf"),
            memo: SubstitutionMemo = None) -> bool:
    """Whether p is its own image under the Poly or RElem `images`: no term
    has a positive exponent in a variable whose image is not itself, nor a
    z-exponent above z_top.  One scan of p's terms, which stops at the
    first that fails; the moved variables are read from `memo` where the
    caller keeps one for these images."""
    moved = moved_indices(images, memo)
    for m, _ in p.ints()[1]:
        if m[0] > z_top:
            return False
        for i in moved:
            if m[i]:
                return False
    return True


class SubstitutionMemo:
    """What substitution through one fixed set of images forms: the indices
    of the moved variables (moved_indices()), the memoised powers (power())
    of each bound image, by variable index, and the product of each group's
    bound powers as a reduced view, by the group's exponent tuple.  A caller
    that substitutes through the same images again keeps one, as an
    exponential map does, so that each is formed once."""

    __slots__ = ("moved", "powers", "products")

    def __init__(self):
        self.moved = None
        self.powers = {}
        self.products = {}


def substitute_terms(p: Poly, images: dict, fold_relation=None,
                     memo: SubstitutionMemo = None) -> tuple:
    """The reduced integer view of p with the Poly or RElem `images`
    substituted, which the caller builds its value from.

    A variable whose image is itself stays free, except z, so that an RElem
    image's product reduces every power of z.  Any other image of at most
    one term (is_monomial()) acts in place: each term's free part takes
    exponent + e*m and coefficient times c^e (pow(c, e, p) over F_p; over Q
    the image's denominator joins the view's common one), and a zero image
    drops the terms with e > 0.  The remaining images are bound.
    The terms of p's view are grouped by their exponents in the bound
    variables, and the exponents of each dense_over_q() image collected on
    the way, so that its powers are formed first, in ascending order, and no
    stepping chain is walked twice.  Each group's memoised bound powers are
    multiplied together on views, each partial product reduced by
    reduce_view() (after `fold_relation` rewrites the z^2 sums where the
    images are ring elements), and the group's free part times that product
    is folded into one accumulator, which reduce_view() reduces too.  The
    powers and group products live in `memo` where the caller keeps one for
    these images, else for this call only."""
    powers, products = ({}, {}) if memo is None else (memo.powers, memo.products)
    field = p.field
    q = field.characteristic
    den, items = p.ints()
    moved = moved_indices(images, memo)
    bound, acts, cleared = [], [], []
    for var, img in images.items():
        i = VAR_INDEX[var]
        if var != "z" and i not in moved:
            continue
        if var == "z" or not img.is_monomial():
            bound.append((i, powers.setdefault(i, {1: img})))
        else:
            d, its = img.ints()
            (m_img, c), = its or ((ZERO_MONO, 0),)
            top = 0
            if d != 1:  # over Q: (c/d)^e = c^e*d^(top - e)/d^top
                top = max((m[i] for m, _ in items), default=0)
                den *= d**top
            acts.append((i, m_img, c, d, top))
        cleared.append(i)
    bound.sort()
    dense = [(i, pw, set()) for i, pw in bound if pw[1].dense_over_q()]
    groups = {}
    for m, v in items:
        free = list(m)
        for i in cleared:
            free[i] = 0
        for i, m_img, c, d, top in acts:
            e = m[i]
            if e:
                if not c:
                    break  # a zero image
                free = [a + e * b for a, b in zip(free, m_img)]
                v = v * pow(c, e, q) % q if q else v * c**e
            if d != 1:
                v *= d ** (top - e)
        else:
            for i, _, seen in dense:
                seen.add(m[i])
            groups.setdefault(tuple([m[i] for i, _ in bound]), []).append((tuple(free), v))
    for _, pw, seen in dense:
        for e in sorted(seen):
            if e:
                power(pw, e)
    acc = Accumulator()
    for exps, free in groups.items():
        view = products.get(exps)
        if view is None:
            for (_, pw), e in zip(bound, exps):
                if e:
                    pe = power(pw, e).ints()
                    if view is None:
                        view = pe
                    else:
                        part = Accumulator()
                        fold_product(part, view, pe)
                        if fold_relation is not None:
                            fold_relation(part)
                        view = reduce_view(field, part)
            # the group of terms free of the bound variables folds with 1
            products[exps] = view = UNIT_VIEW if view is None else view
        fold_product(acc, (den, free), view)
    return reduce_view(field, acc)


def format_poly(p: Poly) -> str:
    """Canonical text form; parse(format(p)) reproduces p exactly.  Printed
    from the view: each value over the denominator in lowest terms, one gcd
    per term."""
    d, items = p.ints()
    if not items:
        return "0"
    signed = not p.field.characteristic  # residues in [0, p) print unsigned
    pieces = []
    # descending graded-lex order (z > y > x > T > U > S)
    for m, v in sorted(items, key=lambda kv: (sum(kv[0]), kv[0]), reverse=True):
        negative = signed and v < 0
        g = gcd(v, d)  # 1 where d = 1
        mag = int_to_str(abs(v) // g) + (f"/{int_to_str(d // g)}" if g != d else "")
        ms = format_mono(m)
        if not ms:
            body = mag
        elif mag == "1":
            body = ms
        else:
            body = f"{mag}*{ms}"
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f" - {body}" if negative else f" + {body}")
    return "".join(pieces)
