"""Exception types shared across the package."""


class AlgebraError(Exception):
    """Base class for all algebraic failures raised by this package."""


class FieldMismatch(AlgebraError):
    """Operands live over different ground fields."""


class NotDivisible(AlgebraError):
    """A required exact division by a power of x failed; carries the offending term."""


class UnreducedSpec(AlgebraError):
    """A ring spec has deg_x(h) >= n; run reduce_presentation first."""


class IllegalExponent(AlgebraError):
    """A generator-image exponent is not allowed in this characteristic."""


class TrivialMap(AlgebraError):
    """Operation requires a nontrivial exponential map."""


class InhomogeneousTarget(AlgebraError):
    """The target relation is not homogeneous under the given weights."""


class NotEndomorphism(AlgebraError):
    """Candidate generator images do not preserve the defining relation."""


class NotCanonicalShape(AlgebraError):
    """Candidate images do not have the shape x -> mu*x, z -> (+-)z + f(x)."""


class NotInvertible(AlgebraError):
    """Candidate endomorphism has no inverse."""


class InvalidMu(AlgebraError):
    """Scaling factor mu does not satisfy h(mu*x) = h(x)."""


class IllegalParameters(AlgebraError):
    """Construction parameters outside the supported range."""


class StepLimit(AlgebraError):
    """Iteration guard tripped; the recursion did not terminate in time."""


class NotApplicable(AlgebraError):
    """The element is not a slice: phi(s) != s + U."""


class ParseError(AlgebraError):
    """Syntax error in an input string; .offset is the byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.message = message
        self.offset = offset
