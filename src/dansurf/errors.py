"""Exception types shared across the package.

The CLI maps an InputError (ParseError included) to exit code 2 and any
other AlgebraError to exit code 1.
"""


class AlgebraError(Exception):
    """Base class of every error this package raises; on its own, a failed
    verification or an internal error."""


class InputError(AlgebraError):
    """The caller's arguments lie outside the documented domain."""


class ParseError(InputError):
    """Syntax error in an input string; .offset is the byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.message = message
        self.offset = offset


class NotDivisible(AlgebraError):
    """A required exact division by a power of x failed; carries the offending term."""


class NotCanonicalShape(AlgebraError):
    """Candidate images do not have the shape x -> mu*x, z -> (+-)z + f(x)."""
