"""Exception taxonomy shared by every module.

All library errors derive from PascalCharError so callers can catch one
type at the boundary. The CLI maps these to exit code 1 and argument
problems to exit code 2.
"""


class PascalCharError(Exception):
    """Base class for all library errors."""


class NotPrime(PascalCharError):
    """The modulus failed the deterministic primality test."""


class LimitExceeded(PascalCharError):
    """A brute-force oracle was asked to exceed its configured work bound."""


class IndexOutOfRange(PascalCharError):
    """A character index k lies outside [0, p-1)."""


class OrderMismatch(PascalCharError):
    """Cyclotomic operands of different orders were combined."""


class UndefinedTheta(PascalCharError):
    """The growth exponent log_p(phi(p)) is undefined because phi(p) is zero."""


class NotRowDominant(PascalCharError):
    """A row-dominant witness was requested for a character that has none."""


class WeilViolation(PascalCharError):
    """A per-column character-sum bound that is a theorem was violated,
    indicating an implementation bug."""
