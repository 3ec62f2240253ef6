"""Exception taxonomy for the package.

Everything raised on purpose derives from :class:`PairCodeError`, so callers
(and the CLI) can catch one base class.  The subclasses separate the three
broad kinds of failure: bad constructions (rejected inputs), bad arithmetic
(division by zero and friends), and verification mismatches between a
closed-form prediction and an exhaustive computation.
"""


class PairCodeError(Exception):
    """Base class for all errors raised by this package."""


# --- construction / validation -------------------------------------------

class NotPrime(PairCodeError):
    """The claimed characteristic is not a prime number."""


class ReducibleModulus(PairCodeError):
    """A supplied field modulus is not irreducible."""


class DegreeMismatch(PairCodeError):
    """A polynomial has the wrong degree (or shape) for its role."""


class ConstructionRefused(PairCodeError):
    """Quotient-ring parameters or a code's basis break a structural rule."""


class ConstraintViolation(PairCodeError):
    """Code parameters fall outside their admissible range."""


class BetaMismatch(PairCodeError):
    """A code family does not exist over the given ambient ring."""


class NotUnitNorZero(PairCodeError):
    """A polynomial that must be zero or a unit is neither."""


class LengthTooShort(PairCodeError):
    """Pair-symbol reads need words of length at least two."""


class DegenerateInput(PairCodeError):
    """Equal or everywhere-different words have no block decomposition."""


class ZeroPolynomial(PairCodeError):
    """The zero polynomial was given where a nonzero one is required."""


class ZeroElement(PairCodeError):
    """A zero element was given where a nonzero one is required."""


class InvalidValue(PairCodeError):
    """A number is out of range, or its text is not an integer."""


# --- arithmetic -----------------------------------------------------------

class DivisionByZero(PairCodeError):
    """Inversion of zero in a field."""


class RingMismatch(PairCodeError):
    """Two polynomials from different quotient rings were combined."""


class ExponentOutOfRange(PairCodeError):
    """A power of the radical generator outside its nilpotency range."""


# --- computation outcomes -------------------------------------------------

class BudgetExceeded(PairCodeError):
    """An exact answer needs more codewords than the word budget allows."""


class VerificationMismatch(PairCodeError):
    """An exhaustive computation contradicts the closed-form prediction.

    ``rank`` is the GF(p)-rank found when a built code's dimension is what
    disagrees, else None.
    """

    def __init__(self, message: str, rank: int | None = None):
        super().__init__(message)
        self.rank = rank
