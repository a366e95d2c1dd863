"""Exception hierarchy.

Every error raised by this package derives from KlmomentsError so callers
can catch the whole family at a pipeline boundary. The leaf classes mirror
the failure modes of the arithmetic contracts: most signal a caller mistake
(bad argument, missing data), while NotRational, DivisibilityFailure,
RangeFailure and IdentityFailure signal that a quantity the underlying
theory forces has come out wrong, i.e. an implementation bug or an
identity that genuinely fails.
"""


class KlmomentsError(Exception):
    """Base class for all errors raised by klmoments."""


class EvenModulus(KlmomentsError):
    """Jacobi symbol requested for an even lower argument."""


class EvenInput(KlmomentsError):
    """Double factorial requested for an even integer."""


class ModulusMismatch(KlmomentsError):
    """Arithmetic between cyclotomic integers of different conductor."""


class NotRational(KlmomentsError):
    """A cyclotomic integer expected to be rational is not."""


class ZeroParameter(KlmomentsError):
    """Kloosterman sum requested at the excluded parameter a = 0."""


class ExactLimitExceeded(KlmomentsError):
    """Prime too large for the exact cyclotomic path; use the float path."""


class PrimeTooLarge(KlmomentsError):
    """Prime above moments.PRIME_CEILING: its power-sum tables would not fit
    in memory."""


class InputTooLarge(KlmomentsError):
    """Input above the ceiling of the module that does the work
    (moments.TABLE_CEILING, modforms.ETA_TERMS_CEILING,
    modforms.ETA_DIGITS_BUDGET, invariants.DIMS_CEILING,
    invariants.MOLIEN_CEILING): the run would not fit in memory or time."""


class AmbiguousRounding(KlmomentsError):
    """Float enclosure admits zero or several congruence-admissible integers."""


class MissingPowerSum(KlmomentsError):
    """Power-sum table lacks an index needed by a moment formula."""


class WrongConvention(KlmomentsError):
    """Power-sum table has the wrong convention for the requested formula."""


class UnsupportedDegree(KlmomentsError):
    """Dimension/Swan formula requested outside its degree domain."""


class EvenPrime(KlmomentsError):
    """Determinant formula requested at p = 2, where it is not defined."""


class FractionalOrder(KlmomentsError):
    """Eta quotient whose leading q-exponent is not an integer."""


class NotNormalized(KlmomentsError):
    """q-series validator requires a(1) = 1."""


class TruncationTooShort(KlmomentsError):
    """q-series truncated below the requested coefficient index."""


class DivisibilityFailure(KlmomentsError):
    """An asserted exact divisibility of a moment combination fails."""


class RangeFailure(KlmomentsError):
    """A trace quantity falls outside its proven spectral range."""


class IdentityFailure(KlmomentsError):
    """An exact table or orbit sum breaks an identity the theory forces."""


class CacheMismatch(KlmomentsError):
    """Two power-sum tables of one prime disagree (moments._check_agreement):
    in the cache, in the float audit, or in `sums --method both`."""
