"""Exception types shared across the package.

Everything derives from OULabError so the CLI can map failures to exit
codes without enumerating modules.
"""


class OULabError(Exception):
    """Base class for all package errors."""


class DimensionError(OULabError):
    """Array shapes do not match the model dimension."""


class NotSPDError(OULabError):
    """Matrix is not symmetric positive definite."""


class NotStableError(OULabError):
    """Drift matrix has an eigenvalue with nonnegative real part."""


class NonPositiveTimeError(OULabError):
    """A time parameter that must be positive is not."""


class SingularPropagatorError(OULabError):
    """e^{tB} is singular in floating point at a time t <= T_SWITCH, so
    the kernel's group D_t = Qinf e^{-tB^T} Qinf^-1 cannot be formed."""


class NumericalOverflowError(OULabError):
    """A value leaves float64's reach: exp() of a computed log-value
    overflows (use the log form), or the kernel's small-time form A =
    Qt^-1 - Qinf^-1 cancels to a matrix that is not positive definite."""


class EmptyPathError(OULabError):
    """A sampled path needs at least one point."""


class BadOrderError(OULabError):
    """An order, index or name lies outside what the routine defines: a
    variation order rho < 1 (or below a probe's own floor), a quadrature
    order or scale index out of range, an lmax or exponent p out of range,
    or an unknown bound name, regime, form, part or operator."""


class TooLongError(OULabError):
    """Exhaustive enumeration refused: path too long."""


class ZeroPointError(OULabError):
    """Operation requires a nonzero point."""


class BracketFailError(OULabError):
    """Root bracketing for the polar parameter failed."""


class AlphaTooSmallError(OULabError):
    """Annulus level alpha must exceed 2."""


class ModelFileError(OULabError):
    """Model file is missing, unreadable, or malformed."""


class RateTooLargeError(OULabError):
    """Candidate Gaussian rate exceeds the model's admissible rate."""


class ArgumentRangeError(OULabError):
    """A probe setting is malformed or lies outside the range the probe
    supports, such as a scale count N beyond the dyadic experiments' limits;
    raised before any work is done, so no report is written."""
