"""Exception types shared across the library.

The CLI maps these onto exit codes: mismatches are reported through result
objects (exit 1), while the exceptions below signal unusable inputs or
refused computations (exit 2).
"""


class FishburnError(Exception):
    """Base class for all library-specific errors."""


class SeriesCompatibilityError(FishburnError):
    """Operands disagree on ring, variable count, or truncation."""


class TruncationError(FishburnError):
    """A coefficient beyond the truncation order was requested."""


class NonInvertibleError(FishburnError):
    """Constant term (or scalar) is not invertible in the coefficient ring."""


class SubstitutionError(FishburnError):
    """A substituted series has a nonzero constant term."""


class PayloadError(FishburnError):
    """A serialized series payload is malformed or inconsistent with itself."""


class UnknownFamilyError(FishburnError):
    """Series family or identity id not registered."""


class ParameterError(FishburnError):
    """Family or identity parameters outside their admissible domain."""


class BoundExceededError(FishburnError):
    """Requested size is beyond the configured desk-scale bound."""


class CertificateError(FishburnError):
    """No termination / formal-convergence certificate; evaluation refused."""


class PoleError(FishburnError):
    """A denominator factor vanishes (or is numerically indistinguishable
    from zero) at the requested parameters."""


class ConvergenceError(FishburnError):
    """A numeric summation failed the decay guard within the term budget."""


class BFileFormatError(FishburnError):
    """Malformed OEIS b-file content."""
