"""Exception types shared across the package."""


class LatTransError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrix(LatTransError):
    """A matrix required to be invertible is singular to working precision."""


class NotPositiveDefinite(LatTransError):
    """A symmetric matrix required to be positive definite is not."""


class NotRightHanded(LatTransError):
    """A lattice basis has non-positive determinant."""


class InfeasibleAngles(LatTransError):
    """A triclinic angle triple does not describe a realisable cell."""


class BudgetExceeded(LatTransError):
    """An enumeration radius exceeds the configured practical guard."""


class VerificationFailed(LatTransError):
    """A built-in reproduction did not match its reference values.

    The ``failures`` attribute lists one human-readable message per
    mismatched check.
    """

    def __init__(self, failures):
        self.failures = list(failures)
        super().__init__("; ".join(self.failures))
