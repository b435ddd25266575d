"""Exception hierarchy for qalg."""


class QalgError(Exception):
    """Base class for all qalg errors."""


class DomainError(QalgError):
    """An input violates a mathematical precondition (e.g. log of a
    non-positive number, modulus outside (0,1))."""


class ConvergenceError(QalgError):
    """An iterative scheme (quadrature, root-finding, continued fraction)
    failed to reach the requested tolerance."""


class OrderError(QalgError):
    """A formal-series operation was asked for with an inadmissible
    constant term or truncation order."""


class SingularError(QalgError):
    """Evaluation requested at a pole / vanishing denominator."""


class BranchError(QalgError):
    """A solver was asked for a value outside its principal branch."""


class InsufficientData(QalgError):
    """A detection routine was given too short a sequence to decide."""


class InsufficientPrecision(QalgError):
    """The working precision is too low for the requested recognition
    bounds, or for an alternating sum that cancels below it; the message
    says how many digits are needed or were tried."""


class DegenerateBasis(QalgError):
    """Lattice reduction was given linearly dependent rows."""
