"""Exception types shared across the package.

Every error raised on a documented failure path derives from EndpointUniformError,
so callers (and the CLI) can separate parameter problems from numerical ones.
"""


class EndpointUniformError(Exception):
    """Base class for all package errors."""


class ParameterError(EndpointUniformError):
    """Invalid or inconsistent input parameters."""


class InvalidParam(ParameterError):
    """A parameter lies outside its basic domain (t > 1, delta in (0,1), ...)."""


class OutOfRange(ParameterError):
    """lambda (or Lambda) lies outside the admissible window for (t, delta)."""

    def __init__(self, message, lower=None, upper=None):
        super().__init__(message)
        self.lower = lower
        self.upper = upper


class InvalidSplit(ParameterError):
    """Split exponent b violates the sandwich required by the order-m expansion."""


class SplitOutOfRange(InvalidSplit):
    """Split point k outside (0, t^(delta-1))."""


class SigmaUnsupported(ParameterError):
    """Operation only defined on the sigma = 1/2 branch."""


class OrderViolation(ParameterError):
    """An order argument below its minimum (expansion order m >= 4, table
    level >= 0, term index >= 1, term count >= 0), or Fresnel segment
    endpoints out of order."""


class RegimeMismatch(ParameterError):
    """Large-omega formula requested below the omega threshold."""


class AssumptionViolated(ParameterError):
    """Split width a falls outside its asymptotic validity window."""


class NumericalError(EndpointUniformError):
    """Failure of a numerical procedure (as opposed to bad inputs)."""


class BranchViolation(NumericalError):
    """Phase evaluation requested on or within 1e-13 of a branch cut."""


class SingularPoint(NumericalError):
    """Derivative evaluation at a pole (z = 0 or z = 1)."""


class NegativeArgument(ParameterError):
    """Fresnel tail requires w >= 0."""


class ZeroArgument(ParameterError):
    """Large-argument Fresnel form is singular at w = 0."""


class NonConvergence(NumericalError):
    """Adaptive quadrature stopped at its panel cap or its roundoff floor.

    The partial result (a QuadratureResult) is attached so callers can inspect
    how far the integration got.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class NewtonDivergence(NumericalError):
    """Newton inversion of the phase map failed to meet its residual target."""


class RootSelectionFailure(NumericalError):
    """Could not track a continuous quadratic root along the contour.

    Reaching this indicates a bug or an off-contour query, not a tuning issue.
    """


class DegenerateData(NumericalError):
    """Slope fit attempted on errors that sit at the accuracy floor."""
