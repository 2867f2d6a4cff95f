"""Exception types shared across the library."""


class SpinctlError(Exception):
    """Base class for every library-specific error."""


class AmbiguousAxis(SpinctlError):
    """Rotation by pi: the axis cannot be recovered from the quaternion."""


class DomainError(SpinctlError):
    """Argument outside the mathematical domain of a special function."""


class SingularCot(SpinctlError):
    """The rotation-vector ODE entered the guard band of a cotangent pole.

    The pole sits where the accumulated rotation angle hits a nonzero
    multiple of 2*pi; integration refuses rather than guessing a branch.
    A batched integration names the offending ``lane`` as (path index, eps).
    """

    def __init__(self, message, t_cross=None, lane=None):
        super().__init__(message)
        self.t_cross = t_cross
        self.lane = lane


class UnsupportedOrder(SpinctlError):
    """Requested expansion order is not implemented."""


class NotPSD(SpinctlError):
    """A covariance's circulant embedding has a spectrum negative beyond rounding."""

    def __init__(self, message, min_eigenvalue=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class DegenerateSample(SpinctlError):
    """Too few Monte Carlo samples to form a standard error."""


class AxisRequired(SpinctlError):
    """Target has zero rotation angle but nonzero winding: axis is needed."""


class SolveFailed(SpinctlError):
    """A solve ended without a certified solution; ``last_solution`` is its last iterate."""

    def __init__(self, message, last_solution=None):
        super().__init__(message)
        self.last_solution = last_solution


class NoDescent(SolveFailed):
    """The descent loop stalled before reaching the optimality tolerance."""


class BCUnreachable(SolveFailed):
    """Multiplier rounds stopped closing the loop before the boundary triads were met."""


class ConfigError(SpinctlError):
    """Invalid run configuration; carries one diagnostic per violation."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))
