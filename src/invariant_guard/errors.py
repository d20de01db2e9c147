"""Exception types shared across the package."""


class InvariantGuardError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(InvariantGuardError):
    """Incompatible scheme/equation/option combination."""


class DegenerateCorrection(InvariantGuardError):
    """The correction denominator vanished while a correction was required.

    Each corrector's weight G is fixed, so this means the state leaves it no
    direction to move in (a constant field, say); the run stops here.
    """


class InfeasibleTarget(InvariantGuardError):
    """The requested discrete-time l2 change is below the achievable minimum.

    Carries ``min_delta_l2``, the vertex of the quadratic, so callers can clamp.
    """

    def __init__(self, message, min_delta_l2):
        super().__init__(message)
        self.min_delta_l2 = min_delta_l2


class NonFiniteState(InvariantGuardError, ValueError):
    """A field was built from values holding NaN or Inf, or an intermediate
    Runge-Kutta stage state of a run that is blowing up holds them."""


class PositivityViolation(InvariantGuardError):
    """Density or pressure is non-positive where positivity is required."""


class CflViolation(InvariantGuardError):
    """Even the fully limited (first-order) flux cannot keep the state positive;
    the timestep is too large."""


class NumericalBlowup(InvariantGuardError):
    """NaN or Inf appeared in the evolving state.

    Carries ``step`` and ``time`` of the failing update.
    """

    def __init__(self, message, step, time):
        super().__init__(message)
        self.step = step
        self.time = time
