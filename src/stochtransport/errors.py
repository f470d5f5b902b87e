"""Exception and warning types shared across the package."""


class StochTransportError(Exception):
    """Base class for all package-specific errors."""


class FieldValidationError(StochTransportError):
    """A scalar field carries non-finite values or a mismatched shape."""


class DriftEvaluationError(StochTransportError):
    """A drift rule returned non-finite output."""


class MeshMismatchError(StochTransportError):
    """Incompatible time meshes, horizons, or snapshot alignment."""


class PathRangeError(StochTransportError):
    """A sample path was evaluated outside its time horizon."""


class ConfigError(StochTransportError):
    """Invalid run configuration: bad keys, CFL violation, mesh constraints."""


class BlowUpError(StochTransportError):
    """Numerical blow-up during time marching or characteristic tracing."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class SupportMarginWarning(UserWarning):
    """Solution support entered the wrap-around margin of the periodic box."""
