"""Exception types shared across the package."""


class HoermanderKitError(Exception):
    """Base class for all package-specific errors."""


class NonPositiveValue(HoermanderKitError):
    """A function parameter evaluated to a non-positive value."""


class OrderingViolation(HoermanderKitError):
    """A triple (s0, s, s1) failed the required strict ordering s0 < s < s1."""


class UnboundedRatio(HoermanderKitError):
    """A sampled ratio of parameters keeps growing where boundedness is required."""


class DimensionMismatch(HoermanderKitError):
    """Operands live on incompatible lattices or have inconsistent shapes."""


class NonFiniteData(HoermanderKitError, ValueError):
    """Input data hold NaN or infinite values."""


class NoConvergence(HoermanderKitError):
    """Iterative solver hit its iteration cap before reaching tolerance."""

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"conjugate gradient did not converge in {iterations} iterations "
            f"(relative residual {residual:.3e})"
        )


class NotFirstOrder(HoermanderKitError):
    """The operation requires a first-order boundary operator."""


class InsufficientSmoothness(HoermanderKitError):
    """A grid cannot support the requested derivative order."""


class InsufficientTimeResolution(HoermanderKitError):
    """The time axis is too coarse for the requested trace order."""


class CutoffWrapsAround(HoermanderKitError):
    """The cutoff's time support does not fit inside the periodic time axis."""


class UnknownConfigKey(HoermanderKitError):
    """A configuration file holds keys the command does not read."""


class InvalidConfig(HoermanderKitError, ValueError):
    """A configuration file lacks a key the command needs or names an unknown kind."""


class MirrorAsymmetry(HoermanderKitError):
    """A split by mirror parity met a mask or constraint set the mirror does not preserve."""
