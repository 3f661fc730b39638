"""Exception types shared across the package."""


class NhskinError(Exception):
    """Base class for all package errors."""


class ValidationError(NhskinError):
    """A model or argument failed its validity checks."""


class ConfigError(NhskinError):
    """A run configuration file is malformed or contains unknown keys."""


class NumericalError(NhskinError):
    """A numerical routine failed to meet its contract."""


class DegreeCollapseError(NumericalError):
    """The characteristic polynomial lost degree (a boundary hopping vanished)."""


class NoTouchingPointError(NumericalError):
    """The two GBZ components do not approach each other within tolerance, or
    no balance zero on the negative real axis is bracketed near them."""


class CrossValidationError(NumericalError):
    """Two independent GBZ methods disagree beyond tolerance."""


class HorizonTruncationError(NumericalError):
    """Amplified evolution left the representable range before the horizon.

    Carries the last time at which the field was still finite.
    """

    def __init__(self, last_valid_time: float):
        self.last_valid_time = last_valid_time
        super().__init__(
            f"field amplitude overflowed; last valid time t = {last_valid_time:g} s"
        )
