"""Error types shared across the package."""


class ValidationError(ValueError):
    """A caller-supplied argument violates a documented precondition."""


class DomainError(ValidationError):
    """A point lies outside the admissible set of a regularizer."""


class ConfigError(ValidationError):
    """An experiment config or spec failed to parse or validate."""


class NumericError(RuntimeError):
    """An iterative solve exhausted its budget without reaching tolerance,
    or a stochastic solve produced a non-finite iterate."""


class InfeasibleScheduleError(RuntimeError):
    """A verbatim-mode schedule cannot meet its targets; carries the
    schedule on the .schedule attribute for diagnostics."""

    def __init__(self, message, schedule=None):
        super().__init__(message)
        self.schedule = schedule
