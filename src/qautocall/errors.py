"""Exception types shared across the package."""


class QAutocallError(Exception):
    """Base class for all package-specific errors."""


class CapacityError(QAutocallError):
    """A grid's points, a pricing circuit's support bound (in stored entries),
    or the states a closed form keeps in one step do not fit in physical
    memory."""


class StructuralError(QAutocallError):
    """An operation is malformed (overlapping qubits, width mismatch, empty target)."""


class PreconditionError(QAutocallError):
    """An amplitude vector to be loaded is not normalized."""


class MappingError(QAutocallError):
    """A payoff-to-amplitude mapping produced a value outside [0, 1]."""


class NumericalError(QAutocallError):
    """An iterative numerical procedure failed to converge."""


class ConfigError(QAutocallError):
    """Configuration text failed validation; carries every offending key."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
