"""Exception types shared across the package, and the physical-memory limit
that :class:`CapacityError` reports against."""

import os


class QAutocallError(Exception):
    """Base class for all package-specific errors."""


class CapacityError(QAutocallError):
    """A grid's points, a pricing circuit's support bound (in stored entries),
    the states a closed form keeps in one step, or one Monte Carlo block's
    uniforms do not fit in physical memory."""


def physical_memory() -> int:
    """Bytes of physical memory, the one limit every exact method is sized against."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


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
