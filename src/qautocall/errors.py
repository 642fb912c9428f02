"""Exception types shared across the package, and :func:`check_memory`, the
one physical-memory rule every method's memory is sized by."""

import os


class QAutocallError(Exception):
    """Base class for all package-specific errors."""


class CapacityError(QAutocallError):
    """A circuit needs more qubits than int64 indices hold, or a grid's points,
    a circuit's support bound, a closed form's states in one step or barrier
    entry per step, or one Monte Carlo block's uniforms exceed physical memory."""


def physical_memory() -> int:
    """Bytes of physical memory, the one limit every exact method is sized against."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_memory(count: int, bytes_each: int, holds: str, remedy: str) -> None:
    """Raise :class:`CapacityError`, its message ``holds`` then ``remedy``, when
    ``count`` items of ``bytes_each`` bytes do not fit in physical memory."""
    memory = physical_memory()
    if count * bytes_each > memory:
        raise CapacityError(f"{holds}, {bytes_each} bytes each, more than the {memory} "
                            f"bytes of physical memory{remedy}")


class StructuralError(QAutocallError):
    """An operation is malformed (overlapping qubits, width mismatch, empty target)."""


class PreconditionError(QAutocallError):
    """An amplitude vector to be loaded is not normalized."""


class MappingError(QAutocallError):
    """A payoff-to-amplitude mapping produced a value outside [0, 1]."""


class NumericalError(QAutocallError):
    """A numerical procedure failed: no convergence, no solution, or a price not finite."""


class ConfigError(QAutocallError):
    """Configuration text failed validation; carries every offending key."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
