"""Financial contract terms and the fixed-point encoding of log-returns."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class BinaryOption:
    """Early-termination leg: pays ``payout`` if the return at observation
    step ``step`` strictly exceeds ``strike``."""

    step: int
    strike: float
    payout: float


@dataclass(frozen=True)
class AutocallableContract:
    """Single-asset autocallable: ordered binary legs plus a terminal
    knock-in put (short) with barrier ``barrier`` and strike return ``strike``.

    Returns are relative to the initial price; payouts are in currency units
    of the notional.
    """

    notional: float
    dt: float
    steps: int
    mu: float
    sigma: float
    rate: float
    barrier: float
    strike: float
    binaries: tuple[BinaryOption, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "binaries", tuple(self.binaries))
        if self.notional <= 0:
            raise ValueError(f"notional must be positive, got {self.notional}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")
        if not 0 < self.barrier < self.strike:
            raise ValueError(
                f"need 0 < barrier < strike, got barrier={self.barrier}, strike={self.strike}"
            )
        last = 0
        for b in self.binaries:
            if not 1 <= b.step <= self.steps - 1:
                raise ValueError(f"binary step {b.step} outside [1, {self.steps - 1}]")
            if b.step <= last:
                raise ValueError("binary steps must be strictly increasing")
            if b.strike <= 0:
                raise ValueError(f"binary strike must be positive, got {b.strike}")
            if b.payout <= 0:
                raise ValueError(f"binary payout must be positive, got {b.payout}")
            last = b.step

    def discounted_payout(self, i: int) -> float:
        b = self.binaries[i]
        return b.payout * math.exp(-self.rate * b.step * self.dt)

    @property
    def maturity(self) -> float:
        return self.steps * self.dt


@dataclass(frozen=True)
class FixedPointFormat:
    """Two's-complement fixed-point code: value = code * 2**-frac_bits."""

    int_bits: int
    frac_bits: int

    def __post_init__(self):
        if self.int_bits < 0 or self.frac_bits < 0:
            raise ValueError("bit counts must be non-negative")

    @property
    def width(self) -> int:
        return self.int_bits + self.frac_bits + 1

    def quantize(self, value: float) -> int:
        """Nearest code, ties to even. No range check; see covers()."""
        return round(value * 2**self.frac_bits)

    def decode(self, code: int) -> float:
        return code * 2.0**-self.frac_bits

    def covers(self, code: int) -> bool:
        return -(2 ** (self.width - 1)) <= code < 2 ** (self.width - 1)

    def to_signed(self, raw):
        """Interpret raw register values (an int or an int array) as codes."""
        return raw - (raw >= 2 ** (self.width - 1)) * 2**self.width


def int_bits_for(codes: list[int], frac_bits: int) -> int:
    """Smallest integer-part width whose format covers every code."""
    lo, hi = min(codes), max(codes)
    bits = 0
    while True:
        fmt = FixedPointFormat(bits, frac_bits)
        if fmt.covers(lo) and fmt.covers(hi):
            return bits
        bits += 1
