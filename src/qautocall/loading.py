"""Distribution loading: discretized Gaussians, the partial exponential state
on [0, x1], and the closed form of the comparator-based integration that
accumulates that exponential into a target-qubit amplitude.

Every preparation is a pure circuit builder that returns ``Ry``, ``Add`` and
``PhaseOracle`` ops for a register in its ground state; nothing here touches
a statevector. A partial exponential is loaded at a decreasing rate, where
[0, x1] is the heavy end of its register (a share of at least 1/2), in one
exact amplification round. The integration comparator itself is built with
the pricing circuit (:func:`~.circuit.put_comparator_op`);
:func:`integration_amplitude` is the amplitude it loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, StructuralError, check_memory
from .simulator import Add, PhaseOracle, PrimitiveOp, QubitRegister, Ry, invert

#: peak bytes per grid point while a method builds its grid arrays: cf-quant
#: and mc-disc peaked 32.0 at k = 20 and 22 (a grid array held while the
#: probabilities are computed)
BYTES_PER_POINT = 32


@dataclass(frozen=True)
class GaussianGridSpec:
    """Symmetric grid of 2**k points spanning [-s_min, +s_min] standard deviations."""

    k: int
    s_min: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.s_min <= 0:
            raise ValueError(f"s_min must be positive, got {self.s_min}")

    @property
    def ds(self) -> float:
        return 2.0 * self.s_min / (2**self.k - 1)

    def points(self) -> np.ndarray:
        """The grid, the first of its arrays any method builds. Raises
        :class:`CapacityError` first when its points, at ``BYTES_PER_POINT``
        bytes each, do not fit in physical memory."""
        n = 2**self.k
        check_memory(n, BYTES_PER_POINT, f"the grid has 2**{self.k} = {n} points", "; reduce k")
        with np.errstate(invalid="ignore"):  # an infinite step: nan points, see probabilities()
            return -self.s_min + self.ds * np.arange(n)

    def check_probability(self, mass: float | None = None) -> None:
        """Raise :class:`ConfigError` unless ``mass``, the pdf summed over the grid,
        is positive; by default, in O(1), the pdf at +-ds/2, the points nearest 0."""
        if not (math.exp(-self.ds * self.ds / 8.0) if mass is None else mass) > 0:
            raise ConfigError([f"'grid.s_min' = {self.s_min!r} leaves the normal pdf 0 at every "
                               f"grid point at k = {self.k}; reduce s_min"])

    def probabilities(self) -> np.ndarray:
        """Standard normal pdf sampled on the grid and renormalized. Raises
        :class:`ConfigError` when it is 0 (or nan) at every point."""
        x = self.points()
        with np.errstate(over="ignore"):
            pdf = np.exp(-0.5 * x * x)
        total = pdf.sum()
        self.check_probability(total)
        return pdf / total


def gaussian_amplitudes(spec: GaussianGridSpec) -> np.ndarray:
    """Amplitude vector whose squares are the renormalized pdf samples."""
    return np.sqrt(spec.probabilities())


def exp_angles(a: float, n: int) -> np.ndarray:
    """Rotation angles theta_i = 2*arctan(e^{a*2^i/2}) for n parallel RYs."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    i = np.arange(n)
    return 2.0 * np.arctan(np.exp(a * (2.0**i) / 2.0))


def exp_weight_sum(a: float, hi: int) -> float:
    """Sum of e^{a*r} for r in [0, hi], in closed form; a != 0."""
    return math.expm1(a * (hi + 1)) / math.expm1(a)


def integration_amplitude(a: float, x: int, x1: int) -> float:
    """Target-|1> amplitude after integrating the exponential on [0, x1] up to x.

    Piecewise: 0 below the interval, 1 above it, and the normalized cumulative
    weight sqrt((e^{a(x+1)} - 1) / (e^{a(x1+1)} - 1)) inside; a != 0.
    """
    if x < 0:
        return 0.0
    if x > x1:
        return 1.0
    return math.sqrt(math.expm1(a * (x + 1)) / math.expm1(a * (x1 + 1)))


# -- partial exponential preparation -----------------------------------------


def amplification_phase(share: float) -> float:
    """Common reflection phase making one amplification round exact.

    The phase exists for share >= 1/4 (Brassard, Hoyer, Mosca and Tapp,
    quant-ph/0005055): phi = 2 asin(1 / (2 s)), with s**2 the share and
    c**2 = 1 - s**2. The round leaves no bad amplitude when e^{i phi} solves
    z**2 + (c**2 / s**2 - 1) z + 1 = 0, whose roots are complex conjugates
    from share 1/4 on, so -phi is as exact as the +phi returned.
    """
    s = math.sqrt(min(max(share, 0.0), 1.0))
    if 2.0 * s < 1.0 - 1e-9:  # sin(phi / 2) = 1 / (2 s) > 1
        raise NumericalError(
            f"share {share:.6g} too small for exact amplification in one round (needs >= 1/4)"
        )
    return 2.0 * math.asin(min(0.5 / s, 1.0))


def partial_exponential_prep_ops(reg: QubitRegister, a: float, x1: int,
                                 flag: QubitRegister) -> list[PrimitiveOp]:
    """Circuit loading sqrt(e^{a*r}/Z') on [0, x1] and zero elsewhere.

    The register must be exactly wide enough for x1: ``max(1, x1.bit_length())``
    qubits, so x1 >= 2**(width - 1) unless x1 = 0. Power-of-two spans (x1 = 0,
    which needs no op, and the whole register, ``width`` parallel RYs) are
    prepared directly, at any rate. Any other span needs a < 0: it is then
    the heavy end of the whole-register exponential, more than half its
    points, with a share of at least 1/2, and gets the whole-register
    preparation followed by one round of exact amplitude amplification. It
    reflects about the interval with the ``window`` comparator ``flag ^= (r <=
    x1)``, a phase where ``flag`` reads 1 and the comparator again, which
    uncomputes it; ``flag``, one qubit, must read 0 whenever the ops run.
    """
    if not (x1 >= 0 and reg.width == max(1, x1.bit_length())):
        raise StructuralError(
            f"register width {reg.width} does not fit the interval [0, {x1}]: "
            f"needs x1 >= 0 and width max(1, x1.bit_length())"
        )
    if flag.width != 1:  # a wider target would add the comparator twice, not undo it
        raise StructuralError(f"the window flag must be one qubit, got {flag}")
    span = x1 + 1
    if span & (span - 1) == 0:
        return _power2_prep_ops(reg, a, span)
    if not a < 0:
        raise StructuralError(
            f"the interval [0, {x1}] is not a power-of-two span, so it needs a "
            f"decreasing rate a < 0, got a = {a}"
        )

    domain_hi = 2**reg.width - 1
    phase = amplification_phase(exp_weight_sum(a, x1) / exp_weight_sum(a, domain_hi))
    prep = _power2_prep_ops(reg, a, domain_hi + 1)
    window = Add(flag, (reg,), lambda r: (r <= x1).astype(np.int64), name="window")
    in_window = PhaseOracle(flag, 1, phase)
    at_zero = PhaseOracle(reg, 0, phase)
    return [*prep, window, in_window, window, *invert(prep), at_zero, *prep]


def _power2_prep_ops(reg: QubitRegister, a: float, span: int) -> list[PrimitiveOp]:
    """Exponential weights on [0, span-1], span a power of two."""
    angles = exp_angles(a, span.bit_length() - 1) if span > 1 else ()
    return [Ry(reg.qubit(i), (float(t),)) for i, t in enumerate(angles)]
