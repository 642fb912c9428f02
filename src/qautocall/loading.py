"""Distribution loading: discretized Gaussians, partial exponential states,
and the closed form of the comparator-based integration that accumulates a
loaded exponential into a target-qubit amplitude.

Every preparation is a pure circuit builder that returns a list of the four
primitive op kinds (``Ry``, ``X``, ``PhaseOracle``, ``Add``) for a register in
its ground state; nothing here touches a statevector. The integration
comparator itself is built with the pricing circuit
(:func:`~.circuit.put_comparator_op`); :func:`integration_amplitude` is the
amplitude it loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, NumericalError, StructuralError
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
        from .circuit import physical_memory  # circuit imports this module

        memory = physical_memory()
        if 2**self.k * BYTES_PER_POINT > memory:
            raise CapacityError(
                f"the grid has 2**{self.k} = {2**self.k} points, {BYTES_PER_POINT} bytes "
                f"each, more than the {memory} bytes of physical memory; reduce k"
            )
        return -self.s_min + self.ds * np.arange(2**self.k)

    def probabilities(self) -> np.ndarray:
        """Standard normal pdf sampled on the grid and renormalized."""
        x = self.points()
        pdf = np.exp(-0.5 * x * x)
        return pdf / pdf.sum()


def gaussian_amplitudes(spec: GaussianGridSpec) -> np.ndarray:
    """Amplitude vector whose squares are the renormalized pdf samples."""
    return np.sqrt(spec.probabilities())


@dataclass(frozen=True)
class ExponentialPrepSpec:
    """Exponential weights e^{a*r} restricted to the integer interval [x0, x1]."""

    width: int
    a: float
    x0: int
    x1: int

    def __post_init__(self):
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if not math.isfinite(self.a):
            raise ValueError(f"rate a must be finite, got {self.a}")
        if self.x0 > self.x1:
            raise ValueError(f"empty interval [{self.x0}, {self.x1}]")
        if not (0 <= self.x0 and self.x1 <= 2**self.width - 1):
            raise ValueError(
                f"interval [{self.x0}, {self.x1}] outside register domain "
                f"[0, {2**self.width - 1}]"
            )

    @property
    def span(self) -> int:
        return self.x1 - self.x0 + 1


def exp_angles(a: float, n: int) -> np.ndarray:
    """Rotation angles theta_i = 2*arctan(e^{a*2^i/2}) for n parallel RYs."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    i = np.arange(n)
    return 2.0 * np.arctan(np.exp(a * (2.0**i) / 2.0))


def exp_weight_sum(a: float, lo: int, hi: int, ref: int = 0) -> float:
    """Sum of e^{a*(r-ref)} for r in [lo, hi], in closed form."""
    if lo > hi:
        return 0.0
    count = hi - lo + 1
    if a == 0.0:
        return float(count)
    return math.exp(a * (lo - ref)) * math.expm1(a * count) / math.expm1(a)


def integration_amplitude(a: float, x: int, x0: int, x1: int) -> float:
    """Target-|1> amplitude after integrating a partial exponential up to x.

    Piecewise: 0 below the interval, 1 above it, and the normalized cumulative
    weight sqrt((e^{a(x+1)} - e^{a*x0}) / (e^{a(x1+1)} - e^{a*x0})) inside.
    The full-domain case is x0 = 0, x1 = 2**n - 1.
    """
    if x < x0:
        return 0.0
    if x > x1:
        return 1.0
    if a == 0.0:
        return math.sqrt((x - x0 + 1) / (x1 - x0 + 1))
    return math.sqrt(math.expm1(a * (x - x0 + 1)) / math.expm1(a * (x1 - x0 + 1)))


# -- partial exponential preparation -----------------------------------------


def rounds_for_share(share: float) -> int:
    """Iterations of exact amplitude amplification needed to reach probability 1.

    One round suffices at share >= 1/4; below that the required phase does not
    exist and more rounds are needed (theta >= pi/(4J+2)).
    """
    share = min(max(share, 0.0), 1.0)
    if share <= 0.0:
        raise ValueError("cannot amplify an interval holding zero probability")
    theta = math.asin(math.sqrt(share))
    return max(1, math.ceil((math.pi / theta - 2.0) / 4.0 - 1e-12))


def _aa_bad_residual(s: float, phase: float, rounds: int) -> float:
    """|bad amplitude| after the amplification rounds, in the 2D good/bad plane."""
    c = math.sqrt(max(0.0, 1.0 - s * s))
    a0 = np.array([s, c], dtype=complex)
    vec = a0.copy()
    rot = complex(math.cos(phase), math.sin(phase))
    for _ in range(rounds):
        vec = vec * np.array([rot, 1.0])  # phase on the good component
        vec = vec + (rot - 1.0) * np.vdot(a0, vec) * a0  # A S0 A^-1
    return abs(vec[1])


def amplification_phase(share: float, rounds: int) -> float:
    """Common reflection phase making the amplification exact after ``rounds``.

    Signs are pinned by checking the residual bad amplitude in the reduced
    two-dimensional picture; the sign convention that zeroes it wins.
    """
    s = math.sqrt(min(max(share, 0.0), 1.0))
    arg = math.sin(math.pi / (4 * rounds + 2)) / s
    if arg > 1.0 + 1e-9:
        raise NumericalError(
            f"share {share:.6g} too small for exact amplification in {rounds} rounds"
        )
    phi = 2.0 * math.asin(min(arg, 1.0))
    best = min((phi, -phi), key=lambda p: _aa_bad_residual(s, p, rounds))
    residual = _aa_bad_residual(s, best, rounds)
    if residual > 1e-9:
        raise NumericalError(
            f"amplification phase search failed (residual {residual:.3e} "
            f"for share {share:.6g}, rounds {rounds})"
        )
    return best


def _add_constant_op(reg: QubitRegister, c: int) -> Add:
    return Add(reg.qubits, (), lambda _: c, name=f"add_{c}")


def partial_exponential_prep_ops(
    reg: QubitRegister, spec: ExponentialPrepSpec
) -> list[PrimitiveOp]:
    """Circuit loading sqrt(e^{a*r}/Z') on [x0, x1] and zero elsewhere.

    Power-of-two spans are prepared directly on the low bits followed by an
    in-place constant addition; the full interval [0, 2**width - 1] is thus
    ``width`` parallel RYs. Other spans get a full (or power-of-two windowed)
    preparation followed by exact amplitude amplification whose oracle is a
    phase on the interval's values.
    """
    if reg.width != spec.width:
        raise StructuralError(f"register width {reg.width} != spec width {spec.width}")
    a, x0, x1 = spec.a, spec.x0, spec.x1
    span = spec.span
    if span & (span - 1) == 0:
        return _power2_prep_ops(reg, a, x0, span)

    # Amplification path: prefer a full-domain preparation amplified in one
    # round; fall back to a power-of-two window around the interval when the
    # interval holds too little probability, adding rounds only if even the
    # windowed share stays below 1/4.
    domain_hi = 2**reg.width - 1
    full_share = exp_weight_sum(a, x0, x1, ref=x1) / exp_weight_sum(a, 0, domain_hi, ref=x1)
    window = _heavy_end_window(a, x0, x1, domain_hi)
    win_lo, win_hi = window
    win_share = exp_weight_sum(a, x0, x1, ref=x1) / exp_weight_sum(a, win_lo, win_hi, ref=x1)

    if full_share >= 0.25 - 1e-12:
        prep_lo, prep_span, share = 0, domain_hi + 1, full_share
    else:
        prep_lo, prep_span, share = win_lo, win_hi - win_lo + 1, win_share

    rounds = rounds_for_share(share)
    phase = amplification_phase(share, rounds)

    prep = _power2_prep_ops(reg, a, prep_lo, prep_span)
    unprep = invert(prep)
    in_interval = PhaseOracle(reg.qubits, range(x0, x1 + 1), phase)
    at_zero = PhaseOracle(reg.qubits, (0,), phase)
    ops: list[PrimitiveOp] = list(prep)
    for _ in range(rounds):
        ops.append(in_interval)
        ops.extend(unprep)
        ops.append(at_zero)
        ops.extend(prep)
    return ops


def _power2_prep_ops(reg: QubitRegister, a: float, lo: int, span: int) -> list[PrimitiveOp]:
    """Exponential weights on [lo, lo+span-1], span a power of two."""
    q = span.bit_length() - 1
    ops: list[PrimitiveOp] = []
    if q > 0:
        angles = exp_angles(a, q)
        ops.extend(Ry(reg.qubit(i), float(angles[i])) for i in range(q))
    if lo != 0:
        ops.append(_add_constant_op(reg, lo))
    return ops


def _heavy_end_window(a: float, x0: int, x1: int, domain_hi: int) -> tuple[int, int]:
    """Smallest power-of-two window covering [x0, x1], aligned so the points
    outside the interval sit on the light end of the exponential."""
    span = x1 - x0 + 1
    size = 1 << max(0, (span - 1).bit_length())
    if a >= 0:
        lo = min(max(0, x1 - size + 1), domain_hi - size + 1)
    else:
        lo = max(0, min(x0, domain_hi - size + 1))
    return lo, lo + size - 1
