"""Distribution loading: discretized Gaussians, full and partial exponential
states, and the comparator-based integration that accumulates a loaded
distribution into a target-qubit amplitude.

All preparation routines are pure circuit builders of the four primitive op
kinds (``Ry``, ``X``, ``PhaseOracle``, ``Classical``) plus state-level loaders
that apply them to an owned statevector. Only those loaders check that their
register starts in the ground state (:func:`~.simulator.require_ground`); the
built ops check nothing when applied. Independent preparations on distinct
statevectors may run in parallel threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, StructuralError
from .simulator import (
    Classical,
    PhaseOracle,
    PrimitiveOp,
    QubitRegister,
    Ry,
    Statevector,
    invert,
    require_ground,
)


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


# -- full exponential preparation -------------------------------------------


def exponential_prep_ops(reg: QubitRegister, a: float) -> list[PrimitiveOp]:
    angles = exp_angles(a, reg.width)
    return [Ry(reg.qubit(i), float(angles[i])) for i in range(reg.width)]


def prepare_exponential_full(state: Statevector, reg: QubitRegister, a: float) -> Statevector:
    """Load sqrt(e^{a*r}/Z) over the full register domain (n parallel RYs)."""
    require_ground(state, reg.qubits)
    return state.apply_all(exponential_prep_ops(reg, a))


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


def _add_constant_op(reg: QubitRegister, c: int) -> Classical:
    size = 2**reg.width
    table = (np.arange(size, dtype=np.int64) + c) % size
    return Classical(reg.qubits, table, name=f"add_{c}")


def _range_flag_op(reg: QubitRegister, aux: int, lo: int, hi: int) -> Classical:
    """aux ^= (lo <= r <= hi), as one bijection over (reg, aux)."""
    vals = np.arange(2 ** (reg.width + 1), dtype=np.int64)
    r = vals & (2**reg.width - 1)
    flip = ((r >= lo) & (r <= hi)).astype(np.int64)
    table = vals ^ (flip << reg.width)
    return Classical(reg.qubits + (aux,), table, name=f"range[{lo},{hi}]")


def _range_phase_ops(
    reg: QubitRegister, lo: int, hi: int, phase: float, aux: int | None
) -> list[PrimitiveOp]:
    """Phase e^{i*phase} on reg values in [lo, hi]; via an aux qubit if given."""
    if aux is None:
        marked = [(lo <= r <= hi) for r in range(2**reg.width)]
        return [PhaseOracle(reg.qubits, tuple(marked), phase)]
    flag = _range_flag_op(reg, aux, lo, hi)
    return [flag, PhaseOracle((aux,), (False, True), phase), flag]


def _zero_phase_op(reg: QubitRegister, phase: float) -> PhaseOracle:
    marked = [r == 0 for r in range(2**reg.width)]
    return PhaseOracle(reg.qubits, tuple(marked), phase)


def partial_exponential_prep_ops(
    reg: QubitRegister,
    spec: ExponentialPrepSpec,
    strategy: str = "auto",
    aux: int | None = None,
) -> list[PrimitiveOp]:
    """Circuit loading sqrt(e^{a*r}/Z') on [x0, x1] and zero elsewhere.

    Power-of-two spans are prepared directly on the low bits followed by an
    in-place constant addition. Other spans get a full (or power-of-two
    windowed) preparation followed by exact amplitude amplification whose
    oracle marks the interval; the auxiliary, when used, is returned to |0>.
    """
    if reg.width != spec.width:
        raise StructuralError(f"register width {reg.width} != spec width {spec.width}")
    if strategy not in ("auto", "power2", "amplify"):
        raise ValueError(f"unknown strategy {strategy!r}")
    a, x0, x1 = spec.a, spec.x0, spec.x1
    span = spec.span
    power_of_two = span & (span - 1) == 0

    if strategy == "power2" and not power_of_two:
        raise ValueError(f"span {span} is not a power of two")
    if power_of_two and strategy != "amplify":
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
    ops: list[PrimitiveOp] = list(prep)
    for _ in range(rounds):
        ops.extend(_range_phase_ops(reg, x0, x1, phase, aux))
        ops.extend(unprep)
        ops.append(_zero_phase_op(reg, phase))
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


def prepare_exponential_partial(
    state: Statevector,
    reg: QubitRegister,
    spec: ExponentialPrepSpec,
    strategy: str = "auto",
    aux: int | None = None,
) -> Statevector:
    require_ground(state, reg.qubits + (() if aux is None else (aux,)))
    return state.apply_all(partial_exponential_prep_ops(reg, spec, strategy, aux))


# -- integration comparator --------------------------------------------------


def integrate_compare_op(
    r_reg: QubitRegister, x_reg: QubitRegister, target: int
) -> Classical:
    """target ^= (r <= x), inclusive, as one bijection over (r, x, target)."""
    if r_reg.width != x_reg.width:
        raise StructuralError(
            f"comparator width mismatch: r has {r_reg.width} qubits, x has {x_reg.width}"
        )
    n = r_reg.width
    vals = np.arange(2 ** (2 * n + 1), dtype=np.int64)
    r = vals & (2**n - 1)
    x = (vals >> n) & (2**n - 1)
    flip = (r <= x).astype(np.int64)
    table = vals ^ (flip << (2 * n))
    return Classical(r_reg.qubits + x_reg.qubits + (target,), table, name="r<=x")


def integrate_compare(
    state: Statevector, r_reg: QubitRegister, x_reg: QubitRegister, target: int
) -> Statevector:
    return state.apply(integrate_compare_op(r_reg, x_reg, target))
