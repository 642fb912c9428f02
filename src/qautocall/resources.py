"""Fault-tolerant T-depth model: per-block depths, the truncation-parameter
solver, and the assembled total with its amplitude-loading comparison against
a fixed QSP-style baseline.

Depths are real-valued. Widths below 2 are clamped to 2 inside the
multi-controlled-X formula, whose log3 term would otherwise go negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericalError

#: amplitude-loading T-depth of the polynomial-transform baseline we compare against
QSP_BASELINE_T_DEPTH = 2.1e3

D_TOFFOLI = 3.0

_SOLVER_ITERATIONS = 1000


def d_ry(epsilon: float) -> float:
    return 3.0 * math.log2(1.0 / epsilon)


def d_cry(epsilon: float) -> float:
    return 6.0 * math.log2(2.0 / epsilon)


def d_mcx(n: int) -> float:
    n = max(n, 2)
    return 14.0 * math.log(n / 2.0, 3) + 5.0


def d_comparator(n: int) -> float:
    return (2.0 * math.log2(n) + 9.0) * D_TOFFOLI


def d_c_comparator(n: int) -> float:
    # control only the middle Toffoli (a CCCX): swap one Toffoli for an MCX(3)
    return d_comparator(n) + d_mcx(3) - D_TOFFOLI


def d_adder(n: int) -> float:
    return (2.0 * math.log2(n) + 5.0) * D_TOFFOLI


@dataclass(frozen=True)
class ResourceParams:
    """Inputs of the depth model.

    ``epsilon`` is the one error budget: every block's rotation error and the
    truncation solver's payoff bound (in currency) read it. These defaults are
    the command line's ``[resources]`` defaults, ``accumulator_width`` that of
    ``m_values``.
    """

    steps: int = 20  # T
    assets: int = 3  # d
    epsilon: float = 2e-3
    accumulator_width: int = 8  # m, final log-return register width
    gaussian_qubits: int = 2  # k
    layers: int = 0  # L, Gaussian loader layers
    binaries: int = 2  # j
    sigma_max: float = 0.2382
    mu: float = 0.1274
    dt: float = 1.0
    notional: float = 18.0
    strike: float = 1.0
    f_max: float = 5.0 * math.exp(-0.08)

    def __post_init__(self):
        for name in ("steps", "assets", "accumulator_width", "gaussian_qubits"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.layers < 0 or self.binaries < 0:
            raise ValueError("layers and binaries must be >= 0")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")


@dataclass(frozen=True)
class TruncationSolution:
    w: float
    r_t_min: float
    scale: float  # R(w)
    iterations: int


def _rescale(params: ResourceParams, w: float) -> tuple[float, float]:
    r_t_min = math.exp(
        params.mu * params.dt * params.steps
        - w * params.sigma_max * math.sqrt(params.dt) * params.steps
    )
    scale = params.f_max + (params.strike - r_t_min) * params.notional
    return r_t_min, scale


def _scale(params: ResourceParams, w: float) -> float:
    """R(w), or -inf where the minimum terminal return overflows."""
    try:
        return _rescale(params, w)[1]
    except OverflowError:
        return -math.inf


def _first_positive_scale(params: ResourceParams, lo: float, hi: float) -> float:
    """Smallest float w in (lo, hi] with R(w) > 0, given R(lo) <= 0 < R(hi).

    R does not decrease as w grows, so bisection finds it.
    """
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if _scale(params, mid) > 0.0:
            hi = mid
        else:
            lo = mid


def solve_truncation(params: ResourceParams) -> TruncationSolution:
    """Smallest w >= 0 with 2dT e^{-w^2/2} <= eps / R(w).

    R depends on w through the minimum terminal return, so the bound is
    solved by fixed-point iteration on w = sqrt(2 ln(2dT R(w)/eps)) from the
    larger of 1 and the smallest w with R(w) > 0, which doubling w brackets
    and bisection finds. Where 2dT R(w) <= eps the bound holds, so the log is
    clamped at 0. R grows with w and the bound holds as R(w) falls to 0, so
    an iterate at or below the root of R is raised to the smallest w with
    R(w) > 0, where the iteration then settles.
    """
    eps = params.epsilon
    two_dt = 2.0 * params.assets * params.steps
    lo, w = 0.0, 1.0
    while not _scale(params, w) > 0.0:  # R(inf) is nan when sigma_max = 0
        if math.isinf(w):
            raise NumericalError("rescaling factor is not positive at any w")
        lo, w = w, 2.0 * w
    if lo:
        w = _first_positive_scale(params, lo, w)
    trace = []
    for it in range(1, _SOLVER_ITERATIONS + 1):
        scale = _scale(params, w)  # positive: every iterate is floored where R > 0
        w_next = math.sqrt(2.0 * max(0.0, math.log(two_dt * scale / eps)))
        if _scale(params, w_next) <= 0.0:
            w_next = _first_positive_scale(params, w_next, w)
        trace.append(w_next)
        if abs(w_next - w) < 1e-15:
            r_t_min, scale = _rescale(params, w_next)
            return TruncationSolution(w=w_next, r_t_min=r_t_min, scale=scale, iterations=it)
        w = w_next
    raise NumericalError(
        f"truncation solver did not converge in {_SOLVER_ITERATIONS} iterations; "
        f"last iterates: {trace[-5:]}"
    )


def d_gaussian(params: ResourceParams) -> float:
    """(L+1) rotation layers, each at the per-rotation error split k*T*d ways."""
    eps = params.epsilon
    per_ry = 3.0 * math.log2(
        params.gaussian_qubits * params.steps * params.assets / eps
    )
    return (params.layers + 1) * per_ry


def d_arith(params: ResourceParams) -> float:
    """Accumulator adds, barrier/binary comparators, exclusivity MCX, and the
    constant-payoff rotations, composed per the circuit's operation sequence.

    The composition is a model choice; swap pieces here if a different
    arithmetic layout is assumed.
    """
    m = params.accumulator_width
    j = params.binaries
    eps = params.epsilon
    depth = params.steps * (d_adder(m) + d_comparator(m))
    depth += j * (d_comparator(m) + d_mcx(j))
    depth += (j + 2) * d_cry(eps)
    depth += d_mcx(params.steps)
    return depth


def d_amplitude_loading(params: ResourceParams) -> tuple[float, float]:
    """(D_AL, D_exp): the controlled integration comparator, and the partial
    exponential preparation that runs in parallel with everything else: its 3
    Ry layers, its reflection about |0> as an MCX, and its ``window``
    comparator, computed and uncomputed around a phase, as 2 controlled ones."""
    m = params.accumulator_width
    eps = params.epsilon / (m + 1)
    d_al = d_c_comparator(m)
    d_exp = 3.0 * d_ry(eps) + d_mcx(m) + 2.0 * d_c_comparator(m)
    return d_al, d_exp


@dataclass(frozen=True)
class TDepthReport:
    params: ResourceParams
    w: float
    r_t_min: float
    scale: float
    n_iqae: int
    d_gaussian: float
    d_arith: float
    d_exp: float
    d_amplitude_loading: float
    d_total: float

    @property
    def qsp_ratio(self) -> float:
        return QSP_BASELINE_T_DEPTH / self.d_amplitude_loading


def d_total(params: ResourceParams) -> TDepthReport:
    """Assemble D_tot = (1 + 2 N) (max(D_G + D_arith, D_exp) + D_AL)."""
    truncation = solve_truncation(params)
    n_iqae = math.ceil(1.0 / params.epsilon)
    dg = d_gaussian(params)
    da = d_arith(params)
    d_al, d_exp = d_amplitude_loading(params)
    total = (1 + 2 * n_iqae) * (max(dg + da, d_exp) + d_al)
    return TDepthReport(
        params=params,
        w=truncation.w,
        r_t_min=truncation.r_t_min,
        scale=truncation.scale,
        n_iqae=n_iqae,
        d_gaussian=dg,
        d_arith=da,
        d_exp=d_exp,
        d_amplitude_loading=d_al,
        d_total=total,
    )
