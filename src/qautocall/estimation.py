"""Iterative amplitude estimation on the pricing circuit's Grover rotation,
plus the exact good-state probability it runs on.

The Grover iterate Q = A S_0 A^-1 S_good rotates span{good, bad} by 2 theta,
where sin^2(theta) = a is the good-state probability of A|0>. After k steps
the good state is therefore measured with probability sin^2((2k + 1) theta)
exactly (Brassard, Hoyer, Mosca and Tapp, quant-ph/0005055; Grinko, Gacon,
Zoufal and Woerner, arXiv:1912.05559, Sec. 2). So A is simulated once, by
:func:`exact_amplitude`, and every round draws its shots from that
probability; :func:`build_grover` builds Q gate by gate as the reference the
tests hold this identity to.

The round schedule follows the iterative scheme of Grinko et al.: grow the
Grover power k whenever the scaled angle interval fits in a half-circle, and
shrink the interval with Chernoff-Hoeffding bounds whose confidence budget is
split across the worst-case number of rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .simulator import Condition, PhaseOracle, PrimitiveOp, allocate, invert, probability


_MAX_ROUNDS = 10_000  # stops a schedule that does not converge
_MIN_RATIO = 2.0  # least growth of the scaled power 4k + 2 when k changes


@dataclass(frozen=True)
class IqaeConfig:
    """Target half-width ``epsilon`` at confidence ``1 - alpha``. The schedule's
    tuning is fixed by the module constants ``_MIN_RATIO`` and ``_MAX_ROUNDS``."""

    epsilon: float
    alpha: float
    shots_per_round: int = 100
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError(f"epsilon must be in (0, 0.5), got {self.epsilon}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.shots_per_round < 1:
            raise ValueError("shots_per_round must be >= 1")


@dataclass(frozen=True)
class EstimateResult:
    a_hat: float
    ci: tuple[float, float]
    oracle_calls: int
    rounds: int
    converged: bool
    shots_total: int


def build_grover(
    a_ops: Sequence[PrimitiveOp], num_qubits: int, good: Condition
) -> list[PrimitiveOp]:
    """Q = A S_0 A^-1 S_good with pi phase flips on both reflections."""
    good_qubits = tuple(q for q, _ in good.terms)
    pattern = sum(b << j for j, (_, b) in enumerate(good.terms))
    s_good = PhaseOracle(good_qubits, (pattern,), math.pi)
    s_zero = PhaseOracle(tuple(range(num_qubits)), (0,), math.pi)
    return [s_good, *invert(a_ops), s_zero, *list(a_ops)]


def exact_amplitude(
    a_ops: Sequence[PrimitiveOp],
    num_qubits: int,
    good: Condition,
) -> float:
    """Exact good-state probability of A|0...0>."""
    state = allocate(num_qubits)
    state.apply_all(a_ops)
    return probability(state, good)


def sample(p: float, shots: int, seed: int) -> int:
    """Binomial success count over ``shots`` measurements that succeed with
    probability ``p``."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    return int(np.random.default_rng(seed).binomial(shots, p))


def _find_next_k(
    k: int, upper_half: bool, theta_interval: tuple[float, float]
) -> tuple[int, bool]:
    """Largest power whose scaled angle interval fits in one half-circle."""
    theta_l, theta_u = theta_interval
    old_scaling = 4 * k + 2
    max_scaling = int(1.0 / (2.0 * (theta_u - theta_l)))
    scaling = max_scaling - (max_scaling - 2) % 4
    while scaling >= _MIN_RATIO * old_scaling:
        theta_min = scaling * theta_l - int(scaling * theta_l)
        theta_max = scaling * theta_u - int(scaling * theta_u)
        if theta_min <= theta_max <= 0.5:
            return (scaling - 2) // 4, True
        if 0.5 <= theta_min <= theta_max:
            return (scaling - 2) // 4, False
        scaling -= 4
    return k, upper_half


def _chernoff_interval(p_hat: float, shots: int, alpha_round: float) -> tuple[float, float]:
    eps = math.sqrt(math.log(2.0 / alpha_round) / (2.0 * shots))
    return max(0.0, p_hat - eps), min(1.0, p_hat + eps)


def iqae_estimate(a: float, config: IqaeConfig) -> EstimateResult:
    """Estimate the good-state probability ``a`` of A|0> to half-width epsilon
    at confidence 1 - alpha. Each round measures Q^k A|0>, whose good state
    has probability sin^2((2k + 1) theta) with sin^2(theta) = ``a``; ``a`` is
    clamped to [0, 1] first, as a simulated probability may round past either
    end. Deterministic for a fixed seed."""
    rng = np.random.default_rng(config.seed)
    theta = math.asin(math.sqrt(min(max(a, 0.0), 1.0)))

    # Worst-case round count, used to split the confidence budget.
    worst_rounds = (
        int(math.log(_MIN_RATIO * math.pi / 8.0 / config.epsilon) / math.log(_MIN_RATIO)) + 1
    )
    alpha_round = config.alpha / worst_rounds

    theta_l, theta_u = 0.0, 0.25  # theta / (2 pi)
    upper_half = True
    k = 0
    rounds = 0
    oracle_calls = 0
    shots_total = 0
    stretch_shots = 0
    stretch_ones = 0

    while theta_u - theta_l > config.epsilon / math.pi and rounds < _MAX_ROUNDS:
        rounds += 1
        k_next, upper_half = _find_next_k(k, upper_half, (theta_l, theta_u))
        if k_next != k:
            stretch_shots = 0
            stretch_ones = 0
            k = k_next
        p = math.sin((2 * k + 1) * theta) ** 2
        ones = sample(p, config.shots_per_round, int(rng.integers(2**62)))
        stretch_shots += config.shots_per_round
        stretch_ones += ones
        shots_total += config.shots_per_round
        oracle_calls += config.shots_per_round * k

        a_min, a_max = _chernoff_interval(
            stretch_ones / stretch_shots, stretch_shots, alpha_round
        )
        if upper_half:
            theta_min = math.acos(1.0 - 2.0 * a_min) / (2.0 * math.pi)
            theta_max = math.acos(1.0 - 2.0 * a_max) / (2.0 * math.pi)
        else:
            theta_min = 1.0 - math.acos(1.0 - 2.0 * a_max) / (2.0 * math.pi)
            theta_max = 1.0 - math.acos(1.0 - 2.0 * a_min) / (2.0 * math.pi)

        # Intersect with the previous interval: each round's bound holds at
        # confidence 1 - alpha_round, so the intersection keeps the union
        # bound and preserves the nesting that the wrap-around arithmetic
        # assumes (a bound landing exactly on the wrap boundary would
        # otherwise desynchronize the integer parts below).
        scaling = 4 * k + 2
        theta_u = min(theta_u, (int(scaling * theta_u) + theta_max) / scaling)
        theta_l = max(theta_l, (int(scaling * theta_l) + theta_min) / scaling)

    a_l = math.sin(2.0 * math.pi * theta_l) ** 2
    a_u = math.sin(2.0 * math.pi * theta_u) ** 2
    converged = theta_u - theta_l <= config.epsilon / math.pi
    return EstimateResult(
        a_hat=0.5 * (a_l + a_u),
        ci=(a_l, a_u),
        oracle_calls=oracle_calls,
        rounds=rounds,
        converged=converged,
        shots_total=shots_total,
    )
