"""Classical reference models: plain Monte Carlo, grid-discretized Monte
Carlo, an exact expectation over all grid paths, and the same expectation
under the circuit's quantized semantics.

The two exact expectations never enumerate paths. A path's payoff depends on
it only through a Markov state: its running log-return (a float, or the
accumulator's int64 code), whether the barrier has been crossed, and whether
a binary has fired. Both run a forward recursion over the distinct
``(value, crossed)`` states and their probability mass, expanding them by
every grid shock in blocks of at most ``_CHUNK`` (state, shock) pairs. The
enumeration limits of :func:`_check_enumeration` still apply to the number of
grid paths, (2^k)^T.

Reproducibility contract: all randomness comes from numpy's PCG64 seeded
generator; path p consumes row p of a single (paths, steps) uniform block, so
results are bit-stable for a fixed seed regardless of how callers batch.
Standard normals are produced by inverse CDF, never rejection.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .circuit import QuantizedModel
from .contracts import AutocallableContract, FixedPointFormat
from .errors import CapacityError
from .loading import GaussianGridSpec

ENUMERATION_WARN = 2**24
ENUMERATION_LIMIT = 2**26
_CHUNK = 2**18


@dataclass(frozen=True)
class McResult:
    mean: float
    stderr: float
    paths: int
    seed: int


def payoff_of_path(log_increments, contract: AutocallableContract) -> float:
    """Discounted payoff of one path of ``steps`` log-return increments."""
    incs = np.asarray(log_increments, dtype=float)
    if incs.shape != (contract.steps,):
        raise ValueError(f"need {contract.steps} increments, got shape {incs.shape}")
    return float(_payoffs_vector(incs[None, :], contract)[0])


def _payoffs_vector(incs: np.ndarray, contract: AutocallableContract) -> np.ndarray:
    """Discounted payoffs of an (M, T) increment block, one per row: the first
    binary in the money pays, else a path that crossed the barrier and ends
    below the strike pays the put, else nothing."""
    r = np.exp(np.cumsum(incs, axis=1))
    payoff = np.zeros(len(incs))
    alive = np.ones(len(incs), dtype=bool)
    for i, b in enumerate(contract.binaries):
        trig = alive & (r[:, b.step - 1] > b.strike)
        payoff[trig] = contract.discounted_payout(i)
        alive &= ~trig
    put = alive & (r < contract.barrier).any(axis=1) & (r[:, -1] < contract.strike)
    payoff[put] = (
        contract.notional
        * (r[put, -1] - contract.strike)
        * math.exp(-contract.rate * contract.maturity)
    )
    return payoff


def _mc_result(payoffs: np.ndarray, seed: int) -> McResult:
    n = len(payoffs)
    stderr = float(np.std(payoffs, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return McResult(mean=float(payoffs.mean()), stderr=stderr, paths=n, seed=seed)


def _uniform_block(rng: np.random.Generator, shape) -> np.ndarray:
    u = rng.random(shape)
    # keep ndtri finite at the (measure-zero) edge draws
    return np.clip(u, 1e-300, 1.0 - 1e-16)


def mc_price(contract: AutocallableContract, paths: int, seed: int) -> McResult:
    """Plain Monte Carlo with continuous standard normal shocks."""
    if paths < 1:
        raise ValueError(f"paths must be >= 1, got {paths}")
    rng = np.random.default_rng(seed)
    z = ndtri(_uniform_block(rng, (paths, contract.steps)))
    incs = contract.mu * contract.dt + contract.sigma * math.sqrt(contract.dt) * z
    return _mc_result(_payoffs_vector(incs, contract), seed)


def mc_price_discretized(
    contract: AutocallableContract, grid: GaussianGridSpec, paths: int, seed: int
) -> McResult:
    """Monte Carlo whose shocks are drawn from the discretized Gaussian grid."""
    if paths < 1:
        raise ValueError(f"paths must be >= 1, got {paths}")
    rng = np.random.default_rng(seed)
    g = draw_grid_indices(rng, grid, (paths, contract.steps))
    shocks = grid.points()[g]
    incs = contract.mu * contract.dt + contract.sigma * math.sqrt(contract.dt) * shocks
    return _mc_result(_payoffs_vector(incs, contract), seed)


def draw_grid_indices(rng: np.random.Generator, grid: GaussianGridSpec, shape) -> np.ndarray:
    """Inverse-CDF draws of grid indices under the renormalized grid weights."""
    cum = np.cumsum(grid.probabilities())
    cum[-1] = 1.0
    return np.searchsorted(cum, rng.random(shape), side="right")


def _check_enumeration(grid: GaussianGridSpec, steps: int) -> int:
    total = (2**grid.k) ** steps
    if total > ENUMERATION_LIMIT:
        raise CapacityError(
            f"{total} grid paths exceed the enumeration limit {ENUMERATION_LIMIT}; "
            "use the discretized Monte Carlo oracle instead"
        )
    if total > ENUMERATION_WARN:
        warnings.warn(
            f"enumerating {total} grid paths; this may be slow", RuntimeWarning, stacklevel=3
        )
    return total


def _identity(values):
    return values


def _successors(states, shocks, probs, observe, barrier):
    """Every (state, shock) successor of ``states``, in blocks of at most
    ``_CHUNK`` pairs (at least one block, possibly empty).

    ``states`` is ``(values, crossed, mass)``; each block is ``(values,
    observed, crossed, mass)`` where ``observed = observe(values)`` is what the
    contract's thresholds compare with, and ``crossed`` adds the strict
    ``observed < barrier`` test to the parent state's flag.
    """
    values, crossed, mass = states
    n = len(shocks)
    rows = max(1, _CHUNK // n)
    for start in range(0, max(len(values), 1), rows):
        block = slice(start, start + rows)
        v = (values[block, None] + shocks).ravel()
        r = observe(v)
        c = np.repeat(crossed[block], n) | (r < barrier)
        yield v, r, c, (mass[block, None] * probs).ravel()


def _merge(values, crossed, mass):
    """Sum the mass of states with equal ``(value, crossed)``."""
    order = np.lexsort((values, crossed))
    values, crossed, mass = values[order], crossed[order], mass[order]
    first = np.ones(len(values), dtype=bool)
    first[1:] = (values[1:] != values[:-1]) | (crossed[1:] != crossed[:-1])
    starts = np.flatnonzero(first)
    return values[starts], crossed[starts], np.add.reduceat(mass, starts)


def _forward(contract, shocks, probs, observe, barrier, strikes):
    """Carry the ``(value, crossed)`` states through steps 1 .. T-1.

    Starting from value 0 with mass 1, each step adds every grid shock to
    every state, moves the mass whose observed value is strictly above the
    due binary's threshold in ``strikes`` out of the recursion, and merges
    equal states.

    Returns the mass each binary fired with and the ``(values, crossed,
    mass)`` states alive before the last step, which the caller folds into
    its expectation block by block.
    """
    due = {b.step: i for i, b in enumerate(contract.binaries)}
    fired = [0.0] * len(contract.binaries)
    states = (np.zeros(1, dtype=shocks.dtype), np.zeros(1, dtype=bool), np.ones(1))
    for step in range(1, contract.steps):
        kept = []
        for v, r, c, m in _successors(states, shocks, probs, observe, barrier):
            if step in due:
                i = due[step]
                hit = r > strikes[i]
                fired[i] += float(m[hit].sum())
                v, c, m = v[~hit], c[~hit], m[~hit]
            kept.append(_merge(v, c, m))
        states = _merge(*(np.concatenate(part) for part in zip(*kept)))
    return fired, states


def closed_form_discretized(contract: AutocallableContract, grid: GaussianGridSpec) -> float:
    """Exact expectation over all grid paths in real arithmetic.

    A forward recursion over ``(log-return, crossed)`` states (see
    :func:`_forward`). Each state's log-return is built by the same
    sequential float additions as ``np.cumsum`` over the path, so every path
    is classified exactly as :func:`payoff_of_path` classifies it; only the
    order in which the weighted payoffs are summed differs.
    """
    _check_enumeration(grid, contract.steps)
    probs = grid.probabilities()
    shocks = contract.mu * contract.dt + contract.sigma * math.sqrt(contract.dt) * grid.points()
    strikes = [b.strike for b in contract.binaries]
    fired, states = _forward(contract, shocks, probs, np.exp, contract.barrier, strikes)
    value = sum(contract.discounted_payout(i) * m for i, m in enumerate(fired))
    discount_T = math.exp(-contract.rate * contract.maturity)
    for _, r, c, m in _successors(states, shocks, probs, np.exp, contract.barrier):
        put = c & (r < contract.strike)
        value += float(m[put] @ (contract.notional * (r[put] - contract.strike) * discount_T))
    return value


def closed_form_quantized(
    contract: AutocallableContract, grid: GaussianGridSpec, fmt: FixedPointFormat
) -> float:
    """Exact expectation under the circuit's quantized semantics.

    Reuses :class:`QuantizedModel`: quantized increments and thresholds,
    strict comparators, and the put branch valued through the integration
    amplitude, then post-processed, exactly as the circuit does. The states
    of the forward recursion (see :func:`_forward`) are ``(accumulator code,
    crossed)`` pairs, so paths are classified on the same int64 codes the
    circuit's accumulator holds. The put level is evaluated once per
    distinct put-active terminal code.
    """
    model = QuantizedModel(contract, grid, fmt)
    _check_enumeration(grid, contract.steps)
    probs = grid.probabilities()
    shocks = model.inc_codes
    fired, states = _forward(
        contract, shocks, probs, _identity, model.barrier_code, model.strike_codes
    )
    good_mass = sum(level * m for level, m in zip(model.binary_levels, fired))
    puts = []
    for v, _, c, m in _successors(states, shocks, probs, _identity, model.barrier_code):
        put = c & (v < model.put_strike_code)
        good_mass += model.mapping.zero_level * float(m[~put].sum())
        puts.append(_merge(v[put], c[put], m[put]))
    codes, _, mass = _merge(*(np.concatenate(part) for part in zip(*puts)))
    levels = np.array([model.put_level(int(code)) for code in codes])
    good_mass += float(mass @ levels)
    return model.mapping.to_payoff(good_mass)
