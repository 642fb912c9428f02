"""Whole-block Monte Carlo oracles: every path's uniforms drawn as one
``(paths, steps)`` array, a ``searchsorted`` grid lookup per draw, and the
row-wise ``cumsum`` payoff, reduced over consecutive ``_MC_BLOCK``-row chunks
by the blocked oracles' merge. Tests compare the blocked oracles in
``qautocall.oracles`` with these bit for bit."""

import math

import numpy as np
from scipy.special import ndtri

from qautocall.oracles import _MC_BLOCK, McResult


def payoffs(incs, contract):
    return level_payoffs(np.exp(np.cumsum(incs, axis=1)), contract)


def level_payoffs(r, contract):
    """Discounted payoffs of the paths whose levels after each step are the rows of ``r``."""
    payoff = np.zeros(len(r))
    alive = np.ones(len(r), dtype=bool)
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


def grid_cdf(grid):
    cum = np.cumsum(grid.probabilities())
    cum[-1] = 1.0
    return cum


def _result(values, seed):
    """Mean and stderr of ``values``: each chunk's mean and centred sum of
    squares, merged in order by the pairwise update of Chan, Golub and LeVeque."""
    n, mean, m2 = 0, 0.0, 0.0
    for start in range(0, len(values), _MC_BLOCK):
        chunk = values[start:start + _MC_BLOCK]
        rows = len(chunk)
        chunk_mean = chunk.sum() / rows
        delta, w = chunk_mean - mean, rows / (n + rows)
        mean += delta * w
        m2 += ((chunk - chunk_mean) ** 2).sum() + delta * delta * n * w
        n += rows
    stderr = math.sqrt(m2 / (n - 1)) / math.sqrt(n) if n > 1 else 0.0
    return McResult(mean=float(mean), stderr=stderr, paths=n, seed=seed)


def mc_payoffs(contract, paths, seed):
    rng = np.random.default_rng(seed)
    u = np.clip(rng.random((paths, contract.steps)), 1e-300, 1.0 - 1e-16)
    incs = contract.mu * contract.dt + contract.sigma * math.sqrt(contract.dt) * ndtri(u)
    return payoffs(incs, contract)


def mc_disc_payoffs(contract, grid, paths, seed):
    rng = np.random.default_rng(seed)
    g = np.searchsorted(grid_cdf(grid), rng.random((paths, contract.steps)), side="right")
    shocks = grid.points()[g]
    incs = contract.mu * contract.dt + contract.sigma * math.sqrt(contract.dt) * shocks
    return payoffs(incs, contract)


def mc_price(contract, paths, seed):
    return _result(mc_payoffs(contract, paths, seed), seed)


def mc_price_discretized(contract, grid, paths, seed):
    return _result(mc_disc_payoffs(contract, grid, paths, seed), seed)
