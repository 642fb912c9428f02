"""Whole-block Monte Carlo oracles: every path's uniforms drawn as one
``(paths, steps)`` array, a ``searchsorted`` grid lookup per draw, and the
row-wise ``cumsum`` payoff. Tests compare the blocked oracles in
``qautocall.oracles`` with these bit for bit."""

import math

import numpy as np
from scipy.special import ndtri

from qautocall.oracles import McResult


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
    n = len(values)
    stderr = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return McResult(mean=float(values.mean()), stderr=stderr, paths=n, seed=seed)


def mc_price(contract, paths, seed):
    rng = np.random.default_rng(seed)
    u = np.clip(rng.random((paths, contract.steps)), 1e-300, 1.0 - 1e-16)
    incs = contract.mu * contract.dt + contract.sigma * math.sqrt(contract.dt) * ndtri(u)
    return _result(payoffs(incs, contract), seed)


def mc_price_discretized(contract, grid, paths, seed):
    rng = np.random.default_rng(seed)
    g = np.searchsorted(grid_cdf(grid), rng.random((paths, contract.steps)), side="right")
    shocks = grid.points()[g]
    incs = contract.mu * contract.dt + contract.sigma * math.sqrt(contract.dt) * shocks
    return _result(payoffs(incs, contract), seed)
