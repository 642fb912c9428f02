"""Whole-block Monte Carlo oracles: every path's uniforms drawn as one
``(paths, steps)`` array, a ``searchsorted`` grid lookup per draw, and the
row-wise ``cumsum`` payoff, reduced over consecutive ``_MC_BLOCK``-row chunks
by the blocked oracles' merge. Tests compare the blocked oracles in
``qautocall.oracles`` with these bit for bit. Those screen each block on
bucket bounds and transform only the rows the bounds leave undecided, step by
step: a row's ``cumsum`` here is the same sequence of additions.

The plain oracle transforms with the package's ``_ndtri``, not scipy's
``ndtri``: in the tails the two differ by up to 8 ulp (``TestNdtri`` holds
``_ndtri`` to that), which moves a put payoff, and so a stderr, in its last
digit. What is checked here is the blocking, not the transform."""

import math

import numpy as np

from qautocall.oracles import _MC_BLOCK, McResult, _ndtri


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


def normal_increments(contract, u):
    """Log-return increments of continuous normal shocks drawn from the uniforms ``u``."""
    z = _ndtri(np.clip(u, 1e-300, 1.0 - 1e-16))
    return contract.mu * contract.dt + contract.sigma * math.sqrt(contract.dt) * z


def grid_increments(contract, grid, u):
    """Log-return increments of ``grid``'s shocks drawn from the uniforms ``u``."""
    shocks = grid.points()[np.searchsorted(grid_cdf(grid), u, side="right")]
    return contract.mu * contract.dt + contract.sigma * math.sqrt(contract.dt) * shocks


def mc_payoffs(contract, paths, seed):
    rng = np.random.default_rng(seed)
    return payoffs(normal_increments(contract, rng.random((paths, contract.steps))), contract)


def mc_disc_payoffs(contract, grid, paths, seed):
    rng = np.random.default_rng(seed)
    u = rng.random((paths, contract.steps))
    return payoffs(grid_increments(contract, grid, u), contract)


def mc_price(contract, paths, seed):
    return _result(mc_payoffs(contract, paths, seed), seed)


def mc_price_discretized(contract, grid, paths, seed):
    return _result(mc_disc_payoffs(contract, grid, paths, seed), seed)
