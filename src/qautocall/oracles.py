"""Classical reference models: plain Monte Carlo, grid-discretized Monte
Carlo, an exact expectation over all grid paths, and the same expectation
under the circuit's quantized semantics.

The two exact expectations never enumerate paths. A path's payoff depends on
it only through a Markov state: its running log-return (a float, or the
accumulator's int64 code), whether the barrier has been crossed, and whether
a binary has fired. Both run a forward recursion over the distinct
``(value, crossed)`` states and their probability mass, expanding them by
every grid shock in blocks of at most ``_CHUNK`` (state, shock) pairs. The
one limit is the states a step keeps: at ``BYTES_PER_STATE`` bytes each they
must fit in physical memory, the same :func:`~qautocall.circuit.physical_memory`
that sizes the pricing circuit, or the run raises :class:`CapacityError`.

The two Monte Carlo oracles draw, transform and price their paths in blocks
of at most ``_MC_BLOCK`` rows, so their memory grows with the path count by
``BYTES_PER_PATH`` bytes a path only (the payoff vector and its reduction),
which must fit in physical memory too.

Reproducibility contract: all randomness comes from numpy's PCG64 seeded
generator; path p consumes row p of a single (paths, steps) uniform array,
and the blocks take its rows in order from the one stream, so results are
bit-stable for a fixed seed regardless of the block size. Standard normals
are produced by inverse CDF, never rejection, and grid draws by an exact
inverse-CDF lookup.

scipy's ``ndtri`` is imported by :func:`mc_price` when it runs: importing
``scipy.special`` took about 0.27 s and 24 MiB of RSS on a 2-core machine,
and no other method or command needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import QuantizedModel, physical_memory
from .contracts import AutocallableContract, FixedPointFormat
from .errors import CapacityError
from .loading import GaussianGridSpec

_CHUNK = 2**18
#: peak bytes per state a step keeps, temporaries of its last merge included:
#: cf-disc on the 20-step Table-2 contract peaked 63 bytes per kept state at
#: k = 8 (9.2 million states) and 72 at k = 7 (0.95 million, where the ~12 MiB
#: working set of one block weighs more)
BYTES_PER_STATE = 80
#: peak bytes per Monte Carlo path: its float64 payoff and the temporary of
#: the same length that ``np.std`` makes of the payoffs; 2 * 10**6 mc-disc
#: paths peaked 16.4 bytes per path, the blocks' fixed working set included
BYTES_PER_PATH = 16
_MC_BLOCK = 2**13
_BUCKET_BITS = 12


@dataclass(frozen=True)
class McResult:
    mean: float
    stderr: float
    paths: int
    seed: int


def _payoffs_vector(incs: np.ndarray, contract: AutocallableContract) -> np.ndarray:
    """Discounted payoffs of an (M, T) increment block, one per row: the first
    binary in the money pays, else a path that crossed the barrier and ends
    below the strike pays the put, else nothing.

    Works on the contiguous (T, M) transpose, one row per observation date;
    adding each row onto the next makes the same sequential additions as
    ``np.cumsum`` along each path.
    """
    r = incs.T.copy()
    for t in range(1, len(r)):
        r[t] += r[t - 1]
    np.exp(r, out=r)
    payoff = np.zeros(r.shape[1])
    alive = np.ones(r.shape[1], dtype=bool)
    for i, b in enumerate(contract.binaries):
        trig = alive & (r[b.step - 1] > b.strike)
        np.putmask(payoff, trig, contract.discounted_payout(i))
        alive &= ~trig
    crossed = np.zeros(r.shape[1], dtype=bool)
    for level in r:
        crossed |= level < contract.barrier
    put = np.flatnonzero(alive & crossed & (r[-1] < contract.strike))
    payoff[put] = (
        contract.notional
        * (r[-1, put] - contract.strike)
        * math.exp(-contract.rate * contract.maturity)
    )
    return payoff


def _mc_result(payoffs: np.ndarray, seed: int) -> McResult:
    n = len(payoffs)
    stderr = float(np.std(payoffs, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return McResult(mean=float(payoffs.mean()), stderr=stderr, paths=n, seed=seed)


def _mc_blocks(contract: AutocallableContract, paths: int, seed: int, draw_shocks) -> McResult:
    """Price ``paths`` paths in blocks of at most ``_MC_BLOCK`` rows.

    ``draw_shocks(rng, shape)`` turns the next ``shape`` uniforms of the seeded
    stream into standard shocks, so block after block takes the rows of the
    one ``(paths, steps)`` uniform array in order. The payoffs fill one
    vector, which :func:`_mc_result` reduces whole. Raises
    :class:`CapacityError` before allocating it when the paths, at
    ``BYTES_PER_PATH`` bytes each, do not fit in physical memory.
    """
    if paths < 1:
        raise ValueError(f"paths must be >= 1, got {paths}")
    memory = physical_memory()
    if paths * BYTES_PER_PATH > memory:
        raise CapacityError(
            f"estimation.paths = {paths} paths, {BYTES_PER_PATH} bytes each, need more than "
            f"the {memory} bytes of physical memory (reduce estimation.paths)"
        )
    rng = np.random.default_rng(seed)
    drift = contract.mu * contract.dt
    scale = contract.sigma * math.sqrt(contract.dt)
    payoffs = np.empty(paths)
    for start in range(0, paths, _MC_BLOCK):
        stop = min(start + _MC_BLOCK, paths)
        incs = draw_shocks(rng, (stop - start, contract.steps))
        incs *= scale
        incs += drift
        payoffs[start:stop] = _payoffs_vector(incs, contract)
    return _mc_result(payoffs, seed)


def mc_price(contract: AutocallableContract, paths: int, seed: int) -> McResult:
    """Plain Monte Carlo with continuous standard normal shocks."""
    from scipy.special import ndtri

    def normal_shocks(rng: np.random.Generator, shape) -> np.ndarray:
        u = rng.random(shape)
        # keep ndtri finite at the (measure-zero) edge draws
        np.clip(u, 1e-300, 1.0 - 1e-16, out=u)
        return ndtri(u, out=u)

    return _mc_blocks(contract, paths, seed, normal_shocks)


def mc_price_discretized(
    contract: AutocallableContract, grid: GaussianGridSpec, paths: int, seed: int
) -> McResult:
    """Monte Carlo whose shocks are drawn from the discretized Gaussian grid."""
    points = grid.points()
    inverse_cdf = _grid_inverse_cdf(grid)
    return _mc_blocks(
        contract, paths, seed, lambda rng, shape: points[inverse_cdf(rng.random(shape))]
    )


def _grid_inverse_cdf(grid: GaussianGridSpec):
    """``u -> np.searchsorted(cum, u, side="right")`` on the renormalized grid
    CDF ``cum``, for uniforms u in [0, 1).

    The lookup goes through ``2**_BUCKET_BITS`` equal buckets. ``b =
    floor(u * 2**_BUCKET_BITS)`` is exact, so u lies in [b, b + 1) /
    2**_BUCKET_BITS. Where no CDF value falls in that bucket, every u in it
    has the same count, which the table holds; the at most 2^k buckets that
    hold a CDF step read -1, and only their draws are searched.
    """
    cum = np.cumsum(grid.probabilities())
    cum[-1] = 1.0
    buckets = 2**_BUCKET_BITS
    below = np.searchsorted(cum, np.arange(buckets + 1) / buckets)
    table = np.where(below[:-1] == below[1:], below[:-1], -1)

    def inverse_cdf(u: np.ndarray) -> np.ndarray:
        g = table[(u * buckets).astype(np.intp)]
        flat = g.reshape(-1)
        search = np.flatnonzero(flat < 0)
        flat[search] = np.searchsorted(cum, u.reshape(-1)[search], side="right")
        return g

    return inverse_cdf


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


def _fold(blocks, leaves):
    """Merge the states each successor block keeps, then merge their
    concatenation: the states the step keeps.

    ``leaves(values, observed, crossed)`` marks the successors whose mass
    leaves the recursion (None: none leave). Returns the kept ``(values,
    crossed, mass)`` and each block's lost mass, in block order. Raises
    :class:`CapacityError` once the kept states, at ``BYTES_PER_STATE`` bytes
    each, no longer fit in physical memory.
    """
    memory = physical_memory()
    kept, lost, count = [], [], 0
    for v, r, c, m in blocks:
        if leaves is not None:
            out = leaves(v, r, c)
            lost.append(float(m[out].sum()))
            v, c, m = v[~out], c[~out], m[~out]
        kept.append(_merge(v, c, m))
        count += len(kept[-1][0])
        if count * BYTES_PER_STATE > memory:
            raise CapacityError(
                f"the closed form holds {count} (value, crossed) states in one step, "
                f"{BYTES_PER_STATE} bytes each, more than the {memory} bytes of physical "
                "memory (reduce k or p, or use the discretized Monte Carlo oracle instead)"
            )
    return _merge(*(np.concatenate(part) for part in zip(*kept))), lost


def _forward(contract, shocks, probs, observe, barrier, strikes):
    """Carry the ``(value, crossed)`` states through steps 1 .. T-1.

    Starting from value 0 with mass 1, each step adds every grid shock to
    every state, moves the mass whose observed value is strictly above the
    due binary's threshold in ``strikes`` out of the recursion, and merges
    equal states (:func:`_fold`).

    Returns the mass each binary fired with and the ``(values, crossed,
    mass)`` states alive before the last step, which the caller folds into
    its expectation block by block.
    """
    due = {b.step: i for i, b in enumerate(contract.binaries)}
    fired = [0.0] * len(contract.binaries)
    states = (np.zeros(1, dtype=shocks.dtype), np.zeros(1, dtype=bool), np.ones(1))
    for step in range(1, contract.steps):
        i = due.get(step)
        leaves = None if i is None else (lambda v, r, c, strike=strikes[i]: r > strike)
        states, lost = _fold(_successors(states, shocks, probs, observe, barrier), leaves)
        for m in lost:
            fired[i] += m
    return fired, states


def closed_form_discretized(contract: AutocallableContract, grid: GaussianGridSpec) -> float:
    """Exact expectation over all grid paths in real arithmetic.

    A forward recursion over ``(log-return, crossed)`` states (see
    :func:`_forward`). Each state's log-return is built by the same
    sequential float additions as ``np.cumsum`` over the path, so every path
    is classified exactly as :func:`_payoffs_vector` classifies it; only the
    order in which the weighted payoffs are summed differs.
    """
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
    probs = grid.probabilities()
    shocks = model.inc_codes
    fired, states = _forward(
        contract, shocks, probs, _identity, model.barrier_code, model.strike_codes
    )
    good_mass = sum(level * m for level, m in zip(model.binary_levels, fired))
    # a terminal state without the put (not crossed, or at or above its
    # strike) pays the zero level; the put-active ones are merged by code
    (codes, _, mass), lost = _fold(
        _successors(states, shocks, probs, _identity, model.barrier_code),
        lambda v, r, c: ~c | (v >= model.put_strike_code),
    )
    for m in lost:
        good_mass += model.mapping.zero_level * m
    levels = np.array([model.put_level(int(code)) for code in codes])
    good_mass += float(mass @ levels)
    return model.mapping.to_payoff(good_mass)
