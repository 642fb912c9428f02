"""Classical reference models: plain Monte Carlo, grid-discretized Monte
Carlo, an exact expectation over all grid paths, and the same expectation
under the circuit's quantized semantics.

The two exact expectations never enumerate paths. A path's payoff depends on
it only through a Markov state: an int64 key for its running log-return (the
sum of its grid indices, or the accumulator's code), whether the barrier has
been crossed, and whether a binary has fired. Both run one forward recursion
(:func:`_recursion`) over the distinct ``(key, crossed)`` states and their
probability mass, expanding them by every grid shock in blocks of at most
``_CHUNK`` (state, shock) pairs. The one limit is the states a step keeps: at
``BYTES_PER_STATE`` bytes each they must fit in physical memory, the same
:func:`~qautocall.errors.physical_memory` that sizes the pricing circuit, or
the run raises :class:`CapacityError`.

The two Monte Carlo oracles draw and price their paths in blocks of at most
``_MC_BLOCK`` rows and reduce each block's payoffs as soon as it is priced,
so their memory does not grow with the path count: one block's uniforms and
payoffs, under 3 MiB at 3 steps. A block is priced step by step over the
paths still alive: once a path's binary fires it leaves, and its later
uniforms, drawn all the same, are never turned into shocks.

Reproducibility contract: all randomness comes from numpy's PCG64 seeded
generator; path p consumes row p of a single (paths, steps) uniform array,
and the blocks take its rows in order from the one stream, so every path's
payoff is bit-stable for a fixed seed. The mean and stderr reduce the
payoffs over consecutive ``_MC_BLOCK`` = 2**15-row blocks, a fixed constant,
merged in path order (:func:`_mc_blocks`). Standard normals are produced by
inverse CDF, never rejection, and grid draws by an exact inverse-CDF lookup.

The normal inverse CDF is :func:`_ndtri`, a numpy port of Cephes ``ndtri``
(the algorithm ``scipy.special.ndtri`` runs) with its branches, coefficient
tables and operation order. Its central branch, (e^-2, 1 - e^-2), has no
logarithm and matches scipy bit for bit; in the tails numpy's vectorized
``np.log`` may round differently from the C library's ``log``: with numpy
2.4 on an AVX-512 x86-64 machine, 586 of 10**7 seeded uniforms came out 1 to
5 ulp from scipy's value there.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .circuit import QuantizedModel
from .contracts import AutocallableContract, FixedPointFormat
from .errors import CapacityError, physical_memory
from .loading import GaussianGridSpec

_CHUNK = 2**18
#: peak bytes per state a step counts (every block's merged states, held until
#: their last merge), temporaries included: Table-2 at k = 13 peaked 62-64 per
#: state at 1.6-9.0 million (both closed forms), cf-disc at k = 12 without
#: binaries 79 at 0.27 million, where one block's ~14 MiB working set weighs more
BYTES_PER_STATE = 80
_MC_BLOCK = 2**15
_BUCKET_BITS = 12

# Cephes ndtri: exp(-2), sqrt(2 pi) and the coefficients of its rational
# approximations on the central range and on the tails with
# sqrt(-2 log y) below and at or above 8
_EXPM2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242
_P0 = (
    -5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
    1.39312609387279679503E1, -1.23916583867381258016E0,
)
_Q0 = (
    1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
    -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
    1.59056225126211695515E1, -1.18331621121330003142E0,
)
_P1 = (
    4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
    4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
    -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4,
)
_Q1 = (
    1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
    1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
    -3.80806407691578277194E-2, -9.33259480895457427372E-4,
)
_P2 = (
    3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
    1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
    3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9,
)
_Q2 = (
    6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
    2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
    2.89247864745380683936E-6, 6.79019408009981274425E-9,
)


@dataclass(frozen=True)
class McResult:
    mean: float
    stderr: float
    paths: int
    seed: int


def _payoffs(u: np.ndarray, contract: AutocallableContract, increments, out: np.ndarray) -> None:
    """Write to ``out`` the discounted payoffs of the paths whose uniforms are
    the rows of the (M, T) block ``u``: the first binary in the money pays,
    else a path that crossed the barrier and ends below the strike pays the
    put, else nothing.

    Prices step by step over the live paths: ``increments`` turns the step's
    uniforms of the live paths (a fresh array it may overwrite) into
    log-return increments, which are added onto each path's running
    log-return, the same sequential additions as ``np.cumsum`` along the path
    (starting from 0.0 changes at most the sign of a zero, which ``exp``
    ignores). A path whose binary fires leaves the live set.
    """
    out.fill(0.0)
    due = {b.step: i for i, b in enumerate(contract.binaries)}
    live = None  # every row, until a binary fires
    logret, crossed = 0.0, False
    for t in range(contract.steps):
        logret = logret + increments(u[:, t].copy() if live is None else u[:, t][live])
        level = np.exp(logret)
        crossed = crossed | (level < contract.barrier)
        i = due.get(t + 1)
        if i is not None:
            fired = level > contract.binaries[i].strike
            hit, keep = np.flatnonzero(fired), np.flatnonzero(~fired)
            out[hit if live is None else live[hit]] = contract.discounted_payout(i)
            live = keep if live is None else live[keep]
            logret, crossed = logret[keep], crossed[keep]
    # no binary falls on the last step, so ``level`` is every live path's
    put = np.flatnonzero(crossed & (level < contract.strike))
    out[put if live is None else live[put]] = (
        contract.notional
        * (level[put] - contract.strike)
        * math.exp(-contract.rate * contract.maturity)
    )


def _mc_blocks(contract: AutocallableContract, paths: int, seed: int, increments) -> McResult:
    """Price ``paths`` paths in blocks of at most ``_MC_BLOCK`` rows.

    Block after block draws the next rows of the one ``(paths, steps)``
    uniform array from the seeded stream and writes their payoffs
    (:func:`_payoffs`) into one reused buffer. Each block's count, mean and
    centred sum of squares merge into running totals in path order (Chan,
    Golub and LeVeque): with delta = mean_b - mean and w = n_b / (n + n_b),
    mean += delta w and M2 += M2_b + delta^2 n w. One block gives the floats
    of ``np.mean`` and ``np.std(ddof=1)``.
    """
    if paths < 1:
        raise ValueError(f"paths must be >= 1, got {paths}")
    rng = np.random.default_rng(seed)
    buffer = np.empty(min(paths, _MC_BLOCK))
    n, mean, m2 = 0, 0.0, 0.0
    for start in range(0, paths, _MC_BLOCK):
        rows = min(_MC_BLOCK, paths - start)
        block = buffer[:rows]
        # ``u`` lives until the next draw replaces it: freed at the heap's top,
        # glibc would trim and refault the heap every block (50 % slower)
        u = rng.random((rows, contract.steps))
        _payoffs(u, contract, increments, block)
        block_mean = block.sum() / rows
        block -= block_mean
        block *= block
        delta, w = block_mean - mean, rows / (n + rows)
        mean += delta * w
        m2 += block.sum() + delta * delta * n * w
        n += rows
    stderr = math.sqrt(m2 / (n - 1)) / math.sqrt(n) if n > 1 else 0.0
    return McResult(mean=float(mean), stderr=stderr, paths=n, seed=seed)


def _rational(x: np.ndarray, p, q) -> np.ndarray:
    """``x * polevl(x, p) / p1evl(x, q)`` as Cephes evaluates it: Horner's
    rule from ``p[0]``, and from a leading 1 for ``q``."""
    num = p[0] * x
    for c in p[1:]:
        num += c
        num *= x
    den = x + q[0]
    for c in q[1:]:
        den *= x
        den += c
    num /= den
    return num


def _ndtri(y0: np.ndarray) -> np.ndarray:
    """Standard normal inverse CDF of ``y0``, all in (0, 1), computed in
    place when ``y0`` is contiguous.

    The central rational runs in place over the whole array, tail draws
    included, since gathering and scattering the central draws costs more than
    the passes it saves; the logarithmic branch runs only on the tail draws,
    y0 <= e^-2 or y0 > 1 - e^-2.
    """
    y = y0.reshape(-1)
    tail = np.flatnonzero((y <= _EXPM2) | (y > 1.0 - _EXPM2))
    yt = y[tail]
    y -= 0.5
    r = _rational(y * y, _P0, _Q0)
    r *= y
    y += r
    y *= _S2PI
    # the upper tail is 1 - y0 <= e^-2, computed exactly; the lower tail is
    # y0 itself, below 1 - y0
    x = np.log(np.minimum(yt, 1.0 - yt))
    x *= -2.0
    np.sqrt(x, out=x)
    z = 1.0 / x
    x1 = _rational(z, _P1, _Q1)
    far = np.flatnonzero(x >= 8.0)
    if far.size:
        x1[far] = _rational(z[far], _P2, _Q2)
    x0 = np.log(x)
    x0 /= x
    np.subtract(x, x0, out=x0)
    x0 -= x1
    # x0 > 0: positive in the upper tail, negated in the lower
    y[tail] = np.copysign(x0, yt - 0.5)
    return y.reshape(y0.shape)


def mc_price(contract: AutocallableContract, paths: int, seed: int) -> McResult:
    """Plain Monte Carlo with continuous standard normal shocks."""
    drift = contract.mu * contract.dt
    scale = contract.sigma * math.sqrt(contract.dt)

    def normal_increments(u: np.ndarray) -> np.ndarray:
        # keep ndtri finite at the (measure-zero) edge draws
        np.clip(u, 1e-300, 1.0 - 1e-16, out=u)
        z = _ndtri(u)
        z *= scale
        z += drift
        return z

    return _mc_blocks(contract, paths, seed, normal_increments)


def mc_price_discretized(
    contract: AutocallableContract, grid: GaussianGridSpec, paths: int, seed: int
) -> McResult:
    """Monte Carlo whose shocks are drawn from the discretized Gaussian grid."""
    incs = contract.mu * contract.dt + contract.sigma * math.sqrt(contract.dt) * grid.points()
    inverse_cdf = _grid_inverse_cdf(grid)
    return _mc_blocks(contract, paths, seed, lambda u: incs[inverse_cdf(u)])


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


def _successors(states, shocks, probs, barrier):
    """Every (state, shock) successor of ``states``, in blocks of at most
    ``_CHUNK`` pairs (at least one block, possibly empty).

    ``states`` and each block are ``(keys, crossed, mass)``; a block's
    ``crossed`` adds the strict ``key < barrier`` test to its parent's flag.
    """
    keys, crossed, mass = states
    n = len(shocks)
    rows = max(1, _CHUNK // n)
    for start in range(0, max(len(keys), 1), rows):
        block = slice(start, start + rows)
        v = (keys[block, None] + shocks).ravel()
        c = np.repeat(crossed[block], n) | (v < barrier)
        yield v, c, (mass[block, None] * probs).ravel()


def _merge(values, crossed, mass):
    """Sum the mass of states with equal ``(value, crossed)``."""
    order = np.lexsort((values, crossed))
    values, crossed, mass = values[order], crossed[order], mass[order]
    first = np.ones(len(values), dtype=bool)
    first[1:] = (values[1:] != values[:-1]) | (crossed[1:] != crossed[:-1])
    starts = np.flatnonzero(first)
    return values[starts], crossed[starts], np.add.reduceat(mass, starts)


def _merge_blocks(blocks):
    """:func:`_merge` over the concatenation of ``(values, crossed, mass)`` blocks."""
    return _merge(*(np.concatenate(part) for part in zip(*blocks)))


def _fold(blocks, leaves):
    """Merge the states each successor block keeps, then merge their
    concatenation: the states the step keeps.

    ``leaves(keys, crossed)`` marks the successors whose mass leaves the
    recursion (None: none leave). Returns the kept ``(keys, crossed, mass)``
    and each block's lost mass, in block order. Once the held states, at
    ``BYTES_PER_STATE`` bytes each, no longer fit in physical memory, the
    held blocks are merged into one (overlapping blocks hold a state more
    than once); raises :class:`CapacityError` if even that does not fit.
    """
    memory = physical_memory()
    kept, lost, count = [], [], 0
    for v, c, m in blocks:
        if leaves is not None:
            out = leaves(v, c)
            lost.append(float(m[out].sum()))
            v, c, m = v[~out], c[~out], m[~out]
        kept.append(_merge(v, c, m))
        count += len(kept[-1][0])
        if count * BYTES_PER_STATE > memory:
            kept = [_merge_blocks(kept)]
            count = len(kept[0][0])
        if count * BYTES_PER_STATE > memory:
            raise CapacityError(
                f"the closed form holds {count} (value, crossed) states in one step, "
                f"{BYTES_PER_STATE} bytes each, more than the {memory} bytes of physical "
                "memory (reduce k or p, or use the discretized Monte Carlo oracle instead)"
            )
    return _merge_blocks(kept), lost


def _recursion(contract, shocks, probs, barriers, strikes, put_strike):
    """Carry the ``(key, crossed)`` states through the contract's steps.

    Starting from key 0 with mass 1, step t adds every shock to every state,
    marks the keys below ``barriers[t - 1]`` crossed, moves the mass whose key
    is above the due binary's threshold in ``strikes`` out of the recursion
    and merges equal states (:func:`_fold`); the last step keeps only the
    put-active states, crossed with key below ``put_strike``. Returns the mass
    each binary fired with, each last-step block's lost mass and the
    put-active ``(keys, mass)``.
    """
    due = {b.step: i for i, b in enumerate(contract.binaries)}
    fired = [0.0] * len(contract.binaries)
    states = (np.zeros(1, dtype=np.int64), np.zeros(1, dtype=bool), np.ones(1))
    for step in range(1, contract.steps):
        i = due.get(step)
        leaves = None if i is None else (lambda v, c, strike=strikes[i]: v > strike)
        states, lost = _fold(_successors(states, shocks, probs, barriers[step - 1]), leaves)
        for m in lost:
            fired[i] += m
    (keys, _, mass), lost = _fold(
        _successors(states, shocks, probs, barriers[-1]),
        lambda v, c: ~c | (v >= put_strike),
    )
    return fired, lost, (keys, mass)


def closed_form_discretized(contract: AutocallableContract, grid: GaussianGridSpec) -> float:
    """Exact expectation over all grid paths in real arithmetic.

    Grid point g is -s_min + g ds, so after t steps a path's log-return is
    t a + b G, with a = mu dt - sigma sqrt(dt) s_min, b = sigma sqrt(dt) ds
    and G the sum of its grid indices: the recursion's key. The float
    ``t * a + b * G`` is non-decreasing in G (b >= 0, and IEEE rounding is
    monotone), and so is its exp, the level, so bisection over G finds where
    the level first reaches each threshold. Paths are thus classified on
    exp(t a + b G), not on the running sums :func:`_payoffs` compares: the
    two can disagree only on lattice points within a few ulp of a threshold.
    """
    probs = grid.probabilities()  # raises CapacityError for an oversized grid
    scale = contract.sigma * math.sqrt(contract.dt)
    a = contract.mu * contract.dt - scale * grid.s_min
    b = scale * grid.ds
    top = 2**grid.k - 1

    # the first G of step t whose level reaches (bisect_right: exceeds) ``level``
    def first(t, level, above=bisect.bisect_left):
        return above(range(t * top + 1), level, key=lambda g: np.exp(t * a + b * g))

    barriers = [first(t, contract.barrier) for t in range(1, contract.steps + 1)]
    strikes = [first(o.step, o.strike, bisect.bisect_right) - 1 for o in contract.binaries]
    put_strike = first(contract.steps, contract.strike)
    fired, _, (keys, mass) = _recursion(
        contract, np.arange(top + 1), probs, barriers, strikes, put_strike
    )
    value = sum(contract.discounted_payout(i) * m for i, m in enumerate(fired))
    put = contract.notional * (np.exp(contract.steps * a + b * keys) - contract.strike)
    return value + float(mass @ (put * math.exp(-contract.rate * contract.maturity)))


def closed_form_quantized(
    contract: AutocallableContract, grid: GaussianGridSpec, fmt: FixedPointFormat
) -> float:
    """Exact expectation under the circuit's quantized semantics.

    Reuses :class:`QuantizedModel`: quantized increments and thresholds,
    strict comparators, and the put branch valued through the integration
    amplitude, then post-processed, exactly as the circuit does. The keys of
    the recursion (see :func:`_recursion`) are accumulator codes, so paths
    are classified on the same int64 codes the circuit's accumulator holds.
    The put level is evaluated once per distinct put-active terminal code.
    """
    model = QuantizedModel(contract, grid, fmt)
    # grid shocks that quantize to the same code are one shock of their summed mass
    shocks, code_of = np.unique(model.inc_codes, return_inverse=True)
    probs = np.bincount(code_of, weights=grid.probabilities())
    barriers = [model.barrier_code] * contract.steps
    fired, lost, (codes, mass) = _recursion(
        contract, shocks, probs, barriers, model.strike_codes, model.put_strike_code
    )
    good_mass = sum(level * m for level, m in zip(model.binary_levels, fired))
    # the last step's lost mass ends without the put and pays the zero level
    for m in lost:
        good_mass += model.mapping.zero_level * m
    levels = np.array([model.put_level(int(code)) for code in codes])
    good_mass += float(mass @ levels)
    return model.mapping.to_payoff(good_mass)
