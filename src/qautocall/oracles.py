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

The Monte Carlo oracles (:func:`mc_prices`, one price per kind of shock:
continuous normals or one grid's) draw their paths in blocks of at most
``_MC_BLOCK`` rows, price every kind of the call on each block's one draw
and reduce each kind's payoffs as soon as they are priced, so their memory
does not grow with the path count or the kinds: one block's uniforms and
payoffs, under 4 MiB at 3 steps. At ``BYTES_PER_UNIFORM`` bytes each, one
block's uniforms must fit in physical memory, or the run raises
:class:`CapacityError` before it draws. A block is screened on the bounds of
its draws' lookup buckets, which settles most paths; only the undecided
rows, about 5 % on Table-2, are turned into shocks, step by step. One
screen per block serves every kind of the call, on bounds that hold for each
(:func:`_mc_blocks`).

Reproducibility contract: all randomness comes from numpy's PCG64 seeded
generator; path p consumes row p of a single (paths, steps) uniform array,
and the blocks take its rows in order from the one stream, drawn once per
block for every kind of the call, so every path's payoff is bit-stable for a
fixed seed whatever other kinds share the call. The mean and stderr reduce
the payoffs over consecutive ``_MC_BLOCK`` = 2**15-row blocks, a fixed
constant, merged in path order (:func:`_mc_blocks`). Standard normals are
produced by inverse CDF, never rejection, and grid draws by an exact
inverse-CDF lookup.

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
import functools
import math
from dataclasses import dataclass

import numpy as np

from .circuit import QuantizedModel
from .contracts import AutocallableContract, FixedPointFormat
from .errors import NumericalError, check_memory, physical_memory
from .loading import GaussianGridSpec

_CHUNK = 2**18
#: peak bytes per state a step counts (every block's merged states, held until
#: their last merge), temporaries included: Table-2 at k = 13 peaked 62-64 per
#: state at 1.6-9.0 million (both closed forms), cf-disc at k = 12 without
#: binaries 79 at 0.27 million, where one block's ~14 MiB working set weighs more
BYTES_PER_STATE = 80
_MC_BLOCK = 2**15
#: peak bytes per uniform of one Monte Carlo block, temporaries included:
#: traced with tracemalloc on three 2**15-row blocks of Table-2 at T steps,
#: either kind alone or both sharing a screen (a 2**15-float buffer more), at
#: most 9.7 at 50 steps (9.8 for both kinds if the screen decides no row; 10.0
#: for ``mc`` at dt = 1/50), 8.9 at 100 and 8.1 at 1000; fewer steps cost more
#: per uniform, but their blocks stay under 15 MiB
BYTES_PER_UNIFORM = 10
_BUCKET_BITS = 12
#: bytes per step of a closed form's barrier list, an 8-byte slot and a 28-byte
#: int: cf-disc's traced with tracemalloc at 35-36 for 10**4 and 10**5 steps
BYTES_PER_BARRIER = 36

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


def _brackets(maps, contract: AutocallableContract):
    """The bucket bounds that hold for every increment map of ``maps``: the
    least and the greatest increment of each of the N = ``2**_BUCKET_BITS``
    buckets, over every map at b / N and at the float below (b + 1) / N, the
    least and greatest uniform of bucket b; and :func:`_screen`'s margin:
    2**-30 (1 + T**2 B), B the largest |bound|, plus 2**-1064 over the least
    threshold, for ``np.exp``'s ulp of a subnormal. A row these bounds decide
    pays the same under every map."""
    edges = np.arange(2**_BUCKET_BITS + 1) / 2**_BUCKET_BITS
    least_u, greatest_u = edges[:-1], np.nextafter(edges[1:], 0.0)
    # a map may overwrite its uniforms; one map's bounds are its own, not copies
    lo = functools.reduce(np.minimum, [increments(least_u.copy()) for increments in maps])
    hi = functools.reduce(np.maximum, [increments(greatest_u.copy()) for increments in maps])
    least = min([contract.barrier] + [b.strike for b in contract.binaries])
    return lo, hi, 2.0**-30 * (1 + contract.steps**2 * np.abs([lo, hi]).max()) + 2.0**-1064 / least


def _screen(u: np.ndarray, contract: AutocallableContract, brackets, out, pays, work) -> np.ndarray:
    """Write to ``out`` the payoffs of the rows of the (M, T) block ``u`` that
    the bucket bounds ``brackets`` (:func:`_brackets`) decide, 0 elsewhere, and
    return the undecided rows; ``work`` is (3, M) scratch. A live row sums its
    bounds into a lower and, up to the last binary, an upper log-return, which
    hold its sum under each kind within the margin: every map is non-decreasing
    in u (``_ndtri`` to a few ulps) and float sums are monotone. Paid clear
    above a due binary's log strike and going on clear below it, a row is
    otherwise undecided, as is one whose lower sums may cross the barrier and
    end below the strike. A margin that is not finite leaves every row
    undecided."""
    out.fill(0.0)
    lo_incs, hi_incs, margin = brackets
    if not math.isfinite(margin):
        return np.arange(len(u))
    due = {b.step: i for i, b in enumerate(contract.binaries)}
    last = max(due, default=0)
    live, undecided, n = None, [], len(u)  # every row, until a binary fires
    for t in range(contract.steps):
        lo, hi, least = work[:, :n]
        b = ((u[:, t] if live is None else u[:, t][live]) * 2**_BUCKET_BITS).astype(np.intp)
        for bound, table in ((lo, lo_incs), (hi, hi_incs))[:1 + (t < last)]:
            np.add(bound if t else 0.0, table.take(b), out=bound)
        np.minimum(least if t else lo, lo, out=least)
        i = due.get(t + 1)
        if i is not None:
            strike = math.log(contract.binaries[i].strike)
            above, below = lo > strike + margin, hi < strike - margin
            hit, keep, open_ = (np.flatnonzero(x) for x in (above, below, ~(above | below)))
            out[hit if live is None else live[hit]] = pays[i]
            undecided.append(open_ if live is None else live[open_])
            live, n = (keep if live is None else live[keep]), len(keep)
            for x in (lo, hi, least):
                x[:n] = x[keep]
    open_ = np.flatnonzero((least <= math.log(contract.barrier) + margin)
                           & (lo <= math.log(contract.strike) + margin))
    undecided.append(open_ if live is None else live[open_])
    return np.concatenate(undecided)


def _exact(u: np.ndarray, rows: np.ndarray, contract: AutocallableContract, increments,
           out: np.ndarray, notional: float, discount: float, pays: list[float], work) -> None:
    """Write to ``out`` the discounted payoffs of the paths in ``rows`` of the
    (M, T) block ``u``: the first binary in the money pays ``pays[i]``, else
    a path that crossed the barrier and ends below the strike pays the put on
    ``notional``, discounted by ``discount``, else nothing. Step by step over
    the live rows, whose log-returns, levels and crossed flags sit in ``work``,
    ``increments`` turns the step's uniforms (a fresh array it may overwrite)
    into increments, added on as ``np.cumsum`` adds them along a path (starting
    from 0.0 changes at most the sign of a zero, which ``exp`` ignores)."""
    due = {b.step: i for i, b in enumerate(contract.binaries)}
    n = len(rows)
    work[0, :n], work[2].view(np.bool_)[:n] = 0.0, False
    for t in range(contract.steps):
        if not n:
            return
        logret, level, crossed = work[0, :n], work[1, :n], work[2].view(np.bool_)[:n]
        logret += increments(u[:, t][rows])
        np.exp(logret, out=level)
        crossed |= level < contract.barrier
        i = due.get(t + 1)
        if i is not None:
            fired = level > contract.binaries[i].strike
            hit, keep = np.flatnonzero(fired), np.flatnonzero(~fired)
            out[rows[hit]] = pays[i]
            rows, n = rows[keep], len(keep)
            logret[:n], crossed[:n] = logret[keep], crossed[keep]
    # no binary falls on the last step, so ``level`` is every live row's
    put = np.flatnonzero(crossed & (level < contract.strike))
    out[rows[put]] = notional * (level[put] - contract.strike) * discount


def _mc_blocks(contract: AutocallableContract, paths: int, seed: int, maps) -> list[McResult]:
    """Price ``paths`` paths under every increment map of ``maps``, in blocks
    of at most ``_MC_BLOCK`` rows; one :class:`McResult` per map.

    Block after block draws the next rows of the one ``(paths, steps)`` uniform
    array from the seeded stream into one reused buffer and screens them once
    (:func:`_screen`) on bounds that hold for every map (:func:`_brackets`), so
    a row it decides pays the same under each. Each map copies the decided
    payoffs into one reused payoff buffer (a lone map's screen writes there)
    and prices the other rows with its :func:`_exact`, so every payoff is the
    float a call with that map alone gives. Each map keeps its own running
    totals: its block's count, mean and centred sum of squares merge into them
    in path order (Chan, Golub and LeVeque): with delta = mean_b - mean and w
    = n_b / (n + n_b), mean += delta w and M2 += M2_b + delta^2 n w. One block
    gives the floats of ``np.mean`` and ``np.std(ddof=1)``.

    The payoffs are priced with the notional and payouts scaled by 2**-e and
    the mean and stderr scaled back, exactly: e = 0, no scaling, unless a
    block sum or M2 could overflow (:func:`_payoff_exponent`). Raises
    :class:`CapacityError` before drawing when one block's uniforms, at
    ``BYTES_PER_UNIFORM`` bytes each, do not fit in physical memory, and
    :class:`NumericalError` when a price itself is not finite.
    """
    if paths < 1:
        raise ValueError(f"paths must be >= 1, got {paths}")
    rows = min(paths, _MC_BLOCK)
    check_memory(rows * contract.steps, BYTES_PER_UNIFORM,
                 f"a Monte Carlo block draws {rows} x {contract.steps} uniforms", "; reduce steps")
    e = _payoff_exponent(contract, paths)
    notional, discount = contract.put_factors(e)
    pays = [math.ldexp(contract.discounted_payout(i), -e) for i in range(len(contract.binaries))]
    rng = np.random.default_rng(seed)
    uniforms, buffer, work = np.empty((rows, contract.steps)), np.empty(rows), np.empty((3, rows))
    screened = np.empty(rows) if len(maps) > 1 else buffer  # the screen's payoffs
    n, means, m2s = 0, [0.0] * len(maps), [0.0] * len(maps)
    # an extreme drift overflows log-returns and levels to +-inf, which
    # classify every path as a finite one would; entered once per call
    with np.errstate(over="ignore"):
        brackets = _brackets(maps, contract)
        for start in range(0, paths, _MC_BLOCK):
            rows = min(_MC_BLOCK, paths - start)
            u, block = uniforms[:rows], buffer[:rows]
            rng.random(out=u)  # the same stream as rng.random((rows, steps))
            undecided = _screen(u, contract, brackets, screened[:rows], pays, work)
            for j, increments in enumerate(maps):
                if screened is not buffer:
                    np.copyto(block, screened[:rows])
                _exact(u, undecided, contract, increments, block, notional, discount, pays, work)
                block_mean = block.sum() / rows
                block -= block_mean
                block *= block
                delta, w = block_mean - means[j], rows / (n + rows)
                means[j] += delta * w
                m2s[j] += block.sum() + delta * delta * n * w
            n += rows
    results = []
    for mean, m2 in zip(means, m2s):
        stderr = math.sqrt(m2 / (n - 1)) / math.sqrt(n) if n > 1 else 0.0
        with np.errstate(over="ignore"):  # a price beyond the float range is inf, refused below
            mean, stderr = (float(x) for x in np.ldexp((mean, stderr), e))
        if not (math.isfinite(mean) and math.isfinite(stderr)):
            raise NumericalError(f"Monte Carlo price is not finite: mean {mean}, stderr {stderr}")
        results.append(McResult(mean=mean, stderr=stderr, paths=n, seed=seed))
    return results


def _payoff_exponent(c: AutocallableContract, paths: int) -> int:
    """Least e >= 0 at which payoffs scaled by 2**-e overflow neither a block
    sum nor M2 <= paths * (2 B)**2, B the largest discounted payout or
    discounted notional * strike (a put pays notional * (level - strike), with
    0 <= level < strike): the scaled B stays within 2**((1018 - b) / 2), with b
    ``paths.bit_length()``, so M2 stays below 2**1020."""
    log2_b = max([math.log2(c.notional) + math.log2(c.strike) - c.rate * c.maturity / math.log(2)]
                 + [math.log2(b.payout) - c.rate * b.step * c.dt / math.log(2) for b in c.binaries])
    return max(0, math.ceil(log2_b) - (1018 - paths.bit_length()) // 2)


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


def mc_prices(contract: AutocallableContract, grids, paths: int, seed: int) -> list[McResult]:
    """Monte Carlo prices of ``contract``, one per entry of ``grids``, all on
    one uniform draw per block (:func:`_mc_blocks`): a ``None`` entry draws
    continuous standard normal shocks, a :class:`GaussianGridSpec` its grid's
    shocks. The entries share one bucket screen per block. Each price is the
    one a call with that entry alone returns, float for float."""
    return _mc_blocks(contract, paths, seed, [_increments(contract, grid) for grid in grids])


def mc_price(contract: AutocallableContract, paths: int, seed: int) -> McResult:
    """Plain Monte Carlo with continuous standard normal shocks."""
    return mc_prices(contract, [None], paths, seed)[0]


def mc_price_discretized(
    contract: AutocallableContract, grid: GaussianGridSpec, paths: int, seed: int
) -> McResult:
    """Monte Carlo whose shocks are drawn from the discretized Gaussian grid."""
    return mc_prices(contract, [grid], paths, seed)[0]


def _increments(contract: AutocallableContract, grid: GaussianGridSpec | None):
    """The map of a step's uniforms to log-return increments: of continuous
    standard normal shocks when ``grid`` is None, else of ``grid``'s shocks."""
    drift = contract.mu * contract.dt
    scale = contract.sigma * math.sqrt(contract.dt)
    if grid is not None:
        incs = drift + scale * grid.points()
        inverse_cdf = _grid_inverse_cdf(grid)
        return lambda u: incs[inverse_cdf(u)]

    def normal_increments(u: np.ndarray) -> np.ndarray:
        # keep ndtri finite at the (measure-zero) edge draws
        np.clip(u, 1e-300, 1.0 - 1e-16, out=u)
        z = _ndtri(u)
        z *= scale
        z += drift
        return z

    return normal_increments


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
            check_memory(count, BYTES_PER_STATE,
                         f"the closed form holds {count} (value, crossed) states in one step",
                         " (reduce k or p, or use the discretized Monte Carlo oracle instead)")
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
    exp(t a + b G), not on the running sums the Monte Carlo paths add up: the
    two can disagree only on lattice points within a few ulp of a threshold.

    The put and the binaries are priced at the exact scale 2**-e of
    :func:`_payoff_exponent` (e = 0 at ordinary notionals) and the price
    scaled back. Raises :class:`CapacityError` before it bisects when the
    barrier indices, ``BYTES_PER_BARRIER`` bytes a step, do not fit in
    physical memory, and :class:`NumericalError` when the price is not finite.
    """
    probs = grid.probabilities()  # raises CapacityError for an oversized grid
    check_memory(contract.steps, BYTES_PER_BARRIER,
                 f"the closed form keeps a barrier index for each of {contract.steps} steps",
                 "; reduce steps")
    scale = contract.sigma * math.sqrt(contract.dt)
    a = contract.mu * contract.dt - scale * grid.s_min
    b = scale * grid.ds
    top = 2**grid.k - 1

    # the first G of step t whose level reaches (bisect_right: exceeds) ``level``
    def first(t, level, above=bisect.bisect_left):
        return above(range(t * top + 1), level, key=lambda g: np.exp(t * a + b * g))

    # an extreme drift overflows the level to inf, which classifies as a finite one would
    with np.errstate(over="ignore"):
        barriers = [first(t, contract.barrier) for t in range(1, contract.steps + 1)]
        strikes = [first(o.step, o.strike, bisect.bisect_right) - 1 for o in contract.binaries]
        put_strike = first(contract.steps, contract.strike)
    fired, _, (keys, mass) = _recursion(
        contract, np.arange(top + 1), probs, barriers, strikes, put_strike
    )
    e = _payoff_exponent(contract, 1)  # the masses sum to 1: bounded as one path's payoff
    value = sum(math.ldexp(contract.discounted_payout(i), -e) * m for i, m in enumerate(fired))
    notional, discount = contract.put_factors(e)
    put = notional * (np.exp(contract.steps * a + b * keys) - contract.strike)
    value += float(mass @ (put * discount))
    with np.errstate(over="ignore"):  # a price beyond the float range is inf, refused below
        value = float(np.ldexp(value, e))
    if not math.isfinite(value):
        raise NumericalError(f"closed-form price is not finite: {value}")
    return value


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
    Its barrier list is checked against physical memory as cf-disc's is.
    """
    model = QuantizedModel(contract, grid, fmt)
    # grid shocks that quantize to the same code are one shock of their summed mass
    shocks, code_of = np.unique(model.inc_codes, return_inverse=True)
    probs = np.bincount(code_of, weights=grid.probabilities())
    check_memory(contract.steps, BYTES_PER_BARRIER, "the closed form keeps a barrier code for "
                 f"each of {contract.steps} steps", "; reduce steps")
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
