import dataclasses
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import mc_reference
from qautocall import oracles
from qautocall.circuit import QuantizedModel, fit_format
from qautocall.contracts import AutocallableContract, BinaryOption
from qautocall.errors import CapacityError, MappingError
from qautocall.loading import GaussianGridSpec
from qautocall.oracles import (
    _BUCKET_BITS,
    _EXPM2,
    _MC_BLOCK,
    BYTES_PER_STATE,
    _brackets,
    _exact,
    _grid_inverse_cdf,
    _increments,
    _ndtri,
    _screen,
    closed_form_discretized,
    closed_form_quantized,
    mc_price,
    mc_price_discretized,
    mc_prices,
)

GRID1 = GaussianGridSpec(k=1, s_min=3.0)
GRID2 = GaussianGridSpec(k=2, s_min=3.0)


def payoff_of_path(log_increments, contract):
    """Discounted payoff of one path of ``steps`` log-return increments."""
    incs = np.asarray(log_increments, dtype=float)
    if incs.shape != (contract.steps,):
        raise ValueError(f"need {contract.steps} increments, got shape {incs.shape}")
    return float(mc_reference.payoffs(incs[None, :], contract)[0])


def _grid_paths(contract, grid):
    return itertools.product(range(2**grid.k), repeat=contract.steps)


def brute_force_discretized(contract, grid):
    """Probability-weighted payoff summed over every grid path (exactly
    rounded, so the reference adds no error of its own).

    A path's level after t steps is exp(t a + b G_t), G_t the sum of its first
    t grid indices, as ``closed_form_discretized`` defines it. The running
    float sums of the increments round differently, so a path that sits on a
    threshold in real arithmetic (a step down and a step up of the same size
    against a barrier of 1) can land on either side of it.
    """
    probs = grid.probabilities()
    scale = contract.sigma * math.sqrt(contract.dt)
    a = contract.mu * contract.dt - scale * grid.s_min
    b = scale * grid.ds
    t = np.arange(1, contract.steps + 1)
    return math.fsum(
        probs[list(g)].prod()
        * mc_reference.level_payoffs(np.exp(t * a + b * np.cumsum(g))[None, :], contract)[0]
        for g in _grid_paths(contract, grid)
    )


def brute_force_quantized(model):
    """Every grid path walked through the quantized model, one code at a time."""
    contract = model.contract
    probs = model.grid.probabilities()
    strike_at = {b.step: code for b, code in zip(contract.binaries, model.strike_codes)}
    level_at = {b.step: lv for b, lv in zip(contract.binaries, model.binary_levels)}
    terms = []
    for g in _grid_paths(contract, model.grid):
        v, crossed, level = 0, False, None
        for step, gi in enumerate(g, start=1):
            v += int(model.inc_codes[gi])
            crossed = crossed or v < model.barrier_code
            if step in strike_at and v > strike_at[step]:
                level = level_at[step]
                break
        if level is None:
            put = crossed and v < model.put_strike_code and model.put_reachable
            level = model.put_level(v) if put else model.mapping.zero_level
        terms.append(probs[list(g)].prod() * level)
    return model.mapping.to_payoff(math.fsum(terms))


@st.composite
def small_contracts(draw):
    """Contracts whose barrier and strikes fall inside or outside the grid."""
    steps = draw(st.integers(1, 4))
    log_strike = draw(st.floats(-3.0, 3.0))
    binary_steps = draw(
        st.lists(st.integers(1, steps - 1), max_size=2, unique=True).map(sorted)
        if steps > 1 else st.just([])
    )
    binaries = tuple(
        BinaryOption(step, math.exp(draw(st.floats(-3.0, 3.0))), draw(st.floats(0.5, 5.0)))
        for step in binary_steps
    )
    return AutocallableContract(
        notional=draw(st.floats(1.0, 20.0)),
        dt=draw(st.sampled_from([0.5, 1.0])),
        steps=steps,
        mu=draw(st.floats(-0.2, 0.2)),
        sigma=draw(st.floats(0.0, 0.5)),
        rate=draw(st.floats(0.0, 0.05)),
        barrier=math.exp(log_strike - draw(st.floats(0.05, 3.0))),
        strike=math.exp(log_strike),
        binaries=binaries,
    )


@st.composite
def mc_contracts(draw, max_steps=6):
    """Contracts of 1 to ``max_steps`` steps with no binaries, some, or one on
    every step before the last, and sigma = 0 among the volatilities."""
    steps = draw(st.integers(1, max_steps))
    before_last = list(range(1, steps))
    binary_steps = draw(st.one_of(
        st.just([]),
        st.just(before_last),
        st.lists(st.sampled_from(before_last), unique=True).map(sorted),
    )) if before_last else []
    binaries = tuple(
        BinaryOption(step, math.exp(draw(st.floats(-0.3, 0.4))), draw(st.floats(0.5, 5.0)))
        for step in binary_steps
    )
    log_strike = draw(st.floats(-0.2, 0.2))
    return AutocallableContract(
        notional=draw(st.floats(1.0, 20.0)),
        dt=draw(st.sampled_from([0.5, 1.0])),
        steps=steps,
        mu=draw(st.floats(-0.2, 0.2)),
        sigma=draw(st.one_of(st.just(0.0), st.floats(0.05, 0.5))),
        rate=draw(st.floats(0.0, 0.05)),
        barrier=math.exp(log_strike - draw(st.floats(0.05, 0.6))),
        strike=math.exp(log_strike),
        binaries=binaries,
    )


class TestPathPayoff:
    def test_first_binary_pays_and_terminates(self, table2):
        # r_1 = 1.2 > 1.1: pays the first binary discounted one year
        incs = [math.log(1.2), 0.0, 0.0]
        assert payoff_of_path(incs, table2) == pytest.approx(2 * math.exp(-0.04), abs=1e-12)

    def test_no_crossing_below_strike_pays_nothing(self, table2):
        incs = [-0.05, -0.05, -0.05]  # min return 0.86 stays above b=0.7
        assert payoff_of_path(incs, table2) == 0.0

    def test_knocked_in_put_is_discounted(self, table2):
        incs = [math.log(0.6), 0.0, math.log(0.8) - math.log(0.6)]
        want = 18.0 * (0.8 - 1.0) * math.exp(-0.12)
        got = payoff_of_path(incs, table2)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(-3.192913574, abs=1e-8)

    def test_first_in_the_money_binary_wins(self, table2):
        incs = [math.log(1.2), 0.0, 0.0]  # both binaries in the money
        assert payoff_of_path(incs, table2) == table2.discounted_payout(0)
        assert table2.discounted_payout(0) != table2.discounted_payout(1)

    def test_exactly_one_branch_applies(self, table2):
        rng = np.random.default_rng(3)
        seen = set()
        for _ in range(200):
            incs = rng.normal(0.1, 0.3, size=3)
            r = np.exp(np.cumsum(incs))
            fired = [i for i, b in enumerate(table2.binaries) if r[b.step - 1] > b.strike]
            put = (r < table2.barrier).any() and r[-1] < table2.strike
            payoff = payoff_of_path(incs, table2)
            if fired:
                seen.add("binary")
                assert payoff == table2.discounted_payout(fired[0])
            elif put:
                seen.add("put")
                assert payoff < 0.0
            else:
                seen.add("none")
                assert payoff == 0.0
        assert seen == {"binary", "put", "none"}

    def test_rejects_wrong_path_length(self, table2):
        with pytest.raises(ValueError, match="need 3 increments"):
            payoff_of_path([0.0, 0.0], table2)


class TestMonteCarlo:
    def test_same_seed_same_result(self, table2):
        assert mc_price(table2, 5000, seed=9) == mc_price(table2, 5000, seed=9)
        assert mc_price_discretized(table2, GRID2, 5000, 9) == mc_price_discretized(
            table2, GRID2, 5000, 9
        )

    def test_flat_contract_deterministic(self, table2_flat):
        for paths in (2000, 3 * _MC_BLOCK + 1):
            res = mc_price(table2_flat, paths, seed=4)
            assert res.stderr <= 1e-15  # identical payoffs up to summation rounding
            assert res.mean == pytest.approx(2 * math.exp(-0.04), abs=1e-12)

    def test_stderr_scales_with_inverse_root_paths(self, table2):
        small = mc_price(table2, 10**4, seed=11)
        big = mc_price(table2, 10**5, seed=11)
        ratio = small.stderr / big.stderr
        assert ratio == pytest.approx(math.sqrt(10), rel=0.2)

    def test_doubling_paths_shrinks_stderr_by_root_two(self, table2):
        ratios = []
        for seed in range(5):
            half = mc_price(table2, 2 * 10**4, seed=seed)
            full = mc_price(table2, 4 * 10**4, seed=seed + 100)
            ratios.append(half.stderr / full.stderr)
        assert 1.3 <= float(np.mean(ratios)) <= 1.6

    def test_single_qubit_grid_draws_only_extremes(self):
        rng = np.random.default_rng(0)
        draws = _grid_inverse_cdf(GRID1)(rng.random(10_000))
        assert set(np.unique(draws)) == {0, 1}
        shocks = GRID1.points()[draws]
        assert set(np.unique(shocks)) == {-3.0, 3.0}

    def test_grid_draw_frequencies_match_weights(self):
        rng = np.random.default_rng(1)
        draws = _grid_inverse_cdf(GRID2)(rng.random(200_000))
        freq = np.bincount(draws, minlength=4) / 200_000
        assert np.abs(freq - GRID2.probabilities()).max() < 0.005

    def test_discretized_mc_agrees_with_closed_form(self, table2):
        cf = closed_form_discretized(table2, GRID2)
        mc = mc_price_discretized(table2, GRID2, 10**5, seed=0)
        assert abs(mc.mean - cf) <= 3 * mc.stderr


def _assert_matches_scipy(u):
    """``_ndtri`` equals scipy's ``ndtri`` bit for bit on the central range,
    where no logarithm is taken, and within 8 ulp in the tails."""
    want = ndtri(u)
    got = _ndtri(u.copy())
    central = (u > _EXPM2) & (u < 1.0 - _EXPM2)
    np.testing.assert_array_equal(got[central], want[central])
    assert np.all(np.abs(got - want) <= 8 * np.spacing(np.abs(want)))


class TestNdtri:
    """The Cephes port in ``oracles`` against scipy's ``ndtri``."""

    def test_matches_scipy_on_seeded_uniforms(self):
        rng = np.random.default_rng(13)
        for _ in range(10):  # 10**7 uniforms, clipped as mc_price clips them
            _assert_matches_scipy(np.clip(rng.random(10**6), 1e-300, 1.0 - 1e-16))

    def test_matches_scipy_at_branch_edges(self):
        switch = math.exp(-32.0)  # sqrt(-2 log y) >= 8 selects the far-tail rational
        edges = np.array([_EXPM2, 1.0 - _EXPM2, switch, 1.0 - switch])
        around_switch = switch * (1.0 + np.arange(-100, 101) * 1e-14)
        x = np.sqrt(-2.0 * np.log(around_switch))
        assert (x < 8.0).any() and (x >= 8.0).any()
        _assert_matches_scipy(np.concatenate([
            [0.5, 1e-300, 1.0 - 1e-16],  # the clip bounds
            edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
            around_switch, 1.0 - around_switch,
        ]))


def _screened(u, contract, grid):
    """The payoffs of the rows of ``u`` as a Monte Carlo block prices them
    (unscaled, e = 0): screened on bucket bounds, the undecided rows priced
    exactly; and the undecided rows."""
    increments = _increments(contract, grid)
    out = np.empty(len(u))
    pays = [contract.discounted_payout(i) for i in range(len(contract.binaries))]
    with np.errstate(over="ignore"):
        brackets = _brackets([increments], contract)
        work = np.empty((3, len(u)))
        undecided = _screen(u, contract, brackets, out, pays, work)
        _exact(u, undecided, contract, increments, out, *contract.put_factors(0), pays, work)
    return out, undecided


def _crossings(contract, grid):
    """``(t, u)`` for each threshold a path meets after t steps (the barrier
    at every step, a binary's strike at its step, the strike at the last):
    the least uniform u at which a path drawing u on each of its first t
    steps ends above the threshold, found by bisection on the float's bits."""
    thresholds = [(t, contract.barrier) for t in range(1, contract.steps + 1)]
    thresholds += [(b.step, b.strike) for b in contract.binaries]
    thresholds.append((contract.steps, contract.strike))
    found = []
    for t, threshold in thresholds:
        def above(bits, t=t, threshold=threshold):
            u = np.full((1, t), np.int64(bits).view(np.float64))
            with np.errstate(over="ignore"):
                return np.exp(np.cumsum(_reference_increments(u, contract, grid))[-1]) > threshold

        lo, hi = 0, int(np.nextafter(1.0, 0.0).view(np.int64))
        if above(lo) or not above(hi):
            continue
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if above(mid) else (mid, hi)
        found.append((t, np.int64(hi).view(np.float64)))
    return found


def _reference_increments(u, contract, grid):
    if grid is None:
        return mc_reference.normal_increments(contract, u)
    return mc_reference.grid_increments(contract, grid, u)


def _reference_payoffs(u, contract, grid):
    with np.errstate(over="ignore"):
        return mc_reference.payoffs(_reference_increments(u, contract, grid), contract)


def _edge_uniforms(contract, grid, seed):
    """Rows whose every column holds each bucket edge and its two float
    neighbours once, and, for each threshold crossing (:func:`_crossings`),
    rows whose first t columns hold the crossing uniform give or take up to
    4 ulps, the rest drawn from those edges."""
    edges = np.arange(2**_BUCKET_BITS) / 2**_BUCKET_BITS
    values = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    values = values[(values >= 0.0) & (values < 1.0)]
    rng = np.random.default_rng(seed)
    blocks = [rng.permuted(np.tile(values, (contract.steps, 1)), axis=1).T]
    for t, u in _crossings(contract, grid):
        near = (np.int64(u.view(np.int64)) + np.arange(-4, 5)).view(np.float64)
        block = rng.choice(values, (len(near), contract.steps))
        block[:, :t] = near[:, None]
        blocks.append(block)
    u = np.ascontiguousarray(np.concatenate(blocks))
    return u[(u < 1.0).all(axis=1)]


# path counts within one block, at 2**13 +- 1, and across block edges
PATH_COUNTS = [1, 2, 2**13 - 1, 2**13, 2**13 + 1, _MC_BLOCK - 1, _MC_BLOCK, _MC_BLOCK + 1, 10**5]


class TestBlockedMonteCarlo:
    """The blocked oracles against the whole-block ones in ``mc_reference``."""

    @pytest.mark.parametrize("paths", PATH_COUNTS)
    def test_plain_matches_whole_block(self, table2, paths):
        assert mc_price(table2, paths, seed=5) == mc_reference.mc_price(table2, paths, 5)

    @pytest.mark.parametrize("k", [1, 2, 7])
    @pytest.mark.parametrize("paths", PATH_COUNTS)
    def test_discretized_matches_whole_block(self, table2, k, paths):
        grid = GaussianGridSpec(k=k, s_min=3.0)
        assert mc_price_discretized(table2, grid, paths, 5) == mc_reference.mc_price_discretized(
            table2, grid, paths, 5
        )

    @settings(max_examples=25, deadline=None)
    @given(
        contract=mc_contracts(),
        # one to three blocks, the last one full or partial
        paths=st.sampled_from([_MC_BLOCK - 1, _MC_BLOCK, _MC_BLOCK + 1, 2 * _MC_BLOCK + 1]),
        k=st.sampled_from([1, 3, 7]),
        seed=st.integers(0, 2**31),
    )
    # every path autocalls at step 1, so the live set empties before the put
    @example(
        contract=AutocallableContract(
            notional=18.0, dt=1.0, steps=3, mu=0.1274, sigma=0.2382, rate=0.04,
            barrier=0.7, strike=1.0,
            binaries=(BinaryOption(1, 1e-6, 2.0), BinaryOption(2, 1.1, 5.0)),
        ),
        paths=_MC_BLOCK + 1, k=3, seed=0,
    )
    # put payoffs whose tail draws scipy's ndtri and _ndtri round apart by an ulp
    @example(
        contract=AutocallableContract(
            notional=1.0837684601264186, dt=0.5, steps=4, mu=-0.18544621361879232,
            sigma=0.13142577617413864, rate=0.0016456058859668221,
            barrier=0.4613118695392591, strike=0.8359792642992357,
            binaries=(
                BinaryOption(1, 0.8657943979395281, 0.874936783016734),
                BinaryOption(2, 0.8231983257060664, 1.0621394847117716),
                BinaryOption(3, 0.96204814399516, 1.5717823295401723),
            ),
        ),
        paths=_MC_BLOCK, k=1, seed=10444,
    )
    def test_step_wise_matches_whole_block(self, contract, paths, k, seed):
        plain = mc_reference.mc_price(contract, paths, seed)
        assert mc_price(contract, paths, seed) == plain
        grid = GaussianGridSpec(k=k, s_min=3.0)
        disc = mc_reference.mc_price_discretized(contract, grid, paths, seed)
        assert mc_price_discretized(contract, grid, paths, seed) == disc
        # every kind of one call prices on the same draw and one screen per
        # block, each as if alone, also on GRID1's wide union bounds
        assert mc_prices(contract, [None, grid], paths, seed) == [plain, disc]
        assert mc_prices(contract, [None, grid, GRID1], paths, seed) == [
            plain, disc, mc_reference.mc_price_discretized(contract, GRID1, paths, seed)
        ]

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**31))
    @pytest.mark.parametrize(
        "ks", [[None], [None, 7], [None, 1], [None, *range(1, 8)]],
        ids=["mc", "mc-k7", "mc-k1", "mc-k1-to-7"],
    )
    def test_screen_runs_once_per_block(self, table2, ks, seed):
        # three blocks, the last one partial, screen three times whatever
        # kinds the call prices, and each kind prices as if alone
        screens = []

        def counted(*args):
            screens.append(1)
            return _screen(*args)

        grids = [None if k is None else GaussianGridSpec(k=k, s_min=3.0) for k in ks]
        paths = 2 * _MC_BLOCK + 1
        alone = [mc_prices(table2, [grid], paths, seed)[0] for grid in grids]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracles, "_screen", counted)
            assert mc_prices(table2, grids, paths, seed) == alone
        assert len(screens) == 3

    @settings(max_examples=25, deadline=None)
    @given(contract=mc_contracts(), k=st.sampled_from([None, 1, 3, 7]), seed=st.integers(0, 2**31))
    @example(contract=AutocallableContract(
        notional=18.0, dt=1.0, steps=3, mu=0.1274, sigma=0.2382, rate=0.04, barrier=0.7,
        strike=1.0, binaries=(BinaryOption(1, 1.1, 2.0), BinaryOption(2, 1.1, 5.0)),
    ), k=None, seed=0)
    # the flat contract: sigma = 0, so both bounds of every bucket are equal
    @example(contract=AutocallableContract(
        notional=18.0, dt=1.0, steps=3, mu=0.1274, sigma=0.0, rate=0.04, barrier=0.7,
        strike=1.0, binaries=(BinaryOption(1, 1.1, 2.0), BinaryOption(2, 1.1, 5.0)),
    ), k=None, seed=0)
    # a binary at every step but the last
    @example(contract=AutocallableContract(
        notional=18.0, dt=1.0, steps=6, mu=0.05, sigma=0.2, rate=0.04, barrier=0.7, strike=1.0,
        binaries=tuple(BinaryOption(i, 1.2, float(i)) for i in range(1, 6)),
    ), k=None, seed=0)
    def test_screen_matches_reference_at_edges(self, contract, k, seed):
        # bucket edges and threshold crossings are where a screen that
        # misplaces a path would show: every payoff must equal the whole-row
        # reference bit for bit, for either kind of shock
        grid = None if k is None else GaussianGridSpec(k=k, s_min=3.0)
        u = _edge_uniforms(contract, grid, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, undecided = _screened(u, contract, grid)
        want = _reference_payoffs(u, contract, grid)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        assert len(np.unique(undecided)) == len(undecided)

    @pytest.mark.parametrize("mu", [1e308, -1e308])
    @pytest.mark.parametrize("grid", [None, GRID2])
    def test_screen_leaves_every_row_undecided_at_extreme_drift(self, table2, mu, grid):
        contract = dataclasses.replace(table2, mu=mu)
        u = _edge_uniforms(contract, grid, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, undecided = _screened(u, contract, grid)
            mc_prices(contract, [grid], 1000, 0)
        np.testing.assert_array_equal(np.sort(undecided), np.arange(len(u)))
        want = _reference_payoffs(u, contract, grid)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("grid", [None, GRID2])
    def test_screen_with_thresholds_on_the_flat_path(self, table2_flat, grid):
        # at sigma = 0 every path's level after t steps is exp of the summed
        # drifts, and each threshold below sits exactly there (no payoff):
        # for some drifts log and exp round apart by an ulp, so only the
        # margin keeps the screen from paying the binary
        u = np.random.default_rng(0).random((64, table2_flat.steps))
        for mu in np.linspace(0.01, 0.3, 50):
            levels = np.exp(np.cumsum(np.full(3, mu * table2_flat.dt)))
            contract = dataclasses.replace(
                table2_flat, mu=mu, barrier=levels[0], strike=levels[2],
                binaries=(BinaryOption(2, levels[1], 5.0),),
            )
            got, _ = _screened(u, contract, grid)
            np.testing.assert_array_equal(got, np.zeros(len(u)))
            np.testing.assert_array_equal(got, _reference_payoffs(u, contract, grid))

    @pytest.mark.parametrize("grid", [None, GRID2])
    @pytest.mark.parametrize("threshold", ["barrier", "binary"])
    def test_screen_at_a_subnormal_threshold(self, table2, grid, threshold):
        # a level near a subnormal threshold rounds to a multiple of 2**-1074,
        # far coarser than the margin's 2**-30 relative: u = 0.5 gives a
        # one-step log-return 1e-5 above log(2**-1060), a level 0.16 ulp above
        # the threshold, which rounds onto it (not above, not below)
        tiny = 2.0**-1060
        contract = dataclasses.replace(
            table2, steps=2, mu=math.log(tiny) + 1e-5, sigma=0.1,
            barrier=tiny if threshold == "barrier" else 0.7,
            binaries=(BinaryOption(1, tiny, 2.0),) if threshold == "binary" else (),
        )
        u = _edge_uniforms(contract, grid, 0)
        got, _ = _screened(u, contract, grid)
        want = _reference_payoffs(u, contract, grid)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("grid", [None, GaussianGridSpec(k=7, s_min=3.0)])
    def test_screen_decides_most_table2_rows(self, table2, grid):
        # on Table-2 about 95 % of paths autocall or pay nothing, which their
        # buckets decide; a screen that decides nothing would still be exact
        u = np.random.default_rng(3).random((10**5, table2.steps))
        got, undecided = _screened(u, table2, grid)
        assert len(undecided) < 0.1 * len(u)
        want = _reference_payoffs(u, table2, grid)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("size", [0, 1, 7, 8, 9, 4095, 2**15 + 1])
    def test_transforms_do_not_depend_on_array_position(self, size):
        # the live paths are a subset of the block: each uniform must map to
        # the same bits wherever it sits in the array the transform sees
        rng = np.random.default_rng(size)
        u = rng.random(2**16)
        u[::3] **= 40  # far lower tail
        u[1::3] = 1.0 - u[1::3] ** 40  # far upper tail
        np.clip(u, 1e-300, 1.0 - 1e-16, out=u)
        idx = rng.choice(len(u), size, replace=False)
        whole = _ndtri(u.copy())[idx]
        np.testing.assert_array_equal(_ndtri(u[idx].copy()).view(np.int64), whole.view(np.int64))
        inverse_cdf = _grid_inverse_cdf(GaussianGridSpec(k=7, s_min=3.0))
        np.testing.assert_array_equal(inverse_cdf(u[idx].copy()), inverse_cdf(u.copy())[idx])

    def test_pinned_results(self, table2):
        # recorded from the blocked oracles, which reduce 2**15 paths at a time
        plain = mc_price(table2, 10**5, seed=11)
        assert (plain.mean, plain.stderr) == (1.6910364554729835, 0.007002686648763635)
        disc = mc_price_discretized(table2, GRID2, 10**5, 0)
        assert (disc.mean, disc.stderr) == (1.9992619930715603, 0.006115536948151182)

    @pytest.mark.parametrize("paths", [_MC_BLOCK + 1, 10**5, 10**6])
    def test_merged_moments_match_whole_vector(self, table2, paths):
        grid = GaussianGridSpec(k=7, s_min=3.0)
        for seed in range(3):
            for got, values in [
                (mc_price(table2, paths, seed), mc_reference.mc_payoffs(table2, paths, seed)),
                (mc_price_discretized(table2, grid, paths, seed),
                 mc_reference.mc_disc_payoffs(table2, grid, paths, seed)),
            ]:
                assert got.mean == pytest.approx(np.mean(values), rel=1e-15, abs=0.0)
                want = np.std(values, ddof=1) / math.sqrt(paths)
                assert got.stderr == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_bucketed_lookup_matches_searchsorted_at_edges(self, k):
        grid = GaussianGridSpec(k=k, s_min=3.0)
        cum = mc_reference.grid_cdf(grid)
        edges = np.arange(2**_BUCKET_BITS) / 2**_BUCKET_BITS
        u = np.concatenate([
            [0.0, np.nextafter(1.0, 0.0)],
            cum, np.nextafter(cum, 0.0), np.nextafter(cum, 2.0),
            edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0),
        ])
        u = u[(u >= 0.0) & (u < 1.0)]
        got = _grid_inverse_cdf(grid)(u)
        np.testing.assert_array_equal(got, np.searchsorted(cum, u, side="right"))

    @pytest.mark.parametrize("oracle", ["mc", "mc-disc", "both"])
    def test_memory_stays_bounded_at_a_million_paths(self, table2, oracle):
        grid = GaussianGridSpec(k=7, s_min=3.0)
        price = {
            "mc": lambda paths: mc_price(table2, paths, seed=1),
            "mc-disc": lambda paths: mc_price_discretized(table2, grid, paths, 1),
            "both": lambda paths: mc_prices(table2, [None, grid], paths, 1),
        }[oracle]
        for paths in (10**6, 4 * 10**6):
            tracemalloc.start()
            try:
                price(paths)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # one block's working set: peaks of 2.6-3.4 MiB at either path
            # count, 3.0 for both kinds, whose shared screen keeps one more buffer
            assert peak < 4 * 2**20


class TestClosedForms:
    def test_single_step_toy_equals_hand_enumeration(self):
        toy = AutocallableContract(
            notional=10.0, dt=1.0, steps=1, mu=0.0, sigma=0.3, rate=0.05,
            barrier=0.9, strike=1.0,
        )
        p = GRID1.probabilities()
        pts = GRID1.points()
        want = sum(
            p[g] * payoff_of_path([0.3 * pts[g]], toy) for g in range(2)
        )
        assert closed_form_discretized(toy, GRID1) == pytest.approx(want, abs=1e-14)

    def test_flat_contract_all_oracles_agree(self, table2_flat):
        expected = 2 * math.exp(-0.04)
        fmt = fit_format(table2_flat, GRID1, 2)
        assert closed_form_discretized(table2_flat, GRID1) == pytest.approx(expected, abs=1e-12)
        assert closed_form_quantized(table2_flat, GRID1, fmt) == pytest.approx(expected, abs=1e-12)
        assert mc_price(table2_flat, 100, 0).mean == pytest.approx(expected, abs=1e-12)
        assert mc_price_discretized(table2_flat, GRID1, 100, 0).mean == pytest.approx(
            expected, abs=1e-12
        )

    def test_unreachable_conditions_price_exactly_zero(self):
        dead = AutocallableContract(
            notional=18.0, dt=1.0, steps=3, mu=0.1274, sigma=0.2382, rate=0.04,
            barrier=1e-6, strike=1.0,
            binaries=(BinaryOption(1, 50.0, 2.0), BinaryOption(2, 50.0, 5.0)),
        )
        fmt = fit_format(dead, GRID2, 3)
        assert closed_form_quantized(dead, GRID2, fmt) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("k", [2, 7])
    def test_quantized_tracks_discretized_at_high_precision(self, table2, k):
        grid = GaussianGridSpec(k=k, s_min=3.0)
        cf = closed_form_discretized(table2, grid)
        fmt = fit_format(table2, grid, 12)
        assert closed_form_quantized(table2, grid, fmt) == pytest.approx(cf, rel=2e-4)

    @settings(max_examples=60, deadline=None)
    @given(
        contract=small_contracts(),
        k=st.integers(1, 3),
        p=st.integers(0, 8),
        s_min=st.floats(1.0, 3.0),
    )
    # Log-returns of +-0.5 add exactly: after (-, +) and (+, -) a path sits
    # exactly at the binary's strike (the tie must not fire), and the two
    # share a value but only the first has crossed the barrier, so merging
    # states must keep the crossed flag apart.
    @example(
        contract=AutocallableContract(
            notional=10.0, dt=1.0, steps=4, mu=0.0, sigma=0.5, rate=0.03,
            barrier=0.7, strike=1.2, binaries=(BinaryOption(2, 1.0, 2.0),),
        ),
        k=1, p=2, s_min=1.0,
    )
    # With sigma = 0 all 4096 grid paths are one path: the references then add
    # thousands of equal weighted terms, and a plain running sum drifts past
    # the 1e-12 bound (by 1.9e-12 for cf-disc here, 1.2e-12 for cf-quant below).
    @example(
        contract=AutocallableContract(
            notional=6.0, dt=1.0, steps=4, mu=0.0, sigma=0.0, rate=0.0,
            barrier=2.0, strike=13.8046,
        ),
        k=3, p=2, s_min=2.0,
    )
    @example(
        contract=AutocallableContract(
            notional=6.0, dt=1.0, steps=4, mu=0.0, sigma=0.0, rate=0.0,
            barrier=2.0, strike=13.8046, binaries=(BinaryOption(1, 0.5, 1.0),),
        ),
        k=3, p=2, s_min=1.0,
    )
    def test_closed_forms_match_brute_force(self, contract, k, p, s_min):
        grid = GaussianGridSpec(k=k, s_min=s_min)
        want = brute_force_discretized(contract, grid)
        assert closed_form_discretized(contract, grid) == pytest.approx(want, abs=1e-12)
        fmt = fit_format(contract, grid, p)
        try:
            model = QuantizedModel(contract, grid, fmt)
        except MappingError:
            with pytest.raises(MappingError):
                closed_form_quantized(contract, grid, fmt)
            return
        want = brute_force_quantized(model)
        assert closed_form_quantized(contract, grid, fmt) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("binaries", [True, False], ids=["table2", "no-binaries"])
    def test_memory_stays_bounded_at_k8(self, table2, binaries):
        contract = table2 if binaries else dataclasses.replace(table2, binaries=())
        grid = GaussianGridSpec(k=8, s_min=3.0)
        fmt = fit_format(contract, grid, 12)
        for price in (
            lambda: closed_form_discretized(contract, grid),
            lambda: closed_form_quantized(contract, grid, fmt),
        ):
            tracemalloc.start()
            try:
                price()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # peaks of 2.9 (cf-disc) and 5.7 MiB (cf-quant), 4.0 and 6.1 without binaries
            assert peak < 24 * 2**20

    def test_capacity_error_from_public_entry(self, table2, fake_memory):
        # at k = 6 cf-disc keeps up to 78 states in one step, cf-quant 211
        grid = GaussianGridSpec(k=6, s_min=3.0)
        fmt = fit_format(table2, grid, 12)
        prices = (
            lambda: closed_form_discretized(table2, grid),
            lambda: closed_form_quantized(table2, grid, fmt),
        )
        want = [price() for price in prices]
        fake_memory(2**20)  # 13107 states
        assert [price() for price in prices] == want
        fake_memory(4096)  # 51 states
        for price in prices:
            with pytest.raises(CapacityError, match=f"states in one step, {BYTES_PER_STATE} bytes"):
                price()

    def test_overlapping_blocks_fit_once_merged(self, table2, fake_memory):
        # at k = 10 without binaries each step keeps at most 5252 states, but
        # the successor blocks overlap, so the merged blocks count up to 7597
        # (cf-quant) and 6139 (cf-disc) states before the step's last merge
        contract = dataclasses.replace(table2, binaries=())
        grid = GaussianGridSpec(k=10, s_min=3.0)
        fmt = fit_format(contract, grid, 12)
        prices = (
            lambda: closed_form_discretized(contract, grid),
            lambda: closed_form_quantized(contract, grid, fmt),
        )
        want = [price() for price in prices]
        fake_memory(BYTES_PER_STATE * 6000)
        assert [price() for price in prices] == want

    def test_twenty_step_table2_at_k2(self, table2):
        # (2^2)^20 = 2^40 grid paths, a few hundred kept states per step
        contract = dataclasses.replace(table2, steps=20)
        cf = closed_form_discretized(contract, GRID2)
        mc = mc_price_discretized(contract, GRID2, 10**5, seed=0)
        assert abs(mc.mean - cf) <= 4 * mc.stderr
        quant = closed_form_quantized(contract, GRID2, fit_format(contract, GRID2, 12))
        assert quant == pytest.approx(cf, abs=1e-4)

    def test_twenty_step_lattice_fits_in_64_kib(self, table2, fake_memory):
        # cf-disc keys its states on the grid-index sum: at most
        # 2 * (t * (2^k - 1) + 1) <= 602 states per step at k = 4, under the
        # 819 that fit; keyed on float log-returns it kept 10386
        contract = dataclasses.replace(table2, steps=20)
        grid = GaussianGridSpec(k=4, s_min=3.0)
        want = closed_form_discretized(contract, grid)
        fake_memory(2**16)
        assert closed_form_discretized(contract, grid) == want

    def test_paths_validated(self, table2):
        with pytest.raises(ValueError):
            mc_price(table2, 0, seed=1)
        with pytest.raises(ValueError):
            mc_price_discretized(table2, GRID1, 0, seed=1)
