import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qautocall.circuit import QuantizedModel, fit_format
from qautocall.contracts import AutocallableContract, BinaryOption
from qautocall.errors import CapacityError, MappingError
from qautocall.loading import GaussianGridSpec
from qautocall.oracles import (
    _check_enumeration,
    closed_form_discretized,
    closed_form_quantized,
    draw_grid_indices,
    mc_price,
    mc_price_discretized,
    path_outcome,
    payoff_of_path,
)

GRID1 = GaussianGridSpec(k=1, s_min=3.0)
GRID2 = GaussianGridSpec(k=2, s_min=3.0)


def _grid_paths(contract, grid):
    return itertools.product(range(2**grid.k), repeat=contract.steps)


def brute_force_discretized(contract, grid):
    """Probability-weighted payoff summed over every grid path (exactly
    rounded, so the reference adds no error of its own)."""
    probs = grid.probabilities()
    scale = contract.sigma * math.sqrt(contract.dt)
    incs = contract.mu * contract.dt + scale * grid.points()
    return math.fsum(
        probs[list(g)].prod() * payoff_of_path(incs[list(g)], contract)
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
        outcome = path_outcome(incs, table2)
        assert outcome.binary_index == 0

    def test_exactly_one_branch_applies(self, table2):
        rng = np.random.default_rng(3)
        for _ in range(200):
            incs = rng.normal(0.1, 0.3, size=3)
            out = path_outcome(incs, table2)
            is_binary = out.binary_index is not None
            is_put = (
                not is_binary
                and out.barrier_crossed
                and out.terminal_return < table2.strike
            )
            if is_binary:
                assert out.payoff == table2.discounted_payout(out.binary_index)
            elif is_put:
                assert out.payoff < 0.0
            else:
                assert out.payoff == 0.0


class TestMonteCarlo:
    def test_same_seed_same_result(self, table2):
        assert mc_price(table2, 5000, seed=9) == mc_price(table2, 5000, seed=9)
        assert mc_price_discretized(table2, GRID2, 5000, 9) == mc_price_discretized(
            table2, GRID2, 5000, 9
        )

    def test_flat_contract_deterministic(self, table2_flat):
        res = mc_price(table2_flat, 2000, seed=4)
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
        draws = draw_grid_indices(rng, GRID1, 10_000)
        assert set(np.unique(draws)) == {0, 1}
        shocks = GRID1.points()[draws]
        assert set(np.unique(shocks)) == {-3.0, 3.0}

    def test_grid_draw_frequencies_match_weights(self):
        rng = np.random.default_rng(1)
        draws = draw_grid_indices(rng, GRID2, 200_000)
        freq = np.bincount(draws, minlength=4) / 200_000
        assert np.abs(freq - GRID2.probabilities()).max() < 0.005

    def test_discretized_mc_agrees_with_closed_form(self, table2):
        cf = closed_form_discretized(table2, GRID2)
        mc = mc_price_discretized(table2, GRID2, 10**5, seed=0)
        assert abs(mc.mean - cf) <= 3 * mc.stderr


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
            assert peak < 24 * 2**20  # the path enumeration peaked at 28 MiB here

    def test_enumeration_guard_rails(self):
        big = GaussianGridSpec(k=8, s_min=3.0)
        with pytest.raises(CapacityError, match="Monte Carlo"):
            _check_enumeration(big, steps=4)
        with pytest.warns(RuntimeWarning, match="slow"):
            _check_enumeration(GaussianGridSpec(k=5, s_min=3.0), steps=5)
        # within budget: no warning, no error
        assert _check_enumeration(GRID2, steps=3) == 64

    def test_capacity_error_from_public_entry(self, table2):
        big_contract = AutocallableContract(
            notional=18.0, dt=1.0, steps=4, mu=0.1274, sigma=0.2382, rate=0.04,
            barrier=0.7, strike=1.0,
            binaries=(BinaryOption(1, 1.1, 2.0), BinaryOption(2, 1.1, 5.0)),
        )
        with pytest.raises(CapacityError):
            closed_form_discretized(big_contract, GaussianGridSpec(k=8, s_min=3.0))

    def test_paths_validated(self, table2):
        with pytest.raises(ValueError):
            mc_price(table2, 0, seed=1)
        with pytest.raises(ValueError):
            mc_price_discretized(table2, GRID1, 0, seed=1)
