import math

import pytest

from qautocall.errors import NumericalError
from qautocall.resources import (
    QSP_BASELINE_T_DEPTH,
    ResourceParams,
    d_adder,
    d_amplitude_loading,
    d_arith,
    d_c_comparator,
    d_comparator,
    d_cry,
    d_gaussian,
    d_mcx,
    d_ry,
    d_total,
    solve_truncation,
)


def residual(sol, params):
    """2dT e^{-w^2/2} - eps / R(w) at the solution: at most 0 where the bound holds."""
    lhs = 2.0 * params.assets * params.steps * math.exp(-sol.w**2 / 2.0)
    return lhs - params.epsilon / sol.scale


def params(**overrides):
    base = dict(steps=20, assets=3, epsilon=2e-3, accumulator_width=8)
    base.update(overrides)
    return ResourceParams(**base)


class TestBlockDepths:
    def test_frozen_table_values(self):
        assert d_comparator(8) == 45.0
        assert d_mcx(2) == 5.0
        assert d_adder(8) == 33.0
        # hand-evaluated: 45 + (14*log3(1.5) + 5) - 3
        assert d_c_comparator(8) == pytest.approx(52.16698, abs=1e-4)

    def test_rotation_depths(self):
        assert d_ry(1 / 8) == 9.0
        assert d_ry(1e-3) == pytest.approx(3 * math.log2(1000), abs=1e-12)
        assert d_cry(1e-3) == pytest.approx(6 * math.log2(2000), abs=1e-12)

    def test_mcx_clamps_small_widths(self):
        assert d_mcx(1) == d_mcx(2) == 5.0

    @pytest.mark.parametrize("fn", [d_mcx, d_comparator, d_c_comparator, d_adder])
    def test_nondecreasing_in_width(self, fn):
        values = [fn(n) for n in range(2, 65)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(v > 0 for v in values)


class TestTruncationSolver:
    def test_self_consistency_residual(self):
        p = params()
        sol = solve_truncation(p)
        assert abs(residual(sol, p)) <= 1e-12
        assert sol.w > 0
        assert sol.scale > 0

    def test_minimality(self):
        p = params()
        sol = solve_truncation(p)
        w_less = sol.w - 1e-6
        lhs = 2 * p.assets * p.steps * math.exp(-(w_less**2) / 2)
        r_t_min = math.exp(p.mu * p.dt * p.steps - w_less * p.sigma_max * math.sqrt(p.dt) * p.steps)
        scale = p.f_max + (p.strike - r_t_min) * p.notional
        assert lhs > p.epsilon / scale  # the inequality breaks just below w

    def test_larger_error_budget_lowers_truncation(self):
        tight = solve_truncation(params(epsilon=1e-3))
        loose = solve_truncation(params(epsilon=4e-3))
        assert loose.w < tight.w

    def test_seed_formula_is_close(self):
        p = params()
        sol = solve_truncation(p)
        seed = math.sqrt(2 * math.log(2 * p.assets * p.steps * sol.scale / p.epsilon))
        assert sol.w == pytest.approx(seed, abs=1e-9)

    def test_non_convergence_reports(self):
        # enormous drift and no volatility keep the rescaling factor negative at every w
        with pytest.raises(NumericalError, match="not positive at any w"):
            solve_truncation(params(sigma_max=0.0, mu=50.0))

    @pytest.mark.parametrize("mu", [0.3, 50.0])
    def test_starts_where_the_rescaling_factor_turns_positive(self, mu):
        # R(1) < 0: the bound holds down to the smallest float w with R(w) > 0
        p = params(sigma_max=0.2, mu=mu)
        sol = solve_truncation(p)
        assert sol.w > 1.0
        assert sol.scale > 0.0
        assert residual(sol, p) <= 0.0
        below = math.nextafter(sol.w, 0.0)
        r_t_min = math.exp(p.mu * p.dt * p.steps - below * p.sigma_max * math.sqrt(p.dt) * p.steps)
        assert p.f_max + (p.strike - r_t_min) * p.notional <= 0.0

    def test_bound_met_at_zero_truncation(self):
        # R = 18 (1 - e^{-2e-8}) = 3.6e-7, so 2dT R < eps: the bound holds at
        # every w >= 0 and the smallest such w is 0
        p = params(sigma_max=0.0, mu=-1e-9, f_max=0.0)
        sol = solve_truncation(p)
        assert sol.w == 0.0
        assert sol.iterations == 2
        assert sol.scale == pytest.approx(3.6e-7, rel=1e-6)
        assert residual(sol, p) <= 0.0


    def test_bound_met_at_the_positive_floor(self):
        # R(0) < 0 < R(1) < eps/(2dT): the iterate falls below the root of R,
        # so the answer is the smallest float w with R(w) > 0
        p = params(sigma_max=0.1, mu=0.0999999972, f_max=0.0)
        sol = solve_truncation(p)
        assert 0.0 < sol.w < 1.0
        assert sol.scale > 0.0
        assert residual(sol, p) <= 0.0
        below = math.nextafter(sol.w, 0.0)
        r_t_min = math.exp(p.mu * p.dt * p.steps - below * p.sigma_max * math.sqrt(p.dt) * p.steps)
        assert p.f_max + (p.strike - r_t_min) * p.notional <= 0.0


class TestDepthComposition:
    def test_gaussian_single_layer(self):
        p = params(layers=0, gaussian_qubits=2)
        want = 3 * math.log2(2 * 20 * 3 / 2e-3)
        assert d_gaussian(p) == pytest.approx(want, abs=1e-12)

    def test_doubling_assets_adds_constant(self):
        for layers in (0, 2):
            lo = d_gaussian(params(assets=3, layers=layers))
            hi = d_gaussian(params(assets=6, layers=layers))
            assert hi - lo == pytest.approx(3 * (layers + 1), abs=1e-9)

    def test_arith_single_step_no_binaries(self):
        p = params(steps=1, binaries=0, accumulator_width=6)
        want = d_adder(6) + d_comparator(6) + 2 * d_cry(2e-3) + d_mcx(2)
        assert d_arith(p) == pytest.approx(want, abs=1e-12)

    def test_arith_increases_with_steps(self):
        values = [d_arith(params(steps=t)) for t in range(1, 12)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_amplitude_loading_depths(self):
        p = params(accumulator_width=8)
        d_al, d_exp = d_amplitude_loading(p)
        assert d_al == pytest.approx(52.16698, abs=1e-4)
        assert d_exp > d_al  # contains two controlled comparators


class TestTotalDepth:
    def test_identity_reconstructs_exactly(self):
        report = d_total(params())
        n = report.n_iqae
        rebuilt = (1 + 2 * n) * (
            max(report.d_gaussian + report.d_arith, report.d_exp)
            + report.d_amplitude_loading
        )
        assert report.d_total == rebuilt

    def test_toy_epsilon_half(self):
        report = d_total(params(epsilon=0.5))
        assert report.n_iqae == 2
        assert report.d_total == 5 * (
            max(report.d_gaussian + report.d_arith, report.d_exp)
            + report.d_amplitude_loading
        )

    def test_n_iqae_is_ceiling(self):
        assert d_total(params(epsilon=2e-3)).n_iqae == 500
        assert d_total(params(epsilon=3e-3)).n_iqae == 334

    def test_headline_band_and_ratio(self):
        for m in range(4, 33):
            report = d_total(params(accumulator_width=m))
            assert 20.0 <= report.d_amplitude_loading <= 80.0
            assert report.qsp_ratio >= 25.0
        assert QSP_BASELINE_T_DEPTH == 2.1e3

    # (w, R, d_arith, d_exp, d_amplitude_loading, d_total) at steps 20, assets 3,
    # epsilon 2e-3 and the ResourceParams defaults
    PINNED = {
        4: (5.314271157360787, 22.615581729606482, 1681.5214686719414,
            207.75639486594463, 46.16698344999959, 1777081.7832395157),
        8: (5.314271157360787, 22.615581729606482, 1933.5214686719414,
            236.22138357493958, 52.16698344999959, 2035339.7832395157),
        16: (5.314271157360787, 22.615581729606482, 2185.5214686719414,
             265.3122406832122, 58.16698344999959, 2293597.783239515),
    }

    @pytest.mark.parametrize("m", sorted(PINNED))
    def test_report_fields_pinned(self, m):
        report = d_total(params(accumulator_width=m))
        got = (report.w, report.scale, report.d_arith, report.d_exp,
               report.d_amplitude_loading, report.d_total)
        assert got == pytest.approx(self.PINNED[m], rel=1e-12, abs=0)


class TestParamsValidation:
    def test_ranges(self):
        with pytest.raises(ValueError):
            params(epsilon=0.0)
        with pytest.raises(ValueError):
            params(steps=0)
