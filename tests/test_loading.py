import math

import numpy as np
import pytest

from dense_state import to_dense
from qautocall.loading import (
    ExponentialPrepSpec,
    GaussianGridSpec,
    exp_angles,
    exp_weight_sum,
    gaussian_amplitudes,
    integration_amplitude,
    partial_exponential_prep_ops,
    rounds_for_share,
)
from qautocall.simulator import (
    Classical,
    Condition,
    QubitRegister,
    Ry,
    allocate,
    probability,
)


def _register_probs(state, width):
    return np.abs(to_dense(state)[: 2**width]) ** 2


def _prepared(width, a, x0, x1):
    """Fresh ``width``-qubit state with the partial exponential loaded."""
    spec = ExponentialPrepSpec(width, a, x0, x1)
    return allocate(width).apply_all(partial_exponential_prep_ops(QubitRegister(0, width), spec))


class TestGaussianGrid:
    def test_step_spans_grid_inclusively(self):
        spec = GaussianGridSpec(k=3, s_min=3.0)
        assert spec.ds == pytest.approx(6.0 / 7.0)
        pts = spec.points()
        assert pts[0] == pytest.approx(-3.0)
        assert pts[-1] == pytest.approx(3.0)

    def test_single_qubit_grid_is_uniform(self):
        amps = gaussian_amplitudes(GaussianGridSpec(k=1, s_min=3.0))
        assert np.allclose(amps, [1 / math.sqrt(2)] * 2)

    def test_two_qubit_grid_weights_inner_points(self):
        amps = gaussian_amplitudes(GaussianGridSpec(k=2, s_min=3.0))
        # symmetric, and the +-1 sigma points dominate the +-3 sigma points
        assert amps[0] == pytest.approx(amps[3])
        assert amps[1] == pytest.approx(amps[2])
        assert amps[1] > amps[0]

    def test_matches_direct_pdf_normalization(self):
        spec = GaussianGridSpec(k=4, s_min=2.5)
        x = spec.points()
        pdf = np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        assert np.abs(gaussian_amplitudes(spec) ** 2 - pdf / pdf.sum()).max() < 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_squared_entries_sum_to_one(self, k):
        amps = gaussian_amplitudes(GaussianGridSpec(k=k, s_min=3.0))
        assert abs(np.sum(amps**2) - 1.0) < 1e-12

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            GaussianGridSpec(k=0, s_min=3.0)
        with pytest.raises(ValueError):
            GaussianGridSpec(k=2, s_min=0.0)


class TestExpAngles:
    def test_rate_zero_gives_uniform_rotations(self):
        assert np.allclose(exp_angles(0.0, 5), math.pi / 2)

    def test_log4_frozen_value(self):
        # 2*arctan(e^{ln4 / 2}) = 2*arctan(2)
        assert exp_angles(math.log(4.0), 1)[0] == pytest.approx(2.2142974355881810, abs=1e-12)

    def test_strongly_negative_rate_collapses_to_zero(self):
        assert exp_angles(-50.0, 3).max() < 1e-10


class TestFullExponential:
    def test_rate_zero_uniform(self):
        state = _prepared(2, 0.0, 0, 3)
        assert np.allclose(np.abs(to_dense(state)) ** 2, 0.25)

    def test_log2_frozen_distribution(self):
        state = _prepared(2, math.log(2.0), 0, 3)
        want = np.array([1, 2, 4, 8]) / 15.0
        assert np.abs(np.abs(to_dense(state)) ** 2 - want).max() < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("a", [-1.0, -0.1, 0.1, 1.0])
    def test_exhaustive_against_weights(self, n, a):
        state = _prepared(n, a, 0, 2**n - 1)
        w = np.exp(a * np.arange(2**n))
        assert np.abs(np.abs(to_dense(state)) ** 2 - w / w.sum()).max() < 1e-12


def _expected_partial(width, a, x0, x1):
    w = np.zeros(2**width)
    r = np.arange(x0, x1 + 1)
    w[x0 : x1 + 1] = np.exp(a * r)
    return w / w.sum()


class TestPartialExponential:
    def test_full_interval_degenerates_to_full_prep(self):
        state = _prepared(3, 0.4, 0, 7)
        ref = allocate(3).apply_all(Ry(i, float(t)) for i, t in enumerate(exp_angles(0.4, 3)))
        assert np.abs(to_dense(state) - to_dense(ref)).max() < 1e-12

    def test_log2_interval_frozen(self):
        state = _prepared(2, math.log(2.0), 1, 2)
        want = np.array([0.0, 1 / 3, 2 / 3, 0.0])
        assert np.abs(np.abs(to_dense(state)) ** 2 - want).max() < 1e-12

    def test_non_power_of_two_interval(self):
        probs = _register_probs(_prepared(3, 0.7, 1, 5), 3)
        assert np.abs(probs - _expected_partial(3, 0.7, 1, 5)).max() < 1e-10
        assert probs[0] < 1e-12 and probs[6] < 1e-12 and probs[7] < 1e-12

    @pytest.mark.parametrize("a", [-0.8, 0.0, 0.5])
    @pytest.mark.parametrize("x0,x1", [(2, 5), (0, 3), (4, 7)])
    def test_power_of_two_strategies_agree(self, a, x0, x1):
        # power-of-two spans are loaded directly, without amplification
        probs = _register_probs(_prepared(3, a, x0, x1), 3)
        assert np.abs(probs - _expected_partial(3, a, x0, x1)).max() < 1e-12

    def test_rate_zero_uniform_over_interval(self):
        probs = _register_probs(_prepared(3, 0.0, 2, 6), 3)
        assert np.abs(probs - _expected_partial(3, 0.0, 2, 6)).max() < 1e-10

    def test_low_share_interval_uses_extra_rounds(self):
        # interval pinned at the light end of a steep exponential: single-round
        # amplification is infeasible even on the best power-of-two window
        spec = ExponentialPrepSpec(4, 1.2, 0, 2)
        state = allocate(4)
        ops = partial_exponential_prep_ops(QubitRegister(0, 4), spec)
        state.apply_all(ops)
        assert np.abs(_register_probs(state, 4) - _expected_partial(4, 1.2, 0, 2)).max() < 1e-10

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ExponentialPrepSpec(3, 0.5, 4, 2)

    def test_rounds_for_share_thresholds(self):
        assert rounds_for_share(1.0) == 1
        assert rounds_for_share(0.25) == 1
        assert rounds_for_share(0.24) == 2
        assert rounds_for_share(0.05) >= 3
        with pytest.raises(ValueError):
            rounds_for_share(0.0)


def _compare_op(n):
    """target ^= (r <= x), inclusive, over (r, x, target) on qubits 0 .. 2n."""
    vals = np.arange(2 ** (2 * n + 1), dtype=np.int64)
    r = vals & (2**n - 1)
    x = (vals >> n) & (2**n - 1)
    return Classical(range(2 * n + 1), vals ^ ((r <= x).astype(np.int64) << (2 * n)))


class TestIntegrationComparator:
    def _amplitudes_for_all_x(self, n, prep_ops):
        """One simulation: x in uniform superposition, read conditional amplitudes."""
        state = allocate(2 * n + 1)
        state.apply_all(prep_ops)
        for j in range(n, 2 * n):
            state.apply(Ry(j, math.pi / 2))
        state.apply(_compare_op(n))
        out = []
        for x in range(2**n):
            terms = tuple((n + j, (x >> j) & 1) for j in range(n)) + ((2 * n, 1),)
            out.append(math.sqrt(probability(state, Condition(terms)) * 2**n))
        return out

    @pytest.mark.parametrize("a", [-0.3, 0.6])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_full_prep_matches_closed_form(self, n, a):
        spec = ExponentialPrepSpec(n, a, 0, 2**n - 1)
        ops = partial_exponential_prep_ops(QubitRegister(0, n), spec)
        amps = self._amplitudes_for_all_x(n, ops)
        for x in range(2**n):
            want = integration_amplitude(a, x, 0, 2**n - 1)
            assert amps[x] == pytest.approx(want, abs=1e-10)
        assert amps[2**n - 1] == pytest.approx(1.0, abs=1e-10)

    def test_partial_prep_matches_piecewise_form(self):
        n, a, x0, x1 = 3, 0.45, 1, 5  # non-power-of-two span
        ops = partial_exponential_prep_ops(QubitRegister(0, n), ExponentialPrepSpec(n, a, x0, x1))
        amps = self._amplitudes_for_all_x(n, ops)
        for x in range(2**n):
            assert amps[x] == pytest.approx(integration_amplitude(a, x, x0, x1), abs=1e-10)
        assert amps[0] == pytest.approx(0.0, abs=1e-10)
        assert amps[7] == pytest.approx(1.0, abs=1e-10)

    def test_amplitude_nondecreasing_in_x(self):
        n, a, x0, x1 = 3, -0.6, 2, 6
        ops = partial_exponential_prep_ops(QubitRegister(0, n), ExponentialPrepSpec(n, a, x0, x1))
        amps = self._amplitudes_for_all_x(n, ops)
        assert all(amps[x + 1] >= amps[x] - 1e-12 for x in range(2**n - 1))

    def test_closed_form_frozen_example(self):
        # full prep, n=2, a=ln2, x=1: sqrt((1+2)/15)
        got = integration_amplitude(math.log(2.0), 1, 0, 3)
        assert got == pytest.approx(math.sqrt(3.0 / 15.0), abs=1e-12)
        assert got == pytest.approx(0.4472135954999579, abs=1e-12)

    def test_exp_weight_sum_closed_form(self):
        assert exp_weight_sum(0.0, 2, 5) == 4.0
        direct = sum(math.exp(0.3 * r) for r in range(2, 6))
        assert exp_weight_sum(0.3, 2, 5) == pytest.approx(direct, rel=1e-14)
        assert exp_weight_sum(0.3, 5, 2) == 0.0
