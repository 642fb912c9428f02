import math

import numpy as np
import pytest

from dense_state import to_dense
from qautocall.errors import CapacityError, NumericalError, StructuralError
from qautocall.loading import (
    BYTES_PER_POINT,
    GaussianGridSpec,
    amplification_phase,
    exp_angles,
    exp_weight_sum,
    gaussian_amplitudes,
    integration_amplitude,
    partial_exponential_prep_ops,
)
from qautocall.simulator import (
    Add,
    Condition,
    PhaseOracle,
    QubitRegister,
    Ry,
    allocate,
    probability,
)


def _register_probs(state, width):
    return np.abs(to_dense(state)[: 2**width]) ** 2


def _prepared(width, a, x1):
    """Fresh ``width``-qubit state with the exponential on [0, x1] loaded."""
    return allocate(width).apply_all(partial_exponential_prep_ops(QubitRegister(0, width), a, x1))


class TestGaussianGrid:
    def test_step_spans_grid_inclusively(self):
        spec = GaussianGridSpec(k=3, s_min=3.0)
        assert spec.ds == pytest.approx(6.0 / 7.0)
        pts = spec.points()
        assert pts[0] == pytest.approx(-3.0)
        assert pts[-1] == pytest.approx(3.0)

    def test_points_beyond_physical_memory_raise_capacity_error(self, fake_memory):
        fake_memory(BYTES_PER_POINT * 2**8)
        assert len(GaussianGridSpec(k=8, s_min=3.0).points()) == 2**8
        with pytest.raises(CapacityError, match=r"2\*\*9 = 512 points.*; reduce k$"):
            GaussianGridSpec(k=9, s_min=3.0).points()

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
        state = _prepared(2, 0.0, 3)
        assert np.allclose(np.abs(to_dense(state)) ** 2, 0.25)

    def test_log2_frozen_distribution(self):
        state = _prepared(2, math.log(2.0), 3)
        want = np.array([1, 2, 4, 8]) / 15.0
        assert np.abs(np.abs(to_dense(state)) ** 2 - want).max() < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("a", [-1.0, -0.1, 0.1, 1.0])
    def test_exhaustive_against_weights(self, n, a):
        state = _prepared(n, a, 2**n - 1)
        w = np.exp(a * np.arange(2**n))
        assert np.abs(np.abs(to_dense(state)) ** 2 - w / w.sum()).max() < 1e-12


def _expected_partial(width, a, x1):
    w = np.zeros(2**width)
    w[: x1 + 1] = np.exp(a * np.arange(x1 + 1))
    return w / w.sum()


class TestPartialExponential:
    def test_full_interval_degenerates_to_full_prep(self):
        state = _prepared(3, 0.4, 7)
        ref = allocate(3).apply_all(Ry(i, float(t)) for i, t in enumerate(exp_angles(0.4, 3)))
        assert np.abs(to_dense(state) - to_dense(ref)).max() < 1e-12

    def test_log2_interval_frozen(self):
        state = _prepared(2, -math.log(2.0), 2)
        want = np.array([4 / 7, 2 / 7, 1 / 7, 0.0])
        assert np.abs(np.abs(to_dense(state)) ** 2 - want).max() < 1e-12

    def test_non_power_of_two_interval(self):
        probs = _register_probs(_prepared(3, -0.7, 5), 3)
        assert np.abs(probs - _expected_partial(3, -0.7, 5)).max() < 1e-10
        assert probs[6] < 1e-12 and probs[7] < 1e-12

    def test_increasing_rate_on_non_power_of_two_span_refused(self):
        # at a = 0.7, [0, 5] holds 24 % of the whole-register exponential,
        # less than the 1/4 one amplification round needs
        with pytest.raises(StructuralError, match="decreasing rate"):
            partial_exponential_prep_ops(QubitRegister(0, 3), 0.7, 5)

    @pytest.mark.parametrize("a", [-0.8, 0.0, 0.5])
    @pytest.mark.parametrize("x1", [0, 1, 3, 7], ids=lambda x1: f"0-{x1}")
    def test_power_of_two_strategies_agree(self, a, x1):
        # power-of-two spans are loaded directly, without amplification:
        # x1 = 0 by no op at all, any other by one RY per qubit
        width = max(1, x1.bit_length())
        ops = partial_exponential_prep_ops(QubitRegister(0, width), a, x1)
        assert len(ops) == x1.bit_length() and all(isinstance(op, Ry) for op in ops)
        probs = _register_probs(_prepared(width, a, x1), width)
        assert np.abs(probs - _expected_partial(width, a, x1)).max() < 1e-12

    def test_twenty_step_register_loads_in_one_round(self):
        # the register the 20-step Table-2 contract gets at p = 1, loaded
        # reflected at the rate -0.5: [0, 18] holds 99.99 % of the
        # whole-register exponential, and one round loads it exactly
        ops = partial_exponential_prep_ops(QubitRegister(0, 5), -0.5, 18)
        assert sum(isinstance(op, PhaseOracle) for op in ops) == 2
        state = allocate(5).apply_all(ops)
        assert np.abs(_register_probs(state, 5) - _expected_partial(5, -0.5, 18)).max() < 1e-14

    def test_empty_interval_rejected(self):
        with pytest.raises(StructuralError, match=r"\[0, -1\]"):
            partial_exponential_prep_ops(QubitRegister(0, 1), 0.5, -1)

    @pytest.mark.parametrize("width,x1", [(3, 3), (1, 2), (2, 0)])
    def test_register_width_must_fit_the_interval(self, width, x1):
        with pytest.raises(StructuralError, match="width max"):
            partial_exponential_prep_ops(QubitRegister(0, width), 0.5, x1)

    @pytest.mark.parametrize("share,phase", [(0.25, math.pi), (1.0, math.pi / 3)])
    def test_one_round_exact_from_a_quarter(self, share, phase):
        # |phase| = 2 asin(1 / (2 sqrt(share))): at share 1/4 it is pi, the
        # plain Grover reflection
        assert abs(amplification_phase(share)) == pytest.approx(phase, abs=1e-12)

    @pytest.mark.parametrize("share", [0.25, 0.5, 0.9, 1.0])
    def test_both_signs_of_the_phase_leave_no_bad_amplitude(self, share):
        # one round in the two-dimensional good/bad plane: S_good(phi), then
        # A S_0(phi) A^-1 = 1 + (e^{i phi} - 1) |a0><a0|
        s, c = math.sqrt(share), math.sqrt(1.0 - share)
        a0 = np.array([s, c], dtype=complex)
        for phase in (amplification_phase(share), -amplification_phase(share)):
            rot = complex(math.cos(phase), math.sin(phase))
            vec = a0 * np.array([rot, 1.0])
            vec = vec + (rot - 1.0) * np.vdot(a0, vec) * a0
            assert abs(vec[1]) <= 1e-15, phase

    @pytest.mark.parametrize("share", [0.0, 0.24])
    def test_share_below_a_quarter_rejected(self, share):
        with pytest.raises(NumericalError, match="one round"):
            amplification_phase(share)


def _compare_op(n):
    """target ^= (r <= x), inclusive, over (r, x, target) on qubits 0 .. 2n."""
    return Add(
        (2 * n,), range(2 * n), lambda v: ((v & (2**n - 1)) <= (v >> n)).astype(np.int64)
    )


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
        ops = partial_exponential_prep_ops(QubitRegister(0, n), a, 2**n - 1)
        amps = self._amplitudes_for_all_x(n, ops)
        for x in range(2**n):
            want = integration_amplitude(a, x, 2**n - 1)
            assert amps[x] == pytest.approx(want, abs=1e-10)
        assert amps[2**n - 1] == pytest.approx(1.0, abs=1e-10)

    def test_partial_prep_matches_piecewise_form(self):
        n, a, x1 = 3, -0.45, 5  # non-power-of-two span
        ops = partial_exponential_prep_ops(QubitRegister(0, n), a, x1)
        amps = self._amplitudes_for_all_x(n, ops)
        for x in range(2**n):
            assert amps[x] == pytest.approx(integration_amplitude(a, x, x1), abs=1e-10)
        assert amps[0] == pytest.approx(math.sqrt(_expected_partial(n, a, x1)[0]), abs=1e-10)
        assert amps[6] == pytest.approx(1.0, abs=1e-10)
        assert amps[7] == pytest.approx(1.0, abs=1e-10)

    def test_amplitude_nondecreasing_in_x(self):
        n, a, x1 = 3, -0.6, 6
        ops = partial_exponential_prep_ops(QubitRegister(0, n), a, x1)
        amps = self._amplitudes_for_all_x(n, ops)
        assert all(amps[x + 1] >= amps[x] - 1e-12 for x in range(2**n - 1))

    def test_closed_form_frozen_example(self):
        # full prep, n=2, a=ln2, x=1: sqrt((1+2)/15)
        got = integration_amplitude(math.log(2.0), 1, 3)
        assert got == pytest.approx(math.sqrt(3.0 / 15.0), abs=1e-12)
        assert got == pytest.approx(0.4472135954999579, abs=1e-12)
        assert integration_amplitude(math.log(2.0), -1, 3) == 0.0

    def test_exp_weight_sum_closed_form(self):
        for a in (-0.3, 0.3):
            direct = sum(math.exp(a * r) for r in range(6))
            assert exp_weight_sum(a, 5) == pytest.approx(direct, rel=1e-14)
