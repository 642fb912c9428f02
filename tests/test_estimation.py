import math

import numpy as np
import pytest

from qautocall import estimation
from qautocall.circuit import build_pricing_circuit, fit_format
from qautocall.estimation import (
    EstimateResult,
    IqaeConfig,
    build_grover,
    exact_amplitude,
    iqae_estimate,
    sample,
)
from qautocall.loading import GaussianGridSpec
from qautocall.simulator import PhaseOracle, QubitRegister, Ry, allocate, probability


def bernoulli_circuit(a):
    """One-qubit circuit with good-state probability exactly ``a``."""
    return [Ry(0, (2.0 * math.asin(math.sqrt(a)),))], 1, QubitRegister(0, 1)


def table2_circuit(contract, p, k):
    grid = GaussianGridSpec(k=k, s_min=3.0)
    return build_pricing_circuit(contract, grid, fit_format(contract, grid, p))


def test_sample_determinism_and_edges():
    assert sample(0.5, 10**5, seed=42) == sample(0.5, 10**5, seed=42)
    count = sample(0.5, 10**5, seed=42)
    # within 5 sigma of the mean
    assert abs(count - 5e4) < 5 * math.sqrt(1e5 * 0.25)

    assert sample(0.0, 1000, seed=1) == 0
    assert sample(1.0, 100, seed=1) == 100
    with pytest.raises(ValueError):
        sample(0.0, 0, seed=1)


class TestGrover:
    @pytest.mark.parametrize("a", [0.1, 0.25, 0.5, 0.9])
    def test_rotation_identity(self, a):
        ops, nq, good = bernoulli_circuit(a)
        grover = build_grover(ops, nq, good)
        state = allocate(nq)
        state.apply_all(ops)
        theta = math.asin(math.sqrt(a))
        for j in range(1, 9):
            state.apply_all(grover)
            want = math.sin((2 * j + 1) * theta) ** 2
            assert probability(state, good, 1) == pytest.approx(want, abs=1e-10)

    def test_zero_amplitude_is_fixed_point(self):
        ops, nq, good = bernoulli_circuit(0.0)
        grover = build_grover(ops, nq, good)
        state = allocate(nq)
        state.apply_all(ops)
        for _ in range(5):
            state.apply_all(grover)
        assert probability(state, good, 1) == pytest.approx(0.0, abs=1e-12)

    def test_unit_amplitude_is_fixed_point(self):
        ops, nq, good = bernoulli_circuit(1.0)
        grover = build_grover(ops, nq, good)
        state = allocate(nq)
        state.apply_all(ops)
        for _ in range(5):
            state.apply_all(grover)
        assert probability(state, good, 1) == pytest.approx(1.0, abs=1e-12)

    def test_quarter_amplitude_reaches_certainty_in_one_round(self):
        # sin^2(3 * arcsin(sqrt(0.25))) = sin^2(pi/2) = 1
        ops, nq, good = bernoulli_circuit(0.25)
        state = allocate(nq)
        state.apply_all(ops)
        state.apply_all(build_grover(ops, nq, good))
        assert probability(state, good, 1) == pytest.approx(1.0, abs=1e-12)

    def test_good_qubits_form_one_register(self):
        # S_good marks one value of the good register: every qubit reads 1
        ops = [Ry(1, (0.3,)), Ry(2, (0.7,))]
        s_good = build_grover(ops, 4, QubitRegister(1, 2))[0]
        assert isinstance(s_good, PhaseOracle)
        assert s_good == PhaseOracle(QubitRegister(1, 2), 3, math.pi)

    def test_works_on_wider_registers(self):
        # same Bernoulli amplitude embedded in a 3-qubit circuit with bystanders
        ops = [Ry(1, (2 * math.asin(math.sqrt(0.3)),)), Ry(0, (1.1,)),
               Ry(2, (0.0, 0.4), QubitRegister(0, 1))]
        good = QubitRegister(1, 1)
        grover = build_grover(ops, 3, good)
        state = allocate(3)
        state.apply_all(ops)
        theta = math.asin(math.sqrt(0.3))
        for j in range(1, 5):
            state.apply_all(grover)
            assert probability(state, good, 1) == pytest.approx(
                math.sin((2 * j + 1) * theta) ** 2, abs=1e-10
            )


class TestIqae:
    def test_deterministic_for_fixed_seed(self):
        config = IqaeConfig(epsilon=0.01, alpha=0.05, seed=7)
        assert iqae_estimate(0.3, config) == iqae_estimate(0.3, config)

    def test_contract_on_small_sample(self):
        hits = 0
        for seed in range(60):
            res = iqae_estimate(0.3, IqaeConfig(epsilon=0.02, alpha=0.05, seed=seed))
            assert res.converged
            assert res.ci[1] - res.ci[0] <= 2 * 0.02 + 1e-12
            assert res.ci[0] - 1e-12 <= res.a_hat <= res.ci[1] + 1e-12
            hits += res.ci[0] - 1e-12 <= 0.3 <= res.ci[1] + 1e-12
        assert hits / 60 >= 0.9

    def test_zero_amplitude(self):
        res = iqae_estimate(0.0, IqaeConfig(epsilon=0.01, alpha=0.05, seed=3))
        assert res.ci[0] == 0.0
        assert res.a_hat <= 0.01

    def test_amplitude_rounded_past_the_unit_interval_is_clamped(self):
        # 1 + 2**-51 has a square root above 1, and -1e-17 none at all
        config = IqaeConfig(epsilon=0.01, alpha=0.05, seed=5)
        for a in (1.0 + 2**-52, 1.0 + 2**-51):
            assert iqae_estimate(a, config) == iqae_estimate(1.0, config)
        assert iqae_estimate(-1e-17, config) == iqae_estimate(0.0, config)

    def test_calls_roughly_double_per_halving(self):
        # two-octave geometric mean of the growth factor; single octaves
        # fluctuate with the power-ladder granularity
        means = {}
        for eps in (0.04, 0.01):
            calls = []
            for seed in range(25):
                res = iqae_estimate(0.3, IqaeConfig(epsilon=eps, alpha=0.05, seed=seed))
                calls.append(res.oracle_calls)
            means[eps] = np.mean(calls)
        per_halving = math.sqrt(means[0.01] / means[0.04])
        assert 1.5 <= per_halving <= 3.0

    def test_non_convergence_flagged(self, monkeypatch):
        monkeypatch.setattr(estimation, "_MAX_ROUNDS", 1)
        res = iqae_estimate(0.3, IqaeConfig(epsilon=0.001, alpha=0.05, seed=0))
        assert not res.converged
        assert res.rounds == 1

    def test_covers_exact_amplitude_on_pricing_circuit(self, table2, monkeypatch):
        # IQAE measures Q^k A|0> with probability sin^2((2k+1) theta); the
        # gate-level Grover iterate must agree, which shows that invert(A) is
        # exact and that both reflections are right
        powers, probs = [], []  # each round's Grover power and the p it samples
        find_next_k = estimation._find_next_k

        def recording_find_next_k(*args):
            result = find_next_k(*args)
            powers.append(result[0])
            return result

        def recording_sample(prob, *args):
            probs.append(prob)
            return sample(prob, *args)

        monkeypatch.setattr(estimation, "_find_next_k", recording_find_next_k)
        monkeypatch.setattr(estimation, "sample", recording_sample)
        for p, k in ((2, 1), (2, 2)):
            pc = table2_circuit(table2, p, k)
            nq = pc.layout.num_qubits
            a = exact_amplitude(pc.ops, nq, pc.good)
            theta = math.asin(math.sqrt(a))
            powers.clear()
            probs.clear()
            res = iqae_estimate(a, IqaeConfig(epsilon=0.05, alpha=0.05, seed=1))
            assert res.converged
            assert res.ci[0] <= a <= res.ci[1]
            assert len(powers) == len(probs) == res.rounds and max(powers) > 1

            grover = build_grover(pc.ops, nq, pc.good)
            state = allocate(nq).apply_all(pc.ops)
            simulated = [probability(state, pc.good, 0b11)]
            for j in range(1, max(8, *powers) + 1):
                simulated.append(probability(state.apply_all(grover), pc.good, 0b11))
                want = math.sin((2 * j + 1) * theta) ** 2
                assert simulated[j] == pytest.approx(want, abs=1e-12)
            for power, prob in zip(powers, probs):
                assert prob == pytest.approx(simulated[power], abs=1e-12)

    @pytest.mark.parametrize("epsilon", [1e-2, 1e-3])
    def test_empirical_coverage_on_pricing_circuit(self, table2, epsilon):
        # at least 1 - alpha of the intervals cover the exact amplitude
        pc = table2_circuit(table2, 2, 1)
        a = exact_amplitude(pc.ops, pc.layout.num_qubits, pc.good)
        covered = 0
        for seed in range(1000):
            res = iqae_estimate(a, IqaeConfig(epsilon=epsilon, alpha=0.05, seed=seed))
            assert res.converged
            covered += res.ci[0] <= a <= res.ci[1]
        assert covered / 1000 >= 1 - 0.05

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IqaeConfig(epsilon=0.7, alpha=0.05)
        with pytest.raises(ValueError):
            IqaeConfig(epsilon=0.01, alpha=1.5)
        with pytest.raises(ValueError):
            IqaeConfig(epsilon=0.01, alpha=0.05, shots_per_round=0)


class TestExactAmplitude:
    def test_bernoulli(self):
        ops, nq, good = bernoulli_circuit(0.25)
        assert exact_amplitude(ops, nq, good) == pytest.approx(0.25, abs=1e-12)

    def test_every_qubit_of_good_must_read_one(self):
        # the Bernoulli qubit and a bystander at 1/2: both read 1 with probability 1/8
        ops, _, _ = bernoulli_circuit(0.25)
        ops = [*ops, Ry(1, (math.pi / 2,))]
        assert exact_amplitude(ops, 2, QubitRegister(0, 2)) == pytest.approx(0.125, abs=1e-12)
        assert exact_amplitude(ops, 2, QubitRegister(1, 1)) == pytest.approx(0.5, abs=1e-12)

    def test_matches_quantized_oracle_on_pricing_circuit(self, table2):
        from qautocall.circuit import post_process
        from qautocall.oracles import closed_form_quantized

        grid = GaussianGridSpec(k=1, s_min=3.0)
        fmt = fit_format(table2, grid, 2)
        pc = build_pricing_circuit(table2, grid, fmt)
        a = exact_amplitude(pc.ops, pc.layout.num_qubits, pc.good)
        assert post_process(a, pc.mapping) == pytest.approx(
            closed_form_quantized(table2, grid, fmt), abs=1e-9
        )
