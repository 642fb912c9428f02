import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_state import from_dense, to_dense
from qautocall.errors import CapacityError, PreconditionError, StructuralError
from qautocall.simulator import (
    Classical,
    Condition,
    PhaseOracle,
    QubitRegister,
    Ry,
    X,
    allocate,
    injection_ops,
    invert,
    max_qubits,
    probability,
    sample,
)


def _loaded(width, amps):
    return allocate(width).apply_all(injection_ops(QubitRegister(0, width), amps))


def test_allocate_ground_state():
    assert np.allclose(to_dense(allocate(1)), [1, 0])
    assert np.allclose(to_dense(allocate(2)), [1, 0, 0, 0])


def test_allocate_capacity_error_names_limit(fake_memory):
    # state plus one state-sized temporary: 32 bytes per amplitude
    fake_memory(32 * 2**30)
    assert max_qubits() == 30
    with pytest.raises(CapacityError, match="30"):
        allocate(31)
    fake_memory(32 * 2**13 - 4096)
    assert max_qubits() == 12
    with pytest.raises(CapacityError, match="12"):
        allocate(13)
    assert allocate(12).num_qubits == 12


def test_ry_pi_flips():
    state = allocate(1).apply(Ry(0, math.pi))
    assert abs(to_dense(state)[1]) == pytest.approx(1.0, abs=1e-15)


def test_ry_half_pi_uniform():
    state = allocate(1).apply(Ry(0, math.pi / 2))
    assert np.allclose(np.abs(to_dense(state)) ** 2, [0.5, 0.5])


def test_toffoli_truth_table():
    # |110> (qubits 0,1 set) -> |111>
    state = allocate(3).apply(X(0)).apply(X(1))
    state.apply(X(2, controls=((0, 1), (1, 1))))
    assert abs(to_dense(state)[0b111]) == pytest.approx(1.0)
    # control not satisfied: nothing happens
    state = allocate(3).apply(X(0))
    state.apply(X(2, controls=((0, 1), (1, 1))))
    assert abs(to_dense(state)[0b001]) == pytest.approx(1.0)


def test_controlled_ry_acts_only_when_controls_match():
    angle = 2 * math.asin(math.sqrt(0.25))
    state = allocate(2).apply(Ry(1, angle, controls=((0, 1),)))
    assert probability(state, Condition(((1, 1),))) == pytest.approx(0.0, abs=1e-15)
    state = allocate(2).apply(X(0)).apply(Ry(1, angle, controls=((0, 1),)))
    assert probability(state, Condition(((1, 1),))) == pytest.approx(0.25, abs=1e-12)


def test_rotation_lists_no_exact_zeros():
    # a zero-angle rotation pairs |01> with |11> but leaves |11> exactly 0
    state = allocate(2).apply(Ry(0, math.pi / 2)).apply(Ry(1, 0.0))
    assert state.indices.tolist() == [0, 1]


def test_control_target_overlap_rejected():
    with pytest.raises(StructuralError):
        X(0, controls=((0, 1),))
    with pytest.raises(StructuralError):
        Ry(2, 0.3, controls=((2, 0),))


def test_classical_identity_noop():
    reg = QubitRegister(0, 2)
    state = allocate(3).apply(Ry(0, 0.7)).apply(Ry(2, 1.1))
    before = to_dense(state)
    state.apply(Classical(reg.qubits, range(4)))
    assert np.array_equal(to_dense(state), before)


def test_classical_increment_register_local():
    reg = QubitRegister(0, 2)
    state = allocate(3)
    state.apply(Classical(reg.qubits, [(v + 1) % 4 for v in range(4)]))
    assert abs(to_dense(state)[0b001]) == pytest.approx(1.0)


def test_classical_bit_reversal_involution():
    reg = QubitRegister(0, 2)
    rev = [0b00, 0b10, 0b01, 0b11]
    state = allocate(2).apply(Ry(0, 0.4)).apply(Ry(1, 1.3, controls=((0, 1),)))
    before = to_dense(state)
    state.apply(Classical(reg.qubits, rev))
    state.apply(Classical(reg.qubits, rev))
    assert np.allclose(to_dense(state), before, atol=1e-15)


def test_classical_rejects_non_bijection():
    with pytest.raises(StructuralError, match="bijection"):
        Classical((0, 1), [0, 0, 1, 2])


@given(perm=st.permutations(range(8)))
@settings(max_examples=40, deadline=None)
def test_classical_preserves_probability_multiset(perm):
    rng = np.random.default_rng(7)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = from_dense(3, amps / np.linalg.norm(amps))
    before = np.sort(np.abs(to_dense(state)) ** 2)
    state.apply(Classical((0, 1, 2), list(perm)))
    assert np.allclose(np.sort(np.abs(to_dense(state)) ** 2), before, atol=1e-15)


def test_inject_trivial_vectors():
    state = allocate(2).apply_all(injection_ops(QubitRegister(0, 1), [1.0, 0.0]))
    assert abs(to_dense(state)[0]) == pytest.approx(1.0)
    state = _loaded(1, [1 / math.sqrt(2)] * 2)
    assert np.allclose(np.abs(to_dense(state)) ** 2, [0.5, 0.5])


def test_inject_matches_normalized_pdf_samples():
    # oracle: normalize the pdf directly and compare measured probabilities
    points = np.array([-3.0, -1.0, 1.0, 3.0])
    pdf = np.exp(-0.5 * points**2) / math.sqrt(2 * math.pi)
    target = pdf / pdf.sum()
    state = _loaded(2, np.sqrt(target))
    assert np.abs(np.abs(to_dense(state)) ** 2 - target).max() < 1e-12


def test_inject_requires_normalized_amplitudes():
    with pytest.raises(PreconditionError, match="normalized"):
        injection_ops(QubitRegister(0, 2), [0.5, 0.5, 0.5, 0.6])


@pytest.mark.parametrize("amps", [[1.0, 0.0, 0.0], [0.6, -0.8]])
def test_inject_rejects_wrong_length_and_negative_amplitudes(amps):
    with pytest.raises(StructuralError):
        injection_ops(QubitRegister(0, 1), amps)


@given(
    raw=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=8, max_size=8).filter(
        lambda v: sum(v) > 0.1
    )
)
@settings(max_examples=40, deadline=None)
def test_inject_reproduces_arbitrary_nonnegative_vectors(raw):
    amps = np.sqrt(np.asarray(raw) / np.sum(raw))
    state = _loaded(3, amps)
    assert np.abs(np.abs(to_dense(state)) ** 2 - amps**2).max() < 1e-12


def test_invert_single_rotation():
    ops = invert([Ry(0, 0.8)])
    assert ops == [Ry(0, -0.8)]


def test_invert_reverses_order():
    a, b = Ry(0, 0.3), X(1, controls=((0, 1),))
    assert invert([a, b]) == [b, Ry(0, -0.3)]


def _random_circuit(num_qubits, rng, length=25):
    ops = []
    ops.extend(injection_ops(QubitRegister(0, 2), np.sqrt([0.1, 0.2, 0.3, 0.4])))
    for _ in range(length):
        kind = rng.integers(4)
        target = int(rng.integers(num_qubits))
        others = [q for q in range(num_qubits) if q != target]
        n_controls = int(rng.integers(0, 3))
        controls = tuple(
            (int(q), int(rng.integers(2)))
            for q in rng.choice(others, size=n_controls, replace=False)
        )
        if kind == 0:
            ops.append(Ry(target, float(rng.uniform(-math.pi, math.pi)), controls))
        elif kind == 1:
            ops.append(X(target, controls))
        elif kind == 2:
            qubits = tuple(int(q) for q in rng.choice(num_qubits, size=2, replace=False))
            ops.append(Classical(qubits, rng.permutation(4)))
        else:
            qubits = tuple(int(q) for q in rng.choice(num_qubits, size=2, replace=False))
            marked = rng.integers(2, size=4).astype(bool)
            ops.append(PhaseOracle(qubits, marked, float(rng.uniform(-math.pi, math.pi))))
    return ops


def test_invert_round_trip_random_circuits():
    rng = np.random.default_rng(11)
    for _ in range(5):
        ops = _random_circuit(4, rng)
        state = allocate(4)
        state.apply_all(ops)
        state.apply_all(invert(ops))
        target = np.zeros(16, dtype=complex)
        target[0] = 1.0
        assert np.abs(to_dense(state) - target).max() < 1e-10


def test_norm_preserved_within_bound():
    rng = np.random.default_rng(5)
    ops = _random_circuit(4, rng, length=60)
    state = allocate(4)
    state.apply_all(ops)
    assert abs(state.norm_sq() - 1.0) <= len(ops) * 1e-12


def _bit(i, q):
    return (i >> q) & 1


def _value(i, qubits):
    return sum(_bit(i, q) << j for j, q in enumerate(qubits))


def _reference_apply(op, amps):
    """Apply ``op`` one basis state at a time, straight from its definition."""
    out = amps.copy()
    for i in range(len(amps)):
        if isinstance(op, (Ry, X)):
            if _bit(i, op.target) or any(_bit(i, q) != b for q, b in op.controls):
                continue
            j = i | (1 << op.target)
            if isinstance(op, X):
                out[i], out[j] = amps[j], amps[i]
            else:
                c, s = math.cos(op.angle / 2), math.sin(op.angle / 2)
                out[i], out[j] = c * amps[i] - s * amps[j], s * amps[i] + c * amps[j]
        elif isinstance(op, PhaseOracle):
            if op.marked[_value(i, op.qubits)]:
                out[i] = amps[i] * complex(math.cos(op.phase), math.sin(op.phase))
        else:
            w = int(op.table[_value(i, op.qubits)])
            j = i
            for k, q in enumerate(op.qubits):
                j = (j & ~(1 << q)) | (((w >> k) & 1) << q)
            out[j] = amps[i]
    return out


_MARKED = np.random.default_rng(3).integers(2, size=16).astype(bool)


@pytest.mark.parametrize(
    "op",
    [
        Ry(1, -1.3),
        Ry(2, 0.7, controls=((4, 1), (0, 0))),
        X(0),
        X(3, controls=((0, 1), (4, 0), (1, 1))),
        PhaseOracle((3, 0, 2), _MARKED[:8], 0.9),
        PhaseOracle((2, 4, 1, 0), _MARKED, math.pi),
        PhaseOracle((4, 0, 3, 1, 2), np.tile(_MARKED, 2), -0.4),
        Classical((3, 0, 2), np.random.default_rng(4).permutation(8), name="perm8"),
        Classical((2, 4, 1, 0), np.random.default_rng(5).permutation(16), name="perm16"),
    ],
    ids=repr,
)
def test_kernels_match_per_basis_state_reference(op):
    rng = np.random.default_rng(17)
    amps = rng.normal(size=32) + 1j * rng.normal(size=32)
    amps /= np.linalg.norm(amps)
    state = from_dense(5, amps).apply(op)
    want = _reference_apply(op, amps)
    np.testing.assert_allclose(to_dense(state), want, rtol=0, atol=1e-14)
    cond = Condition(((3, 1), (0, 0), (2, 1)))
    mass = sum(abs(want[i]) ** 2 for i in range(32) if all(_bit(i, q) == b for q, b in cond.terms))
    assert probability(state, cond) == pytest.approx(mass, abs=1e-14)


def test_random_circuits_match_per_basis_state_reference():
    rng = np.random.default_rng(23)
    for _ in range(5):
        ops = _random_circuit(5, rng, length=40)
        want = to_dense(allocate(5))
        for op in ops:
            want = _reference_apply(op, want)
        state = allocate(5).apply_all(ops)
        np.testing.assert_allclose(to_dense(state), want, rtol=0, atol=1e-12)
        # the stored entries stay sorted and unique, and no exact zero is kept
        assert (np.diff(state.indices) > 0).all()
        assert (state.values != 0).all()


def test_probability_basics():
    state = allocate(2)
    assert probability(state, Condition(((0, 1),))) == 0.0
    state.apply(Ry(0, math.pi / 2))
    assert probability(state, Condition(((0, 1),))) == pytest.approx(0.5, abs=1e-12)
    assert probability(state, Condition()) == pytest.approx(1.0, abs=1e-12)


def test_condition_rejects_duplicates():
    with pytest.raises(StructuralError):
        Condition(((0, 1), (0, 0)))


def test_sample_determinism_and_edges():
    state = allocate(1).apply(Ry(0, math.pi / 2))
    cond = Condition(((0, 1),))
    assert sample(state, cond, 10**5, seed=42) == sample(state, cond, 10**5, seed=42)
    count = sample(state, cond, 10**5, seed=42)
    # within 5 sigma of the mean
    assert abs(count - 5e4) < 5 * math.sqrt(1e5 * 0.25)

    zero = allocate(1)
    assert sample(zero, cond, 1000, seed=1) == 0
    one = allocate(1).apply(X(0))
    assert sample(one, cond, 100, seed=1) == 100
    with pytest.raises(ValueError):
        sample(zero, cond, 0, seed=1)


def test_phase_oracle_marks_values():
    state = allocate(2).apply(Ry(0, math.pi / 2)).apply(Ry(1, math.pi / 2))
    state.apply(PhaseOracle((0, 1), [False, False, False, True], math.pi))
    assert to_dense(state)[3].real == pytest.approx(-0.5, abs=1e-12)
    assert to_dense(state)[0].real == pytest.approx(0.5, abs=1e-12)


def test_register_helpers():
    reg = QubitRegister(3, 4)
    assert reg.qubits == (3, 4, 5, 6)
    assert reg.qubit(2) == 5
    with pytest.raises(StructuralError):
        reg.qubit(4)
    with pytest.raises(StructuralError):
        QubitRegister(-1, 2)
