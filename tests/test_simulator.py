import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_state import from_dense, to_dense
from qautocall import simulator
from qautocall.circuit import build_pricing_circuit, fit_format
from qautocall.errors import PreconditionError, StructuralError
from qautocall.loading import GaussianGridSpec
from qautocall.simulator import (
    MAX_QUBITS,
    Add,
    Condition,
    PhaseOracle,
    QubitRegister,
    Ry,
    X,
    allocate,
    injection_ops,
    invert,
    probability,
)


def _loaded(width, amps):
    return allocate(width).apply_all(injection_ops(QubitRegister(0, width), amps))


def test_allocate_ground_state():
    assert np.allclose(to_dense(allocate(1)), [1, 0])
    assert np.allclose(to_dense(allocate(2)), [1, 0, 0, 0])


def test_allocate_stores_one_entry_up_to_int64_limit():
    state = allocate(MAX_QUBITS)
    assert state.num_qubits == 62
    assert state.indices.tolist() == [0] and state.values.tolist() == [1]
    for n in (0, MAX_QUBITS + 1):
        with pytest.raises(StructuralError, match="62"):
            allocate(n)


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
    state.apply(Add(reg.qubits, (2,), lambda v: 0 * v, name="add_0"))
    assert np.array_equal(to_dense(state), before)


def test_classical_increment_register_local():
    reg = QubitRegister(0, 2)
    state = allocate(3)
    state.apply(Add(reg.qubits, (), lambda _: 1, name="add_1"))
    assert abs(to_dense(state)[0b001]) == pytest.approx(1.0)


def test_add_on_one_qubit_is_an_involution():
    # a one-qubit target XORs a flag, so adding 1 or -1 undoes itself
    flag = Add((2,), (0, 1), lambda v: (v == 3).astype(np.int64), name="and")
    state = allocate(3).apply(Ry(0, 0.4)).apply(Ry(1, 1.3, controls=((0, 1),)))
    before = to_dense(state)
    state.apply(flag)
    assert probability(state, Condition(((2, 1),))) == pytest.approx(abs(before[3]) ** 2)
    state.apply(flag)
    assert np.array_equal(to_dense(state), before)
    state.apply(flag).apply_all(flag.inverse_ops())
    assert np.array_equal(to_dense(state), before)


def test_add_rejects_overlap_and_empty_target():
    for target, source in [((), (0, 1)), ((0, 1), (1, 2)), ((2, 2), ()), ((0,), (3, 3))]:
        with pytest.raises(StructuralError, match="non-empty target disjoint"):
            Add(target, source, lambda v: v)


@given(codes=st.lists(st.integers(-50, 50), min_size=2, max_size=2))
@settings(max_examples=40, deadline=None)
def test_classical_preserves_probability_multiset(codes):
    rng = np.random.default_rng(7)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = from_dense(3, amps / np.linalg.norm(amps))
    before = np.sort(np.abs(to_dense(state)) ** 2)
    codes = np.array(codes, dtype=np.int64)
    state.apply(Add((0, 2), (1,), lambda v: codes[v]))
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
            qubits = [int(q) for q in rng.permutation(num_qubits)]
            width = int(rng.integers(1, 3))
            source = qubits[width : width + int(rng.integers(0, 3))]
            codes = rng.integers(-5, 6, size=2 ** len(source))
            ops.append(Add(qubits[:width], source, lambda v, codes=codes: codes[v], "codes"))
        else:
            qubits = tuple(int(q) for q in rng.choice(num_qubits, size=2, replace=False))
            marked = np.flatnonzero(rng.integers(2, size=4))
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
    assert abs(np.vdot(state.values, state.values).real - 1.0) <= len(ops) * 1e-12


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
            if _value(i, op.qubits) in op.marked:
                out[i] = amps[i] * complex(math.cos(op.phase), math.sin(op.phase))
        else:  # Add: target += f(value on source) mod 2**len(target)
            add = np.ravel(op.f(np.array([_value(i, op.source)], dtype=np.int64)))[0]
            w = (_value(i, op.target) + int(add)) % 2 ** len(op.target)
            j = i
            for k, q in enumerate(op.target):
                j = (j & ~(1 << q)) | (((w >> k) & 1) << q)
            out[j] = amps[i]
    return out


_MARKED = np.flatnonzero(np.random.default_rng(3).integers(2, size=16))
_CODES = np.random.default_rng(4).integers(-20, 20, size=4)


@pytest.mark.parametrize(
    "op",
    [
        Ry(1, -1.3),
        Ry(2, 0.7, controls=((4, 1), (0, 0))),
        X(0),
        X(3, controls=((0, 1), (4, 0), (1, 1))),
        PhaseOracle((3, 0, 2), _MARKED[_MARKED < 8], 0.9),
        PhaseOracle((2, 4, 1, 0), _MARKED, math.pi),
        PhaseOracle((4, 0, 3, 1, 2), np.concatenate([_MARKED, _MARKED + 16]), -0.4),
        Add((4, 2, 0), (1, 3), lambda v: _CODES[v], name="codes"),
        Add((3,), (4, 0, 1), lambda v: (v % 3 == 1).astype(np.int64), name="flag"),
        Add((1, 4, 0, 3), (), lambda _: -5, name="neg5"),
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
        state = allocate(5)
        for op in ops:
            want = _reference_apply(op, want)
            state.apply(op)
            # the stored indices stay distinct, in any order, and no exact zero is kept
            assert len(np.unique(state.indices)) == len(state.indices)
            assert (state.values != 0).all()
        np.testing.assert_allclose(to_dense(state), want, rtol=0, atol=1e-12)


def _sort_by_index(state):
    order = np.argsort(state.indices)
    state.indices, state.values = state.indices[order], state.values[order]


def _assert_order_free(num_qubits, ops, cond):
    """Run ``ops`` one by one on a state as the kernels leave it and on one
    re-sorted by index after every op: sorted, both hold the same bits, and
    ``probability`` returns the same float for both."""
    state, resorted = allocate(num_qubits), allocate(num_qubits)
    for op in ops:
        state.apply(op)
        _sort_by_index(resorted.apply(op))
        order = np.argsort(state.indices)
        assert state.indices[order].tobytes() == resorted.indices.tobytes(), op
        assert state.values[order].tobytes() == resorted.values.tobytes(), op
        assert probability(state, cond) == probability(resorted, cond), op


def test_random_circuits_independent_of_entry_order():
    rng = np.random.default_rng(23)
    cond = Condition(((3, 1), (0, 0)))
    for _ in range(5):
        _assert_order_free(5, _random_circuit(5, rng, length=40), cond)


@pytest.mark.parametrize("p, k", [(2, 1), (2, 2), (4, 3)])
def test_pricing_state_independent_of_entry_order(table2, p, k):
    grid = GaussianGridSpec(k=k, s_min=3.0)
    pc = build_pricing_circuit(table2, grid, fit_format(table2, grid, p))
    _assert_order_free(pc.layout.num_qubits, pc.ops, pc.good)


def _gather_per_qubit(indices, qubits):
    """The per-qubit definition of ``_gather``: bit ``q`` to value bit ``j``."""
    out = np.zeros_like(indices)
    for j, q in enumerate(qubits):
        out |= ((indices >> q) & 1) << j
    return out


def _scatter_per_qubit(values, qubits):
    """The per-qubit definition of ``_scatter``: value bit ``j`` to bit ``q``."""
    out = np.zeros_like(values)
    for j, q in enumerate(qubits):
        out |= ((values >> j) & 1) << q
    return out


def _qubit_tuples(rng):
    yield ()
    yield tuple(range(MAX_QUBITS))
    yield tuple(range(3, 50))
    yield tuple(range(61, -1, -1))
    yield tuple(range(10, 0, -2)) + tuple(range(11, 30))
    yield (0, 2, 1, 3, 5, 4, 6, 61, 60)
    for width in range(1, 25):
        qubits = rng.choice(MAX_QUBITS, size=width, replace=False)
        yield tuple(int(q) for q in qubits)
        # three runs of one register, in a random order
        start = int(rng.integers(0, MAX_QUBITS - width + 1))
        a, b = sorted(int(c) for c in rng.integers(0, width + 1, size=2))
        run = list(range(start, start + width))
        pieces = (run[:a], run[a:b], run[b:])
        yield tuple(q for i in rng.permutation(3) for q in pieces[i])


def test_gather_and_scatter_match_their_per_qubit_definition():
    rng = np.random.default_rng(29)
    indices = rng.integers(0, 2**MAX_QUBITS, size=500, dtype=np.int64)
    for qubits in _qubit_tuples(rng):
        got = simulator._gather(indices, qubits)
        assert (got == _gather_per_qubit(indices, qubits)).all(), qubits
        values = indices & (2 ** len(qubits) - 1)
        want = _scatter_per_qubit(values, qubits)
        assert (simulator._scatter(values, qubits) == want).all(), qubits
        assert (simulator._gather(want, qubits) == values).all(), qubits
        # bits above len(qubits) are dropped, so Add's sums land mod 2**len(qubits)
        for wide in (indices, -indices):
            assert (simulator._scatter(wide, qubits) == _scatter_per_qubit(wide, qubits)).all()
    assert simulator._gather(indices, ()).tolist() == [0] * len(indices)


@pytest.mark.parametrize("p, k", [(2, 1), (2, 2), (4, 3)])
def test_pricing_state_identical_to_per_qubit_kernels(table2, monkeypatch, p, k):
    grid = GaussianGridSpec(k=k, s_min=3.0)
    pc = build_pricing_circuit(table2, grid, fit_format(table2, grid, p))
    state = allocate(pc.layout.num_qubits).apply_all(pc.ops)
    monkeypatch.setattr(simulator, "_gather", _gather_per_qubit)
    monkeypatch.setattr(simulator, "_scatter", _scatter_per_qubit)
    want = allocate(pc.layout.num_qubits).apply_all(pc.ops)
    assert state.indices.tolist() == want.indices.tolist()
    assert state.values.tolist() == want.values.tolist()


def test_probability_basics():
    state = allocate(2)
    assert probability(state, Condition(((0, 1),))) == 0.0
    state.apply(Ry(0, math.pi / 2))
    assert probability(state, Condition(((0, 1),))) == pytest.approx(0.5, abs=1e-12)
    assert probability(state, Condition()) == pytest.approx(1.0, abs=1e-12)


def test_condition_rejects_duplicates():
    with pytest.raises(StructuralError):
        Condition(((0, 1), (0, 0)))


def test_phase_oracle_marks_values():
    state = allocate(2).apply(Ry(0, math.pi / 2)).apply(Ry(1, math.pi / 2))
    state.apply(PhaseOracle((0, 1), (3,), math.pi))
    assert to_dense(state)[3].real == pytest.approx(-0.5, abs=1e-12)
    assert to_dense(state)[0].real == pytest.approx(0.5, abs=1e-12)


def test_phase_oracle_stores_only_its_marked_values():
    # the S_0 reflection on every qubit of the widest state holds one value
    assert PhaseOracle(range(MAX_QUBITS), (0,), math.pi).marked.tolist() == [0]
    for marked in ([1, 1], [4], [-1]):
        with pytest.raises(StructuralError, match="marked values"):
            PhaseOracle((0, 1), marked, math.pi)


def test_register_helpers():
    reg = QubitRegister(3, 4)
    assert reg.qubits == (3, 4, 5, 6)
    assert reg.qubit(2) == 5
    with pytest.raises(StructuralError):
        reg.qubit(4)
    with pytest.raises(StructuralError):
        QubitRegister(-1, 2)
