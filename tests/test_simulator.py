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
    PhaseOracle,
    QubitRegister,
    Ry,
    allocate,
    injection_ops,
    invert,
    probability,
)


def _loaded(width, amps):
    return allocate(width).apply_all(injection_ops(QubitRegister(0, width), amps))


def _flip(target, control=None, value=0):
    """A bit flip on ``target`` where ``control`` reads ``value``: an Add on a
    one-qubit target whose one source, if any, is the control register."""
    sources = () if control is None else (control,)
    hit = lambda v=value: np.equal(v, value).astype(np.int64)  # noqa: E731
    return Add(QubitRegister(target, 1), sources, hit, name=f"flip[{target}]")


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
    state = allocate(3).apply(_flip(0)).apply(_flip(1))
    state.apply(_flip(2, QubitRegister(0, 2), 3))
    assert abs(to_dense(state)[0b111]) == pytest.approx(1.0)
    # control not satisfied: nothing happens
    state = allocate(3).apply(_flip(0))
    state.apply(_flip(2, QubitRegister(0, 2), 3))
    assert abs(to_dense(state)[0b001]) == pytest.approx(1.0)


def test_controlled_ry_acts_only_when_controls_match():
    angle = 2 * math.asin(math.sqrt(0.25))
    state = allocate(2).apply(Ry(1, angle, QubitRegister(0, 1), 1))
    assert probability(state, QubitRegister(1, 1), 1) == pytest.approx(0.0, abs=1e-15)
    state = allocate(2).apply(_flip(0)).apply(Ry(1, angle, QubitRegister(0, 1), 1))
    assert probability(state, QubitRegister(1, 1), 1) == pytest.approx(0.25, abs=1e-12)


def test_rotation_lists_no_exact_zeros():
    # a zero-angle rotation pairs |01> with |11> but leaves |11> exactly 0
    state = allocate(2).apply(Ry(0, math.pi / 2)).apply(Ry(1, 0.0))
    assert state.indices.tolist() == [0, 1]


def test_control_target_overlap_rejected():
    # a control register holding the target: as its top, its bottom, its one
    # qubit, or inside it
    for control in (QubitRegister(1, 2), QubitRegister(2, 2), QubitRegister(2, 1),
                    QubitRegister(1, 3)):
        with pytest.raises(StructuralError, match="both control and target"):
            Ry(2, 0.3, control, 0)
    # a value the control register cannot read; without a control, only 0
    for control, value in ((QubitRegister(0, 2), 4), (QubitRegister(0, 2), -1), (None, 1)):
        with pytest.raises(StructuralError, match="control value"):
            Ry(2, 0.3, control, value)


def test_classical_identity_noop():
    reg = QubitRegister(0, 2)
    state = allocate(3).apply(Ry(0, 0.7)).apply(Ry(2, 1.1))
    before = to_dense(state)
    state.apply(Add(reg, (QubitRegister(2, 1),), lambda v: 0 * v, name="add_0"))
    assert np.array_equal(to_dense(state), before)


def test_classical_increment_register_local():
    reg = QubitRegister(0, 2)
    state = allocate(3)
    state.apply(Add(reg, (), lambda: 1, name="add_1"))
    assert abs(to_dense(state)[0b001]) == pytest.approx(1.0)


def test_add_on_one_qubit_is_an_involution():
    # a one-qubit target XORs a flag, so adding 1 or -1 undoes itself
    flag = Add(QubitRegister(2, 1), (QubitRegister(0, 2),), lambda v: (v == 3).astype(np.int64),
               name="and")
    state = allocate(3).apply(Ry(0, 0.4)).apply(Ry(1, 1.3, QubitRegister(0, 1), 1))
    before = to_dense(state)
    state.apply(flag)
    assert probability(state, QubitRegister(2, 1), 1) == pytest.approx(abs(before[3]) ** 2)
    state.apply(flag)
    assert np.array_equal(to_dense(state), before)
    state.apply(flag).apply(flag.inverse())
    assert np.array_equal(to_dense(state), before)


def test_add_rejects_overlap_and_empty_target():
    r = QubitRegister
    for target, sources in [(r(0, 2), (r(1, 2),)), (r(2, 1), (r(0, 2), r(1, 1))),
                            (r(3, 1), (r(0, 3), r(3, 2)))]:
        with pytest.raises(StructuralError, match="share no qubit"):
            Add(target, sources, lambda *v: v[0])
    with pytest.raises(StructuralError, match="invalid register"):
        Add(r(0, 0), (r(1, 1),), lambda v: v)


def test_register_ops_beyond_the_state_rejected():
    for op in (Ry(3, 0.1), Ry(0, 0.1, QubitRegister(2, 2), 0),
               PhaseOracle(QubitRegister(2, 2), (0,), 0.1),
               Add(QubitRegister(0, 1), (QubitRegister(1, 3),), lambda v: v),
               Add(QubitRegister(3, 1), (), lambda: 1)):
        with pytest.raises(StructuralError, match="outside state of 3 qubits"):
            allocate(3).apply(op)


@given(codes=st.lists(st.integers(-50, 50), min_size=2, max_size=2))
@settings(max_examples=40, deadline=None)
def test_classical_preserves_probability_multiset(codes):
    rng = np.random.default_rng(7)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = from_dense(3, amps / np.linalg.norm(amps))
    before = np.sort(np.abs(to_dense(state)) ** 2)
    codes = np.array(codes, dtype=np.int64)
    state.apply(Add(QubitRegister(0, 2), (QubitRegister(2, 1),), lambda v: codes[v]))
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
    a, b = Ry(0, 0.3), Ry(1, 0.5, QubitRegister(0, 1), 1)
    assert invert([a, b]) == [Ry(1, -0.5, QubitRegister(0, 1), 1), Ry(0, -0.3)]


def test_each_op_inverts_to_one_op_of_its_kind():
    add = Add(QubitRegister(0, 2), (QubitRegister(2, 1),), lambda v: v + 1, name="inc")
    oracle = PhaseOracle(QubitRegister(1, 2), (1, 3), 0.4)
    undo_oracle, undo_add = invert([add, oracle])
    assert (undo_add.target, undo_add.sources, undo_add.name) == (add.target, add.sources, "inc^-1")
    assert undo_add.f(np.array([0, 1])).tolist() == [-1, -2]
    assert undo_oracle.register == oracle.register and undo_oracle.phase == -0.4
    assert undo_oracle.marked.tolist() == [1, 3]


def _lookup(codes, sources):
    """``f`` reading ``codes`` at the sources' values, packed LSB first in order."""
    def f(*values):
        index, shift = 0, 0
        for v, reg in zip(values, sources):
            index = index + (v << shift)
            shift += reg.width
        return codes[index]
    return f


def _control(num_qubits, target, rng):
    """A random control register of 0 to 2 qubits beside ``target`` (None for
    0), and a random value for it."""
    width = int(rng.integers(0, 3))
    if not width:
        return None, 0
    offsets = [a for a in range(num_qubits - width + 1) if not a <= target < a + width]
    return QubitRegister(int(rng.choice(offsets)), width), int(rng.integers(2**width))


def _random_circuit(num_qubits, rng, length=25):
    ops = []
    ops.extend(injection_ops(QubitRegister(0, 2), np.sqrt([0.1, 0.2, 0.3, 0.4])))
    for _ in range(length):
        kind = rng.integers(4)
        target = int(rng.integers(num_qubits))
        control, value = _control(num_qubits, target, rng)
        if kind == 0:
            ops.append(Ry(target, float(rng.uniform(-math.pi, math.pi)), control, value))
        elif kind == 1:
            ops.append(_flip(target, control, value))
        elif kind == 2:
            # the target and up to two sources: three registers that split the qubits
            cuts = sorted(int(c) for c in rng.choice(np.arange(1, num_qubits), 2, replace=False))
            bounds = [0, *cuts, num_qubits]
            regs = [QubitRegister(a, b - a) for a, b in zip(bounds, bounds[1:])]
            order = rng.permutation(3)
            sources = tuple(regs[i] for i in order[1 : 1 + int(rng.integers(0, 3))])
            codes = rng.integers(-5, 6, size=2 ** sum(reg.width for reg in sources))
            ops.append(Add(regs[order[0]], sources, _lookup(codes, sources), "codes"))
        else:
            width = int(rng.integers(1, 4))
            reg = QubitRegister(int(rng.integers(0, num_qubits - width + 1)), width)
            marked = np.flatnonzero(rng.integers(2, size=2**width))
            ops.append(PhaseOracle(reg, marked, float(rng.uniform(-math.pi, math.pi))))
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
        if isinstance(op, Ry):
            if _bit(i, op.target) or (op.control and _value(i, op.control.qubits) != op.value):
                continue
            j = i | (1 << op.target)
            c, s = math.cos(op.angle / 2), math.sin(op.angle / 2)
            out[i], out[j] = c * amps[i] - s * amps[j], s * amps[i] + c * amps[j]
        elif isinstance(op, PhaseOracle):
            if _value(i, op.register.qubits) in op.marked:
                out[i] = amps[i] * complex(math.cos(op.phase), math.sin(op.phase))
        else:  # Add: target += f(*values on sources) mod 2**target.width
            values = (np.array([_value(i, reg.qubits)], dtype=np.int64) for reg in op.sources)
            add = np.ravel(op.f(*values))[0]
            w = (_value(i, op.target.qubits) + int(add)) % 2**op.target.width
            j = i
            for k, q in enumerate(op.target.qubits):
                j = (j & ~(1 << q)) | (((w >> k) & 1) << q)
            out[j] = amps[i]
    return out


_MARKED = np.flatnonzero(np.random.default_rng(3).integers(2, size=16))
_CODES = np.random.default_rng(4).integers(-20, 20, size=4)


@pytest.mark.parametrize(
    "op",
    [
        Ry(1, -1.3),
        Ry(2, 0.7, QubitRegister(3, 2), 1),
        Ry(0, 0.4, QubitRegister(1, 4), 0b1010),
        _flip(0),
        _flip(3, QubitRegister(0, 3), 0b011),
        PhaseOracle(QubitRegister(0, 3), _MARKED[_MARKED < 8], 0.9),
        PhaseOracle(QubitRegister(1, 4), _MARKED, math.pi),
        PhaseOracle(QubitRegister(0, 5), np.concatenate([_MARKED, _MARKED + 16]), -0.4),
        Add(QubitRegister(2, 3), (QubitRegister(0, 2),), lambda v: _CODES[v], name="codes"),
        Add(QubitRegister(3, 1), (QubitRegister(4, 1), QubitRegister(0, 3)),
            lambda a, b: ((a + 2 * b) % 3 == 1).astype(np.int64), name="flag"),
        Add(QubitRegister(1, 4), (), lambda: -5, name="neg5"),
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
    reg, value = QubitRegister(1, 3), 0b110
    mass = sum(abs(want[i]) ** 2 for i in range(32) if _value(i, reg.qubits) == value)
    assert probability(state, reg, value) == pytest.approx(mass, abs=1e-14)


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


def _assert_order_free(num_qubits, ops, reg, value):
    """Run ``ops`` one by one on a state as the kernels leave it and on one
    re-sorted by index after every op: sorted, both hold the same bits, and
    ``probability`` of ``reg`` reading ``value`` is the same float for both."""
    state, resorted = allocate(num_qubits), allocate(num_qubits)
    for op in ops:
        state.apply(op)
        _sort_by_index(resorted.apply(op))
        order = np.argsort(state.indices)
        assert state.indices[order].tobytes() == resorted.indices.tobytes(), op
        assert state.values[order].tobytes() == resorted.values.tobytes(), op
        assert probability(state, reg, value) == probability(resorted, reg, value), op


def test_random_circuits_independent_of_entry_order():
    rng = np.random.default_rng(23)
    for _ in range(5):
        _assert_order_free(5, _random_circuit(5, rng, length=40), QubitRegister(2, 2), 0b10)


@pytest.mark.parametrize("p, k", [(2, 1), (2, 2), (4, 3)])
def test_pricing_state_independent_of_entry_order(table2, p, k):
    grid = GaussianGridSpec(k=k, s_min=3.0)
    pc = build_pricing_circuit(table2, grid, fit_format(table2, grid, p))
    _assert_order_free(pc.layout.num_qubits, pc.ops, pc.good, 0b11)


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


def _registers(rng):
    yield QubitRegister(0, MAX_QUBITS)
    yield QubitRegister(MAX_QUBITS - 1, 1)
    yield QubitRegister(0, 1)
    yield QubitRegister(3, 47)
    for width in range(1, MAX_QUBITS + 1):
        yield QubitRegister(int(rng.integers(0, MAX_QUBITS - width + 1)), width)


def test_gather_and_scatter_match_their_per_qubit_definition():
    rng = np.random.default_rng(29)
    indices = rng.integers(0, 2**MAX_QUBITS, size=500, dtype=np.int64)
    for reg in _registers(rng):
        got = simulator._gather(indices, reg)
        assert (got == _gather_per_qubit(indices, reg.qubits)).all(), reg
        values = indices & (2**reg.width - 1)
        want = _scatter_per_qubit(values, reg.qubits)
        assert (simulator._scatter(values, reg) == want).all(), reg
        assert (simulator._gather(want, reg) == values).all(), reg
        # bits above reg.width are dropped, so Add's sums land mod 2**reg.width
        for wide in (indices, -indices):
            assert (simulator._scatter(wide, reg) == _scatter_per_qubit(wide, reg.qubits)).all()


@pytest.mark.parametrize("p, k", [(2, 1), (2, 2), (4, 3)])
def test_pricing_state_identical_to_per_qubit_kernels(table2, monkeypatch, p, k):
    grid = GaussianGridSpec(k=k, s_min=3.0)
    pc = build_pricing_circuit(table2, grid, fit_format(table2, grid, p))
    state = allocate(pc.layout.num_qubits).apply_all(pc.ops)
    monkeypatch.setattr(simulator, "_gather", lambda i, reg: _gather_per_qubit(i, reg.qubits))
    monkeypatch.setattr(simulator, "_scatter", lambda v, reg: _scatter_per_qubit(v, reg.qubits))
    want = allocate(pc.layout.num_qubits).apply_all(pc.ops)
    assert state.indices.tolist() == want.indices.tolist()
    assert state.values.tolist() == want.values.tolist()


def _sorted_rotation(state, op):
    """The rotation kernel with no partner-free case: every matched entry is
    paired with its partner on the sorted union of both, a missing partner
    reading 0."""
    bit = 1 << op.target
    matched = simulator._controlled(state.indices, op)
    indices = np.concatenate((state.indices, state.indices[matched] ^ bit))
    indices.sort(kind="stable")
    first = np.ones(len(indices), dtype=bool)
    first[1:] = indices[1:] != indices[:-1]
    indices = indices[first]
    values = np.zeros(len(indices), dtype=np.complex128)
    values[np.searchsorted(indices, state.indices)] = state.values
    i0 = np.flatnonzero(simulator._controlled(indices, op) & ((indices & bit) == 0))
    i1 = np.searchsorted(indices, indices[i0] | bit)
    v0, v1 = values[i0], values[i1]
    c = math.cos(op.angle / 2.0)
    s = math.sin(op.angle / 2.0)
    a0 = v0.copy()
    v0 *= c
    v0 -= s * v1
    v1 *= c
    a0 *= s
    v1 += a0
    values[i0] = v0
    values[i1] = v1
    keep = values != 0
    state.indices, state.values = indices[keep], values[keep]


def _pairs(state):
    """The state's (index, amplitude) pairs in index order."""
    return sorted(zip(state.indices.tolist(), state.values.tolist()))


@pytest.mark.parametrize("p, k", [(2, 1), (2, 2), (4, 3)])
def test_pricing_state_identical_to_sorted_rotation(table2, monkeypatch, p, k):
    grid = GaussianGridSpec(k=k, s_min=3.0)
    pc = build_pricing_circuit(table2, grid, fit_format(table2, grid, p))
    state = allocate(pc.layout.num_qubits).apply_all(pc.ops)
    monkeypatch.setattr(simulator.Statevector, "_apply_rotation", _sorted_rotation)
    want = allocate(pc.layout.num_qubits).apply_all(pc.ops)
    assert _pairs(state) == _pairs(want)


_AMPLITUDES = st.sampled_from([1.0, -1.0, 0.5, 1j, -0.25j, 5e-324]) | st.complex_numbers(
    max_magnitude=1.0, allow_nan=False, allow_infinity=False
).filter(lambda z: z != 0)


@st.composite
def _rotation_on_sparse_state(draw, num_qubits=5):
    """An ``Ry``, controlled or not, and a sparse state in which the matched
    entries have no partner listed, all of them, or some."""
    target = draw(st.integers(0, num_qubits - 1))
    control, value = None, 0
    if draw(st.booleans()):
        offset = draw(st.integers(0, num_qubits - 1))
        width = draw(st.integers(1, num_qubits - offset))
        control = QubitRegister(offset, width)
        if target in control.qubits:
            control = None
        else:
            value = draw(st.integers(0, 2**width - 1))
    op = Ry(target, draw(st.sampled_from([0.0, math.pi, math.pi / 2, -math.pi / 2])
                         | st.floats(-2 * math.pi, 2 * math.pi)), control, value)
    # per pair (i, i | bit): 1 lists i, 2 lists its partner, 3 both
    partners = draw(st.sampled_from(["none", "full", "mixed"]))
    listed = {"none": [0, 1], "full": [0, 3], "mixed": [0, 1, 2, 3]}[partners]
    bit = 1 << target
    indices = []
    for low in range(2**num_qubits):
        if low & bit:
            continue
        matched = control is None or _value(low, control.qubits) == value
        which = draw(st.sampled_from(listed if matched else [0, 1, 2, 3]))
        indices.extend(i for flag, i in ((1, low), (2, low | bit)) if which & flag)
    indices = draw(st.permutations(indices or [0]))
    values = [draw(_AMPLITUDES) for _ in indices]
    state = simulator.Statevector(
        num_qubits, np.array(indices, dtype=np.int64), np.array(values, dtype=np.complex128)
    )
    return state, op


@given(case=_rotation_on_sparse_state())
@settings(max_examples=300, deadline=None)
def test_rotation_identical_to_sorted_rotation(case):
    state, op = case
    want = simulator.Statevector(state.num_qubits, state.indices.copy(), state.values.copy())
    _sorted_rotation(want, op)
    state.apply(op)
    assert (state.values != 0).all()
    assert len(np.unique(state.indices)) == len(state.indices)
    assert _pairs(state) == _pairs(want)


def test_probability_basics():
    state = allocate(2)
    assert probability(state, QubitRegister(0, 1), 1) == 0.0
    state.apply(Ry(0, math.pi / 2))
    assert probability(state, QubitRegister(0, 1), 1) == pytest.approx(0.5, abs=1e-12)
    whole = QubitRegister(0, 2)
    assert sum(probability(state, whole, v) for v in range(4)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(StructuralError, match="outside state of 2 qubits"):
        probability(state, QubitRegister(1, 2), 0)


def test_phase_oracle_marks_values():
    state = allocate(2).apply(Ry(0, math.pi / 2)).apply(Ry(1, math.pi / 2))
    state.apply(PhaseOracle(QubitRegister(0, 2), (3,), math.pi))
    assert to_dense(state)[3].real == pytest.approx(-0.5, abs=1e-12)
    assert to_dense(state)[0].real == pytest.approx(0.5, abs=1e-12)


def test_phase_oracle_stores_only_its_marked_values():
    # the S_0 reflection on every qubit of the widest state holds one value
    assert PhaseOracle(QubitRegister(0, MAX_QUBITS), (0,), math.pi).marked.tolist() == [0]
    for marked in ([1, 1], [4], [-1]):
        with pytest.raises(StructuralError, match="marked values"):
            PhaseOracle(QubitRegister(0, 2), marked, math.pi)


def test_register_helpers():
    reg = QubitRegister(3, 4)
    assert reg.qubits == (3, 4, 5, 6)
    assert reg.qubit(2) == 5
    with pytest.raises(StructuralError):
        reg.qubit(4)
    with pytest.raises(StructuralError):
        QubitRegister(-1, 2)
