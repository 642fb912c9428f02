"""Sparse statevector simulator with invertible primitive operations.

Bit-order convention used across the whole package: qubit ``q`` is bit ``q``
of the basis-state index (LSB-first), and a register occupying qubits
``offset .. offset+width-1`` stores value bit ``j`` on qubit ``offset+j``.
A :class:`Statevector` stores only the basis states it holds: their sorted
indices and their amplitudes, so its memory scales with the support of the
state, not with ``2**n`` (see :class:`Statevector`). Its kernels compute the
same amplitudes as a dense simulation, bit for bit.

Circuits are lists of four invertible primitive op kinds: :class:`Ry` and
:class:`X` (optionally controlled), :class:`PhaseOracle` and
:class:`Classical`. Amplitude loading is not a primitive: :func:`injection_ops`
expands it into ``Ry`` rotations when the circuit is built. No op checks the
state it is applied to: a circuit is a list of ops built ahead of time and run
only on a fresh :func:`allocate` state with :meth:`Statevector.apply_all`.
:func:`max_qubits` caps the qubit count by the machine's physical memory.

A :class:`Statevector` is mutated in place by :meth:`Statevector.apply`; it is
exclusively owned by its caller during mutation. No module-level mutable state
exists, and randomness always enters through an explicit seed, so independent
statevectors may be driven from different threads safely.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import CapacityError, PreconditionError, StructuralError

#: bytes per basis state that :func:`max_qubits` budgets (see its docstring)
_BYTES_PER_AMPLITUDE = 32


@dataclass(frozen=True)
class QubitRegister:
    """A contiguous block of qubits interpreted as an LSB-first integer."""

    offset: int
    width: int

    def __post_init__(self):
        if self.offset < 0 or self.width < 1:
            raise StructuralError(f"invalid register (offset={self.offset}, width={self.width})")

    @property
    def qubits(self) -> tuple[int, ...]:
        return tuple(range(self.offset, self.offset + self.width))

    def qubit(self, j: int) -> int:
        if not 0 <= j < self.width:
            raise StructuralError(f"bit {j} outside register of width {self.width}")
        return self.offset + j


@dataclass(frozen=True)
class Condition:
    """Conjunction of (qubit, required bit) terms; empty means always true."""

    terms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple((int(q), int(b)) for q, b in self.terms))
        qubits = [q for q, _ in self.terms]
        if len(set(qubits)) != len(qubits):
            raise StructuralError(f"condition repeats a qubit: {qubits}")
        if any(b not in (0, 1) for _, b in self.terms):
            raise StructuralError("condition bits must be 0 or 1")


def _check_controls(controls: Iterable[tuple[int, int]], target: int | None):
    controls = tuple((int(q), int(b)) for q, b in controls)
    seen = set()
    for q, b in controls:
        if b not in (0, 1):
            raise StructuralError("control polarity must be 0 or 1")
        if q in seen:
            raise StructuralError(f"duplicate control qubit {q}")
        seen.add(q)
    if target is not None and target in seen:
        raise StructuralError(f"qubit {target} used as both control and target")
    return controls


@dataclass(frozen=True)
class Ry:
    """Y-rotation on ``target``, optionally controlled; CRY when controls given."""

    target: int
    angle: float
    controls: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "controls", _check_controls(self.controls, self.target))

    def inverse_ops(self) -> list["PrimitiveOp"]:
        return [Ry(self.target, -self.angle, self.controls)]


@dataclass(frozen=True)
class X:
    """Bit flip on ``target``; MCX when controls given."""

    target: int
    controls: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "controls", _check_controls(self.controls, self.target))

    def inverse_ops(self) -> list["PrimitiveOp"]:
        return [self]


class PhaseOracle:
    """Diagonal phase: multiply by e^{i*phase} every basis state whose value on
    ``qubits`` (LSB-first) is flagged in ``marked``.

    Carries the reflections needed by Grover operators and by exact amplitude
    amplification; with ``phase=pi`` and a single marked pattern it is the
    ordinary multi-controlled Z.
    """

    __slots__ = ("qubits", "marked", "phase")

    def __init__(self, qubits: Sequence[int], marked, phase: float):
        self.qubits = tuple(int(q) for q in qubits)
        if len(set(self.qubits)) != len(self.qubits):
            raise StructuralError("phase oracle qubits must be distinct")
        self.marked = np.asarray(marked, dtype=bool)
        if self.marked.shape != (2 ** len(self.qubits),):
            raise StructuralError("marked table length must be 2**len(qubits)")
        self.phase = float(phase)

    @classmethod
    def on_value(cls, qubits: Sequence[int], value: int, phase: float) -> "PhaseOracle":
        marked = np.zeros(2 ** len(tuple(qubits)), dtype=bool)
        marked[value] = True
        return cls(qubits, marked, phase)

    def inverse_ops(self) -> list["PrimitiveOp"]:
        return [PhaseOracle(self.qubits, self.marked, -self.phase)]

    def __repr__(self):
        return f"PhaseOracle(qubits={self.qubits}, phase={self.phase})"


class Classical:
    """Reversible classical function: permute basis values of a qubit tuple.

    The permutation table is checked exhaustively on construction (every table
    we build fits in memory, so the check is total rather than sampled).
    Simulated as an index permutation; its gate-level cost is accounted in the
    resource model, not here.
    """

    __slots__ = ("qubits", "table", "name", "_inverse_table")

    def __init__(self, qubits: Sequence[int], table: np.ndarray | Sequence[int], name: str = ""):
        self.qubits = tuple(int(q) for q in qubits)
        if len(set(self.qubits)) != len(self.qubits):
            raise StructuralError("classical op qubits must be distinct")
        table = np.asarray(table, dtype=np.int64)
        size = 2 ** len(self.qubits)
        if table.shape != (size,):
            raise StructuralError(f"table must have shape ({size},), got {table.shape}")
        counts = np.bincount(table, minlength=size) if table.min() >= 0 and table.max() < size else None
        if counts is None or not (counts == 1).all():
            raise StructuralError(f"classical op {name or '<anon>'} is not a bijection on [0, {size})")
        self.table = table
        self.name = name
        self._inverse_table = None

    def inverse_ops(self) -> list["PrimitiveOp"]:
        if self._inverse_table is None:
            inv = np.empty_like(self.table)
            inv[self.table] = np.arange(len(self.table), dtype=np.int64)
            self._inverse_table = inv
        return [Classical(self.qubits, self._inverse_table, name=f"{self.name}^-1")]

    def __repr__(self):
        return f"Classical({self.name or hex(id(self))}, qubits={self.qubits})"


PrimitiveOp = Union[Ry, X, PhaseOracle, Classical]


def injection_ops(reg: QubitRegister, amps: np.ndarray | Sequence[float]) -> list[Ry]:
    """Rotations loading a real non-negative amplitude vector into ``reg``
    from its ground state.

    Binary-tree decomposition into uniformly controlled Y rotations, one
    layer per bit, MSB first; being plain rotations, the ops invert and
    repeat like any other gate.
    """
    amps = np.asarray(amps, dtype=float)
    if amps.shape != (2**reg.width,):
        raise StructuralError(
            f"amplitude vector must have length {2 ** reg.width}, got {amps.shape}"
        )
    if (amps < 0).any():
        raise StructuralError("injection supports real non-negative amplitudes only")
    probs = amps * amps
    norm = float(np.sum(probs))
    if abs(norm - 1.0) > 1e-12:
        raise PreconditionError(f"amplitude vector not normalized: |amps|^2 = {norm!r}")
    qubits = reg.qubits
    k = reg.width
    ops: list[Ry] = []
    for t in range(k - 1, -1, -1):
        high_bits = range(t + 1, k)
        for hi in range(2 ** (k - 1 - t)):
            base0 = (hi << 1) << t
            base1 = ((hi << 1) | 1) << t
            m0 = float(probs[base0 : base0 + 2**t].sum())
            m1 = float(probs[base1 : base1 + 2**t].sum())
            if m0 + m1 <= 0.0:
                continue
            angle = 2.0 * math.atan2(math.sqrt(m1), math.sqrt(m0))
            controls = tuple(
                (qubits[b], (hi >> (b - (t + 1))) & 1) for b in high_bits
            )
            ops.append(Ry(qubits[t], angle, controls))
    return ops


class Statevector:
    """Sparse complex state over ``num_qubits`` qubits: the basis states it
    holds and their amplitudes.

    ``indices`` is a sorted int64 array of basis-state indices and ``values``
    the complex128 amplitude of each; a basis state that is not listed has
    amplitude 0. Memory therefore scales with the support (the number of
    listed states), not with ``2**num_qubits``: a pricing circuit keeps only
    its Gaussian, exponential, payoff-target and scale qubits in
    superposition, so ``A|0>`` of the 22-qubit Table-2 circuit lists 1024
    states.

    Each kernel works on the listed entries only. :class:`Ry` pairs every
    entry whose controls match with its partner ``i ^ (1 << target)``, reads
    a missing partner as 0 and updates the pair with the same floating-point
    operations in the same order as a dense 2x2 update, so every amplitude
    equals the one a dense simulation computes, bit for bit; entries that
    come out exactly 0 are dropped. :class:`X` and :class:`Classical` rewrite
    the op's bits of each index and re-sort (they permute basis states, so
    indices never collide), and :class:`PhaseOracle` multiplies the entries
    whose value on its qubits is marked.
    """

    __slots__ = ("num_qubits", "indices", "values")

    def __init__(self, num_qubits: int, indices: np.ndarray, values: np.ndarray):
        self.num_qubits = num_qubits
        self.indices = indices
        self.values = values

    def norm_sq(self) -> float:
        a = self.values
        return float(np.real(np.vdot(a, a)))

    def _check_bounds(self, qubits: Iterable[int]):
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise StructuralError(f"qubit {q} outside state of {self.num_qubits} qubits")

    def apply(self, op: PrimitiveOp) -> "Statevector":
        if isinstance(op, Ry):
            self._check_bounds([op.target, *(q for q, _ in op.controls)])
            self._apply_rotation(op.target, op.angle, op.controls)
        elif isinstance(op, X):
            self._check_bounds([op.target, *(q for q, _ in op.controls)])
            self._apply_flip(op.target, op.controls)
        elif isinstance(op, PhaseOracle):
            self._check_bounds(op.qubits)
            self._apply_phase(op)
        elif isinstance(op, Classical):
            self._check_bounds(op.qubits)
            self._apply_classical(op)
        else:
            raise StructuralError(f"unknown primitive op {op!r}")
        return self

    def apply_all(self, ops: Iterable[PrimitiveOp]) -> "Statevector":
        for op in ops:
            self.apply(op)
        return self

    # -- op kernels --------------------------------------------------------

    def _apply_rotation(self, target: int, angle: float, controls):
        bit = 1 << target
        matched = _matches(self.indices, controls)
        # every matched entry plus its partner, a missing partner holding 0
        indices = np.union1d(self.indices, self.indices[matched] ^ bit)
        values = np.zeros(len(indices), dtype=np.complex128)
        values[np.searchsorted(indices, self.indices)] = self.values
        i0 = np.flatnonzero(_matches(indices, (*controls, (target, 0))))
        i1 = np.searchsorted(indices, indices[i0] | bit)
        v0, v1 = values[i0], values[i1]
        c = math.cos(angle / 2.0)
        s = math.sin(angle / 2.0)
        a0 = v0.copy()
        # (c*a0 - s*v1, s*a0 + c*v1), in the order a dense in-place update uses
        v0 *= c
        v0 -= s * v1
        v1 *= c
        a0 *= s
        v1 += a0
        values[i0] = v0
        values[i1] = v1
        keep = values != 0
        self.indices, self.values = indices[keep], values[keep]

    def _apply_flip(self, target: int, controls):
        indices = self.indices.copy()
        indices[_matches(indices, controls)] ^= 1 << target
        self._reorder(indices)

    def _apply_phase(self, op: PhaseOracle):
        marked = op.marked[_gather(self.indices, op.qubits)]
        self.values[marked] *= complex(math.cos(op.phase), math.sin(op.phase))

    def _apply_classical(self, op: Classical):
        # value v on the op's qubits moves to table[v]
        mask = sum(1 << q for q in op.qubits)
        moved = _scatter(op.table[_gather(self.indices, op.qubits)], op.qubits)
        self._reorder((self.indices & ~mask) | moved)

    def _reorder(self, indices: np.ndarray):
        order = np.argsort(indices)
        self.indices, self.values = indices[order], self.values[order]


def _matches(indices: np.ndarray, terms: Iterable[tuple[int, int]]) -> np.ndarray:
    """Boolean mask of the indices whose bit ``q`` is ``b`` for every term."""
    mask = value = 0
    for q, b in terms:
        mask |= 1 << q
        value |= b << q
    return (indices & mask) == value


def _gather(indices: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
    """Value of each index on ``qubits``, LSB first."""
    out = np.zeros_like(indices)
    for j, q in enumerate(qubits):
        out |= ((indices >> q) & 1) << j
    return out


def _scatter(values: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
    """Inverse of :func:`_gather`: each value's bits placed on ``qubits``."""
    out = np.zeros_like(values)
    for j, q in enumerate(qubits):
        out |= ((values >> j) & 1) << q
    return out


def max_qubits() -> int:
    """Most qubits a state may have: ``2**n`` basis states at 32 bytes each
    must fit in the machine's physical memory.

    The state itself grows with its support, not with ``2**n``, but the cap
    stays: the ``S_0`` reflection of IQAE's Grover operator is a
    :class:`PhaseOracle` on every qubit, whose ``marked`` table has ``2**n``
    entries. Until that reflection stops depending on ``n``, the bound keeps
    the value it had for a dense state plus one state-sized temporary, so
    capacity errors and exit codes are unchanged.
    """
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return (memory // _BYTES_PER_AMPLITUDE).bit_length() - 1


def allocate(num_qubits: int) -> Statevector:
    """Fresh |0...0> state. Raises :class:`CapacityError` above :func:`max_qubits`."""
    if num_qubits < 1:
        raise StructuralError(f"need at least one qubit, got {num_qubits}")
    cap = max_qubits()
    if num_qubits > cap:
        raise CapacityError(
            f"requested {num_qubits} qubits exceeds the {cap} that fit in physical "
            f"memory (2**{num_qubits} amplitudes at {_BYTES_PER_AMPLITUDE} bytes each)"
        )
    return Statevector(
        num_qubits, np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.complex128)
    )


def invert(circuit: Sequence[PrimitiveOp]) -> list[PrimitiveOp]:
    """Exact inverse circuit: reversed order, each op inverted."""
    return [inv for op in reversed(circuit) for inv in op.inverse_ops()]


def probability(state: Statevector, cond: Condition) -> float:
    """Exact probability mass of basis states satisfying ``cond``."""
    state._check_bounds(q for q, _ in cond.terms)
    sel = state.values[_matches(state.indices, cond.terms)]
    return float(np.real(np.vdot(sel, sel)))


def sample(state: Statevector, cond: Condition, shots: int, seed: int) -> int:
    """Binomial success count for ``cond`` over ``shots`` measurements."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    p = min(max(probability(state, cond), 0.0), 1.0)
    rng = np.random.default_rng(seed)
    return int(rng.binomial(shots, p))
