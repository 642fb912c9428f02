"""Dense statevector simulator with invertible primitive operations.

Bit-order convention used across the whole package: qubit ``q`` is bit ``q``
of the basis-state index (LSB-first), and a register occupying qubits
``offset .. offset+width-1`` stores value bit ``j`` on qubit ``offset+j``.
The kernels index the state as a ``(2,)*n`` tensor, so qubit ``q`` is axis
``n-1-q`` of that view; this needs C-contiguous amplitudes, and a
:class:`Classical` op costs one state-sized temporary (see :class:`Statevector`).

Circuits are lists of four invertible primitive op kinds: :class:`Ry` and
:class:`X` (optionally controlled), :class:`PhaseOracle` and
:class:`Classical`. Amplitude loading is not a primitive: :func:`injection_ops`
expands it into ``Ry`` rotations when the circuit is built. No op checks the
state it is applied to: a circuit is a list of ops built ahead of time and run
only on a fresh :func:`allocate` state with :meth:`Statevector.apply_all`.
:func:`max_qubits` bounds that state by the machine's physical memory.

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

#: peak bytes per amplitude: the complex128 state plus the state-sized
#: temporary a :class:`Classical` op holds while it permutes
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
    """Dense complex amplitude array over ``num_qubits`` qubits.

    The kernels work on the ``(2,)*num_qubits`` reshape of ``amplitudes``, in
    which qubit ``q`` is axis ``num_qubits-1-q``; they write through that view
    in place and allocate no index arrays. ``amplitudes`` must therefore stay
    C-contiguous (a reshape of anything else is a copy that would swallow the
    writes), and a kernel given a non-contiguous array raises
    :class:`StructuralError`. A :class:`Classical` op holds one
    state-sized temporary while it permutes; the other kinds allocate
    temporaries in proportion to the entries they touch.
    """

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, num_qubits: int, amplitudes: np.ndarray):
        self.num_qubits = num_qubits
        self.amplitudes = amplitudes

    def norm_sq(self) -> float:
        a = self.amplitudes
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

    def _view(self, fixed: Iterable[tuple[int, int]] = ()) -> np.ndarray:
        """Writable tensor view with each ``(qubit, bit)`` of ``fixed`` pinned.

        Pinned axes keep length 1 (``slice(b, b+1)``), so even a fully pinned
        view is an array rather than a scalar.
        """
        if not self.amplitudes.flags.c_contiguous:
            raise StructuralError("statevector amplitudes must be C-contiguous")
        n = self.num_qubits
        index = [slice(None)] * n
        for q, b in fixed:
            index[n - 1 - q] = slice(b, b + 1)
        return self.amplitudes.reshape((2,) * n)[tuple(index)]

    def _apply_rotation(self, target: int, angle: float, controls):
        v0 = self._view((*controls, (target, 0)))
        v1 = self._view((*controls, (target, 1)))
        c = math.cos(angle / 2.0)
        s = math.sin(angle / 2.0)
        a0 = v0.copy()
        # (c*a0 - s*v1, s*a0 + c*v1) in place: a0 and s * v1 are the only temporaries
        v0 *= c
        v0 -= s * v1
        v1 *= c
        a0 *= s
        v1 += a0

    def _apply_flip(self, target: int, controls):
        v0 = self._view((*controls, (target, 0)))
        v1 = self._view((*controls, (target, 1)))
        a0 = v0.copy()
        v0[...] = v1
        v1[...] = a0

    def _apply_phase(self, op: PhaseOracle):
        # op qubits first, MSB first: the leading axes index the marked table
        n, k = self.num_qubits, len(op.qubits)
        view = np.moveaxis(self._view(), [n - 1 - q for q in reversed(op.qubits)], range(k))
        view[op.marked.reshape((2,) * k)] *= complex(
            math.cos(op.phase), math.sin(op.phase)
        )

    def _apply_classical(self, op: Classical):
        # value v moves to table[v]; the copy is the one state-sized temporary
        n, k = self.num_qubits, len(op.qubits)
        view = np.moveaxis(self._view(), [n - 1 - q for q in reversed(op.qubits)], range(k))
        view[np.unravel_index(op.table, (2,) * k)] = view.copy().reshape(2**k, *view.shape[k:])


def max_qubits() -> int:
    """Most qubits whose state, with a :class:`Classical` op's temporary, fits
    in the machine's physical memory."""
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
    amps = np.zeros(2**num_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return Statevector(num_qubits, amps)


def invert(circuit: Sequence[PrimitiveOp]) -> list[PrimitiveOp]:
    """Exact inverse circuit: reversed order, each op inverted."""
    return [inv for op in reversed(circuit) for inv in op.inverse_ops()]


def probability(state: Statevector, cond: Condition) -> float:
    """Exact probability mass of basis states satisfying ``cond``."""
    state._check_bounds(q for q, _ in cond.terms)
    sel = state._view(cond.terms)
    return float(np.real(np.vdot(sel, sel)))


def sample(state: Statevector, cond: Condition, shots: int, seed: int) -> int:
    """Binomial success count for ``cond`` over ``shots`` measurements."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    p = min(max(probability(state, cond), 0.0), 1.0)
    rng = np.random.default_rng(seed)
    return int(rng.binomial(shots, p))
