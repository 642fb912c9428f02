"""Dense statevector simulator with invertible primitive operations.

Bit-order convention used across the whole package: qubit ``q`` is bit ``q``
of the basis-state index (LSB-first), and a register occupying qubits
``offset .. offset+width-1`` stores value bit ``j`` on qubit ``offset+j``.

Circuits are lists of four invertible primitive op kinds: :class:`Ry` and
:class:`X` (optionally controlled), :class:`PhaseOracle` and
:class:`Classical`. Amplitude loading is not a primitive: :func:`injection_ops`
expands it into ``Ry`` rotations when the circuit is built. No op checks the
state it is applied to; only the state-level loaders that take a state from a
caller (:func:`inject_amplitudes` here, the exponential preparations in
``loading``) call :func:`require_ground`.

A :class:`Statevector` is mutated in place by :meth:`Statevector.apply`; it is
exclusively owned by its caller during mutation. No module-level mutable state
exists, and randomness always enters through an explicit seed, so independent
statevectors may be driven from different threads safely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .errors import CapacityError, PreconditionError, StructuralError

DEFAULT_QUBIT_BUDGET = 28
HARD_QUBIT_CAP = 30

#: probability below which a register is considered to be exactly in |0...0>
_GROUND_TOL = 1e-12


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
Circuit = list  # ordered sequence of PrimitiveOp


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
    """Dense complex amplitude array over ``num_qubits`` qubits."""

    __slots__ = ("num_qubits", "amplitudes", "_idx")

    def __init__(self, num_qubits: int, amplitudes: np.ndarray):
        self.num_qubits = num_qubits
        self.amplitudes = amplitudes
        self._idx = None

    def _indices(self) -> np.ndarray:
        if self._idx is None:
            self._idx = np.arange(2**self.num_qubits, dtype=np.int64)
        return self._idx

    def copy(self) -> "Statevector":
        return Statevector(self.num_qubits, self.amplitudes.copy())

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

    def _control_mask(self, controls) -> np.ndarray | None:
        if not controls:
            return None
        idx = self._indices()
        mask = np.ones(idx.shape, dtype=bool)
        for q, b in controls:
            mask &= ((idx >> q) & 1) == b
        return mask

    def _apply_rotation(self, target: int, angle: float, controls):
        idx = self._indices()
        sel = ((idx >> target) & 1) == 0
        cmask = self._control_mask(controls)
        if cmask is not None:
            sel &= cmask
        i0 = idx[sel]
        i1 = i0 | (1 << target)
        c = math.cos(angle / 2.0)
        s = math.sin(angle / 2.0)
        a = self.amplitudes
        a0 = a[i0]
        a1 = a[i1]
        a[i0] = c * a0 - s * a1
        a[i1] = s * a0 + c * a1

    def _apply_flip(self, target: int, controls):
        idx = self._indices()
        sel = ((idx >> target) & 1) == 0
        cmask = self._control_mask(controls)
        if cmask is not None:
            sel &= cmask
        i0 = idx[sel]
        i1 = i0 | (1 << target)
        a = self.amplitudes
        a0 = a[i0].copy()
        a[i0] = a[i1]
        a[i1] = a0

    def _apply_phase(self, op: PhaseOracle):
        if op.qubits == tuple(range(self.num_qubits)):
            v = self._indices()
        else:
            v = self._register_values(op.qubits)
        sel = op.marked[v]
        self.amplitudes[sel] *= complex(math.cos(op.phase), math.sin(op.phase))

    def _apply_classical(self, op: Classical):
        idx = self._indices()
        v = self._register_values(op.qubits)
        diff = v ^ op.table[v]
        new_idx = idx.copy()
        for j, q in enumerate(op.qubits):
            new_idx ^= ((diff >> j) & 1) << q
        out = np.empty_like(self.amplitudes)
        out[new_idx] = self.amplitudes
        self.amplitudes = out

    def _register_values(self, qubits: tuple[int, ...]) -> np.ndarray:
        idx = self._indices()
        v = np.zeros(idx.shape, dtype=np.int64)
        for j, q in enumerate(qubits):
            v |= ((idx >> q) & 1) << j
        return v


def allocate(num_qubits: int, budget: int = DEFAULT_QUBIT_BUDGET) -> Statevector:
    """Fresh |0...0> state. Raises :class:`CapacityError` above the budget."""
    cap = min(budget, HARD_QUBIT_CAP)
    if num_qubits < 1:
        raise StructuralError(f"need at least one qubit, got {num_qubits}")
    if num_qubits > cap:
        raise CapacityError(
            f"requested {num_qubits} qubits exceeds the budget of {cap} "
            f"(2**{num_qubits} amplitudes)"
        )
    amps = np.zeros(2**num_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return Statevector(num_qubits, amps)


def apply_classical(
    state: Statevector, reg: QubitRegister, f: Callable[[int], int] | np.ndarray, name: str = ""
) -> Statevector:
    """Apply a register-local bijection ``f`` over basis values of ``reg``."""
    if callable(f):
        table = np.fromiter((f(v) for v in range(2**reg.width)), dtype=np.int64, count=2**reg.width)
    else:
        table = np.asarray(f, dtype=np.int64)
    return state.apply(Classical(reg.qubits, table, name=name or "apply_classical"))


def inject_amplitudes(
    state: Statevector, reg: QubitRegister, amps: np.ndarray | Sequence[float]
) -> Statevector:
    """Load ``amps`` into ``reg``, which must be in its ground state."""
    ops = injection_ops(reg, amps)
    require_ground(state, reg.qubits)
    return state.apply_all(ops)


def require_ground(state: Statevector, qubits: tuple[int, ...]):
    """Raise :class:`PreconditionError` unless ``qubits`` are all |0> in ``state``."""
    leaked = 1.0 - probability(state, Condition(tuple((q, 0) for q in qubits)))
    if leaked > _GROUND_TOL:
        raise PreconditionError(
            f"register {qubits} not in ground state (leak probability {leaked:.3e})"
        )


def invert(circuit: Sequence[PrimitiveOp]) -> list[PrimitiveOp]:
    """Exact inverse circuit: reversed order, each op inverted."""
    return [inv for op in reversed(circuit) for inv in op.inverse_ops()]


def probability(state: Statevector, cond: Condition) -> float:
    """Exact probability mass of basis states satisfying ``cond``."""
    a = state.amplitudes
    if not cond.terms:
        return float(np.real(np.vdot(a, a)))
    state._check_bounds(q for q, _ in cond.terms)
    mask = state._control_mask(cond.terms)
    sel = a[mask]
    return float(np.real(np.vdot(sel, sel)))


def sample(state: Statevector, cond: Condition, shots: int, seed: int) -> int:
    """Binomial success count for ``cond`` over ``shots`` measurements."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    p = min(max(probability(state, cond), 0.0), 1.0)
    rng = np.random.default_rng(seed)
    return int(rng.binomial(shots, p))
