"""Sparse statevector simulator with invertible primitive operations.

Bit-order convention used across the whole package: qubit ``q`` is bit ``q``
of the basis-state index (LSB-first), and a register occupying qubits
``offset .. offset+width-1`` stores value bit ``j`` on qubit ``offset+j``.
A :class:`Statevector` stores only the basis states it holds: their distinct
indices, in any order, and their nonzero amplitudes, so its memory scales
with the support of the state, not with ``2**n`` (see :class:`Statevector`).
Its kernels compute the same amplitudes as a dense simulation, bit for bit.

Circuits are lists of three invertible primitive op kinds, each inverted by
one op of its kind. Every operand but a rotation's target qubit is a
:class:`QubitRegister`, read as one integer with one shift and one mask: the
rotation :class:`Ry` acts on one target qubit where its control register
reads one value, and the register arithmetic :class:`Add` and the phase
:class:`PhaseOracle` act on registers; a bit flip, controlled or not, is an
``Add`` on a one-qubit target. :func:`probability` reads a register value
too. Amplitude loading is not a primitive: :func:`injection_ops` expands it
into ``Ry`` rotations when the circuit is built. No op checks the state it
is applied to: a circuit is a list of ops built ahead of time and run only
on a fresh :func:`allocate` state with :meth:`Statevector.apply_all`. No op
stores anything of size ``2**n``: a :class:`PhaseOracle` lists the values it
marks and an :class:`Add` computes its sums on the listed entries, so every
kernel's memory follows the state's support and nothing here limits the
qubit count below the 62 that int64 indices hold. How much a circuit may
store is decided where it is built (:func:`~.circuit.build_pricing_circuit`),
from the support it can reach.

A :class:`Statevector` is mutated in place by :meth:`Statevector.apply`; it is
exclusively owned by its caller during mutation. No module-level mutable state
exists, so independent statevectors may be driven from different threads
safely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import PreconditionError, StructuralError

#: most qubits a state may have: its basis indices are int64
MAX_QUBITS = 62


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

    def __repr__(self):
        return f"QubitRegister({self.offset}, {self.width})"

    def qubit(self, j: int) -> int:
        if not 0 <= j < self.width:
            raise StructuralError(f"bit {j} outside register of width {self.width}")
        return self.offset + j


@dataclass(frozen=True)
class Ry:
    """Y-rotation on ``target``; with a ``control`` register, only on the basis
    states where it reads ``value`` (a CRY on a one-qubit control at value 1)."""

    target: int
    angle: float
    control: QubitRegister | None = None
    value: int = 0

    def __post_init__(self):
        if self.control is not None and self.target in self.control.qubits:
            raise StructuralError(f"qubit {self.target} used as both control and target")
        size = 2 ** (self.control.width if self.control else 0)
        if not 0 <= self.value < size:
            raise StructuralError(f"control value {self.value} outside [0, {size})")

    def inverse(self) -> "Ry":
        return Ry(self.target, -self.angle, self.control, self.value)


class PhaseOracle:
    """Diagonal phase: multiply by e^{i*phase} every basis state whose value on
    ``register`` is one of the ``marked`` values.

    Carries the reflections needed by Grover operators and by exact amplitude
    amplification; with ``phase=pi`` and the single marked value ``(v,)`` it is
    the ordinary multi-controlled Z. ``marked`` lists distinct values in
    ``[0, 2**register.width)``, so the oracle's size does not grow with its width.
    """

    __slots__ = ("register", "marked", "phase")

    def __init__(self, register: QubitRegister, marked: Iterable[int], phase: float):
        self.register = register
        self.marked = np.array(list(marked), dtype=np.int64)
        if len(np.unique(self.marked)) != len(self.marked):
            raise StructuralError("phase oracle marked values must be distinct")
        size = 2**register.width
        if ((self.marked < 0) | (self.marked >= size)).any():
            raise StructuralError(f"phase oracle marked values must lie in [0, {size})")
        self.phase = float(phase)

    def inverse(self) -> "PhaseOracle":
        return PhaseOracle(self.register, self.marked, -self.phase)

    def __repr__(self):
        return f"PhaseOracle({self.register}, phase={self.phase})"


class Add:
    """Register arithmetic: ``target += f(*source values) mod 2**target.width``.

    ``f`` takes one int64 array per register of ``sources``, each entry's
    value on that register, and returns the int64 amounts to add; with no
    source it is called with no argument and returns a constant. On a
    one-qubit target it XORs a flag with ``f``'s low bit. The op is a
    bijection by construction, because no source shares a qubit with the
    target or with another source; its inverse adds ``-f``, so ``f`` returns
    int64, not bool. Simulated on each listed entry's register values; its
    gate-level cost is accounted in the resource model, not here.
    """

    __slots__ = ("target", "sources", "f", "name")

    def __init__(self, target: QubitRegister, sources: tuple[QubitRegister, ...], f,
                 name: str = ""):
        self.target = target
        self.sources = tuple(sources)
        qubits = [q for reg in (target, *self.sources) for q in reg.qubits]
        if len(set(qubits)) != len(qubits):
            raise StructuralError(
                f"add {name or '<anon>'} needs registers that share no qubit, got "
                f"target={target}, sources={self.sources}"
            )
        self.f = f
        self.name = name

    def inverse(self) -> "Add":
        f = self.f
        return Add(self.target, self.sources, lambda *v: -f(*v), name=f"{self.name}^-1")

    def __repr__(self):
        return f"Add({self.name}, target={self.target}, sources={self.sources})"


PrimitiveOp = Union[Ry, PhaseOracle, Add]


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
    k = reg.width
    ops: list[Ry] = []
    for t in range(k - 1, -1, -1):
        # the bits above t, which hold hi
        high = QubitRegister(reg.offset + t + 1, k - 1 - t) if t < k - 1 else None
        for hi in range(2 ** (k - 1 - t)):
            base0 = (hi << 1) << t
            base1 = ((hi << 1) | 1) << t
            m0 = float(probs[base0 : base0 + 2**t].sum())
            m1 = float(probs[base1 : base1 + 2**t].sum())
            if m0 + m1 <= 0.0:
                continue
            angle = 2.0 * math.atan2(math.sqrt(m1), math.sqrt(m0))
            ops.append(Ry(reg.qubit(t), angle, high, hi))
    return ops


class Statevector:
    """Sparse complex state over ``num_qubits`` qubits: the basis states it
    holds and their amplitudes.

    ``indices`` is an int64 array of distinct basis-state indices, in no
    particular order, and ``values`` the complex128 amplitude of each, never
    exactly 0; a basis state that is not listed has amplitude 0. Memory
    therefore scales with the support (the number of listed states), not
    with ``2**num_qubits``: a pricing circuit keeps only its Gaussian,
    exponential, payoff-target and scale qubits in superposition, so
    ``A|0>`` of the 22-qubit Table-2 circuit lists 1024 states, 580 of them
    above 1e-12 in magnitude.

    One kernel per op kind works on the listed entries only. The rotation
    :class:`Ry` pairs every entry on which its control register reads its
    value with its partner ``i ^ (1 << target)`` on the sorted union of the
    entries and their partners, reads a missing partner as 0 and updates the
    pair with the same floating-point operations in the same order as a
    dense 2x2 update, so every amplitude equals the one a dense simulation
    computes, bit for bit; entries that come out exactly 0 are dropped. When
    no matched entry has the target bit set, none has its partner listed: the
    kernel then scales each matched entry by ``cos`` and appends its partner
    at ``sin`` times its amplitude, the floats of the same update against a
    zero partner, with no union to sort. Most rotations of a pricing
    circuit's loads are of this kind. The register arithmetic :class:`Add`
    rewrites its target's bits of each index in place (it permutes basis
    states, so indices never collide), and the phase :class:`PhaseOracle`
    multiplies the entries whose value on its register is marked. A register
    is read with one shift and one mask and written back with one mask and
    one shift. :func:`probability` sums the entries on which its register
    reads its value in index order, so its float does not depend on the
    order the entries are stored in.
    """

    __slots__ = ("num_qubits", "indices", "values")

    def __init__(self, num_qubits: int, indices: np.ndarray, values: np.ndarray):
        self.num_qubits = num_qubits
        self.indices = indices
        self.values = values

    def _check_registers(self, *registers: QubitRegister):
        for reg in registers:
            if reg.offset + reg.width > self.num_qubits:
                raise StructuralError(f"{reg} outside state of {self.num_qubits} qubits")

    def apply(self, op: PrimitiveOp) -> "Statevector":
        if isinstance(op, Ry):
            control = () if op.control is None else (op.control,)
            self._check_registers(QubitRegister(op.target, 1), *control)
            self._apply_rotation(op)
        elif isinstance(op, PhaseOracle):
            self._check_registers(op.register)
            self._apply_phase(op)
        elif isinstance(op, Add):
            self._check_registers(op.target, *op.sources)
            self._apply_add(op)
        else:
            raise StructuralError(f"unknown primitive op {op!r}")
        return self

    def apply_all(self, ops: Iterable[PrimitiveOp]) -> "Statevector":
        for op in ops:
            self.apply(op)
        return self

    # -- op kernels --------------------------------------------------------

    def _apply_rotation(self, op: Ry):
        bit = 1 << op.target
        matched = _controlled(self.indices, op)
        c = math.cos(op.angle / 2.0)
        s = math.sin(op.angle / 2.0)
        partners = self.indices[matched] ^ bit
        if (partners & bit).all():
            # no matched entry has the target bit set, so none has its partner
            # listed: each pair is (c*a0, s*a0), the dense update against a
            # zero partner, with no union to sort or search
            added = self.values[matched] * s
            self.values[matched] *= c
            indices = np.concatenate((self.indices, partners))
            values = np.concatenate((self.values, added))
            keep = values != 0
            self.indices, self.values = indices[keep], values[keep]
            return
        # every matched entry plus its partner, a missing partner holding 0;
        # sorted and deduplicated here because np.union1d's hash-based unique
        # is several times slower
        indices = np.concatenate((self.indices, partners))
        del partners  # not held while the union's arrays are built
        indices.sort(kind="stable")
        first = np.ones(len(indices), dtype=bool)
        first[1:] = indices[1:] != indices[:-1]
        indices = indices[first]
        values = np.zeros(len(indices), dtype=np.complex128)
        values[np.searchsorted(indices, self.indices)] = self.values
        i0 = np.flatnonzero(_controlled(indices, op) & ((indices & bit) == 0))
        i1 = np.searchsorted(indices, indices[i0] | bit)
        v0, v1 = values[i0], values[i1]
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

    def _apply_phase(self, op: PhaseOracle):
        marked = np.isin(_gather(self.indices, op.register), op.marked)
        self.values[marked] *= complex(math.cos(op.phase), math.sin(op.phase))

    def _apply_add(self, op: Add):
        # _scatter keeps the sum's low bits: the sum mod 2**width, negative sums included
        target = _gather(self.indices, op.target)
        target += op.f(*(_gather(self.indices, reg) for reg in op.sources))
        self.indices &= ~(((1 << op.target.width) - 1) << op.target.offset)
        self.indices |= _scatter(target, op.target)


def _controlled(indices: np.ndarray, op: Ry) -> np.ndarray:
    """Boolean mask of the indices on which ``op``'s control reads its value."""
    if op.control is None:
        return np.ones(len(indices), dtype=bool)
    return _gather(indices, op.control) == op.value


def _gather(indices: np.ndarray, reg: QubitRegister) -> np.ndarray:
    """Value of each index on ``reg``: one shift and one mask."""
    out = indices >> reg.offset
    out &= (1 << reg.width) - 1
    return out


def _scatter(values: np.ndarray, reg: QubitRegister) -> np.ndarray:
    """Inverse of :func:`_gather`: each value's low ``reg.width`` bits placed
    on ``reg``, one mask and one shift; higher bits are dropped (two's
    complement for negatives)."""
    out = values & ((1 << reg.width) - 1)
    out <<= reg.offset
    return out


def allocate(num_qubits: int) -> Statevector:
    """Fresh |0...0> state: one listed entry, on 1 to :data:`MAX_QUBITS` qubits."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise StructuralError(
            f"a state has 1 to {MAX_QUBITS} qubits (int64 indices), got {num_qubits}"
        )
    return Statevector(
        num_qubits, np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.complex128)
    )


def invert(circuit: Sequence[PrimitiveOp]) -> list[PrimitiveOp]:
    """Exact inverse circuit: reversed order, each op inverted."""
    return [op.inverse() for op in reversed(circuit)]


def probability(state: Statevector, register: QubitRegister, value: int) -> float:
    """Exact probability that ``register`` reads ``value``, summed in index
    order."""
    state._check_registers(register)
    matched = np.flatnonzero(_gather(state.indices, register) == value)
    sel = state.values[matched[np.argsort(state.indices[matched])]]
    return float(np.real(np.vdot(sel, sel)))
