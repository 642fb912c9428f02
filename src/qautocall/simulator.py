"""Sparse statevector simulator with invertible primitive operations.

Bit-order convention used across the whole package: qubit ``q`` is bit ``q``
of the basis-state index (LSB-first), and a register occupying qubits
``offset .. offset+width-1`` stores value bit ``j`` on qubit ``offset+j``.
A :class:`Statevector` stores only the basis states it holds: their distinct
indices, in any order, and their nonzero amplitudes, so its memory scales
with the support of the state, not with ``2**n`` (see :class:`Statevector`).
Its kernels compute the same amplitudes as a dense simulation, bit for bit.

Circuits are lists of four invertible primitive op kinds: :class:`Ry` and
:class:`X` (optionally controlled), :class:`PhaseOracle` and the register
arithmetic :class:`Add`. Amplitude loading is not a primitive:
:func:`injection_ops` expands it into ``Ry`` rotations when the circuit is
built. No op checks the state it is applied to: a circuit is a list of ops
built ahead of time and run only on a fresh :func:`allocate` state with
:meth:`Statevector.apply_all`. No op stores anything of size ``2**n``: a
:class:`PhaseOracle` lists the values it marks and an :class:`Add` computes
its sums on the listed entries, so every kernel's memory follows the state's
support and nothing here limits the qubit count below the 62 that int64
indices hold. How much a circuit may store is decided where it is built
(:func:`~.circuit.build_pricing_circuit`), from the support it can reach.

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


def _check_controls(controls: Iterable[tuple[int, int]], target: int):
    """Control terms, checked as a :class:`Condition`'s, that leave out ``target``."""
    terms = Condition(tuple(controls)).terms
    if any(q == target for q, _ in terms):
        raise StructuralError(f"qubit {target} used as both control and target")
    return terms


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
    ``qubits`` (LSB-first) is one of the ``marked`` values.

    Carries the reflections needed by Grover operators and by exact amplitude
    amplification; with ``phase=pi`` and the single marked value ``(v,)`` it is
    the ordinary multi-controlled Z. ``marked`` lists distinct values in
    ``[0, 2**len(qubits))``, so the oracle's size does not grow with its width.
    """

    __slots__ = ("qubits", "marked", "phase")

    def __init__(self, qubits: Sequence[int], marked: Iterable[int], phase: float):
        self.qubits = tuple(int(q) for q in qubits)
        if len(set(self.qubits)) != len(self.qubits):
            raise StructuralError("phase oracle qubits must be distinct")
        self.marked = np.array(list(marked), dtype=np.int64)
        if len(np.unique(self.marked)) != len(self.marked):
            raise StructuralError("phase oracle marked values must be distinct")
        size = 2 ** len(self.qubits)
        if ((self.marked < 0) | (self.marked >= size)).any():
            raise StructuralError(f"phase oracle marked values must lie in [0, {size})")
        self.phase = float(phase)

    def inverse_ops(self) -> list["PrimitiveOp"]:
        return [PhaseOracle(self.qubits, self.marked, -self.phase)]

    def __repr__(self):
        return f"PhaseOracle(qubits={self.qubits}, phase={self.phase})"


class Add:
    """Register arithmetic: ``target += f(value on source) mod 2**len(target)``.

    ``f`` maps an int64 array of source values (LSB-first over ``source``) to
    the int64 amounts to add; with no source it sees zeros and adds a
    constant. On a one-qubit target it XORs a flag with ``f``'s low bit. The
    op is a bijection by construction, because the target is not empty and
    shares no qubit with the source; its inverse adds ``-f``, so ``f`` returns
    int64, not bool. Simulated on each listed entry's register values; its
    gate-level cost is accounted in the resource model, not here.
    """

    __slots__ = ("target", "source", "f", "name")

    def __init__(self, target: Sequence[int], source: Sequence[int], f, name: str = ""):
        self.target = tuple(int(q) for q in target)
        self.source = tuple(int(q) for q in source)
        qubits = self.target + self.source
        if not self.target or len(set(qubits)) != len(qubits):
            raise StructuralError(
                f"add {name or '<anon>'} needs a non-empty target disjoint from its "
                f"source, got target={self.target}, source={self.source}"
            )
        self.f = f
        self.name = name

    def inverse_ops(self) -> list["PrimitiveOp"]:
        f = self.f
        return [Add(self.target, self.source, lambda v: -f(v), name=f"{self.name}^-1")]

    def __repr__(self):
        return f"Add({self.name}, target={self.target}, source={self.source})"


PrimitiveOp = Union[Ry, X, PhaseOracle, Add]


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

    ``indices`` is an int64 array of distinct basis-state indices, in no
    particular order, and ``values`` the complex128 amplitude of each, never
    exactly 0; a basis state that is not listed has amplitude 0. Memory
    therefore scales with the support (the number of listed states), not
    with ``2**num_qubits``: a pricing circuit keeps only its Gaussian,
    exponential, payoff-target and scale qubits in superposition, so
    ``A|0>`` of the 22-qubit Table-2 circuit lists 1018 states, 580 of them
    above 1e-12 in magnitude.

    Each kernel works on the listed entries only. :class:`Ry` pairs every
    entry whose controls match with its partner ``i ^ (1 << target)`` on the
    sorted union of the entries and their partners, reads a missing partner
    as 0 and updates the pair with the same floating-point operations in the
    same order as a dense 2x2 update, so every amplitude equals the one a
    dense simulation computes, bit for bit; entries that come out exactly 0
    are dropped. :class:`X` and :class:`Add` rewrite the op's bits of each
    index in place (they permute basis states, so indices never collide),
    and :class:`PhaseOracle` multiplies the entries whose value on its
    qubits is marked. The op's bits are read and written one run of
    consecutive qubits (a register) at a time. :func:`probability` sums its
    matching entries in index order, so its float does not depend on the
    order the entries are stored in.
    """

    __slots__ = ("num_qubits", "indices", "values")

    def __init__(self, num_qubits: int, indices: np.ndarray, values: np.ndarray):
        self.num_qubits = num_qubits
        self.indices = indices
        self.values = values

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
        elif isinstance(op, Add):
            self._check_bounds(op.target + op.source)
            self._apply_add(op)
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
        # every matched entry plus its partner, a missing partner holding 0;
        # sorted and deduplicated here because np.union1d's hash-based unique
        # is several times slower
        indices = np.concatenate((self.indices, self.indices[matched] ^ bit))
        indices.sort(kind="stable")
        first = np.ones(len(indices), dtype=bool)
        first[1:] = indices[1:] != indices[:-1]
        indices = indices[first]
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
        self.indices[_matches(self.indices, controls)] ^= 1 << target

    def _apply_phase(self, op: PhaseOracle):
        marked = np.isin(_gather(self.indices, op.qubits), op.marked)
        self.values[marked] *= complex(math.cos(op.phase), math.sin(op.phase))

    def _apply_add(self, op: Add):
        # _scatter keeps the sum's low bits: the sum mod 2**m, negative sums included
        target = _gather(self.indices, op.target)
        target += op.f(_gather(self.indices, op.source))
        mask = sum(1 << q for q in op.target)
        self.indices = (self.indices & ~mask) | _scatter(target, op.target)


def _matches(indices: np.ndarray, terms: Iterable[tuple[int, int]]) -> np.ndarray:
    """Boolean mask of the indices whose bit ``q`` is ``b`` for every term."""
    mask = value = 0
    for q, b in terms:
        mask |= 1 << q
        value |= b << q
    return (indices & mask) == value


def _runs(qubits: Sequence[int]) -> list[tuple[int, int, int]]:
    """``(first qubit, first value bit, length)`` of each run of consecutive
    qubits in ``qubits``."""
    runs = []
    for j, q in enumerate(qubits):
        if j and q == qubits[j - 1] + 1:
            q0, j0, n = runs[-1]
            runs[-1] = (q0, j0, n + 1)
        else:
            runs.append((q, j, 1))
    return runs


def _gather(indices: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
    """Value of each index on ``qubits``, LSB first; 0 for no qubits.

    One shift and mask per run of consecutive qubits (a register), not per
    qubit."""
    out = np.zeros_like(indices)
    for q, j, n in _runs(qubits):
        part = indices >> q
        part &= (1 << n) - 1
        if j:
            part <<= j
        out |= part
    return out


def _scatter(values: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
    """Inverse of :func:`_gather`: each value's bits placed on ``qubits``;
    bits above ``len(qubits)`` are dropped (two's complement for negatives)."""
    out = np.zeros_like(values)
    for q, j, n in _runs(qubits):
        part = values >> j
        part &= (1 << n) - 1
        if q:
            part <<= q
        out |= part
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
    return [inv for op in reversed(circuit) for inv in op.inverse_ops()]


def probability(state: Statevector, cond: Condition) -> float:
    """Exact probability mass of basis states satisfying ``cond``, summed in
    index order."""
    state._check_bounds(q for q, _ in cond.terms)
    matched = np.flatnonzero(_matches(state.indices, cond.terms))
    sel = state.values[matched[np.argsort(state.indices[matched])]]
    return float(np.real(np.vdot(sel, sel)))
