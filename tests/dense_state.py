"""Dense amplitude arrays to and from sparse statevectors, for tests that
state expectations over all ``2**n`` basis states."""

import numpy as np

from qautocall.simulator import Statevector


def to_dense(state: Statevector) -> np.ndarray:
    """Amplitude of every basis state, 0 where the state lists none."""
    amps = np.zeros(2**state.num_qubits, dtype=np.complex128)
    amps[state.indices] = state.values
    return amps


def from_dense(num_qubits: int, amps) -> Statevector:
    """State listing the nonzero entries of ``amps``."""
    amps = np.asarray(amps, dtype=np.complex128)
    indices = np.flatnonzero(amps).astype(np.int64)
    return Statevector(num_qubits, indices, amps[indices])
