"""Dense statevector simulation of small gate circuits.

Amplitude indexing follows the observable convention: qubit 0 is the most
significant bit of the basis-state index.  Rotations use
R_A(theta) = exp(-i*theta*A/2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .observables import MAX_DENSE_QUBITS, PAULI_MATRICES, PauliString

__all__ = [
    "Gate",
    "apply_circuit",
    "exact_expectation",
    "sampled_expectation",
    "child_seed",
]

_ROTATIONS = {"RX", "RY", "RZ"}
_FIXED = {"X", "Y", "Z", "H"}

_SQRT_HALF = 1.0 / np.sqrt(2.0)
_H_MATRIX = np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]], dtype=complex)
# S^dagger then H maps a Y measurement onto a Z measurement
_Y_TO_Z = _H_MATRIX @ np.diag([1.0, -1.0j])

_NORM_TOLERANCE = 1e-10


@dataclass(frozen=True)
class Gate:
    """One circuit element: a fixed/rotation single-qubit gate or a CNOT."""

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self) -> None:
        if self.kind in _FIXED:
            if len(self.qubits) != 1 or self.angle is not None:
                raise ValueError(f"{self.kind} takes one qubit and no angle")
        elif self.kind in _ROTATIONS:
            if len(self.qubits) != 1 or self.angle is None:
                raise ValueError(f"{self.kind} takes one qubit and an angle")
        elif self.kind == "CNOT":
            if len(self.qubits) != 2 or self.angle is not None:
                raise ValueError("CNOT takes (control, target) and no angle")
            if self.qubits[0] == self.qubits[1]:
                raise ValueError("CNOT control and target must differ")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if any((not isinstance(q, int)) or q < 0 for q in self.qubits):
            raise ValueError("qubit indices must be non-negative integers")


def _single_qubit_matrix(gate: Gate) -> np.ndarray:
    if gate.kind == "H":
        return _H_MATRIX
    if gate.kind in _FIXED:
        return PAULI_MATRICES[gate.kind]
    half = 0.5 * gate.angle
    c, s = np.cos(half), np.sin(half)
    if gate.kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if gate.kind == "RY":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if gate.kind == "RZ":
        return np.array([[np.exp(-1j * half), 0], [0, np.exp(1j * half)]], dtype=complex)
    raise ValueError(f"not a single-qubit gate: {gate.kind}")


def _apply_single(state: np.ndarray, matrix: np.ndarray, qubit: int, n: int) -> np.ndarray:
    psi = state.reshape([2] * n)
    psi = np.tensordot(matrix, psi, axes=([1], [qubit]))
    psi = np.moveaxis(psi, 0, qubit)
    return psi.reshape(-1)

def _apply_cnot(state: np.ndarray, control: int, target: int, n: int) -> np.ndarray:
    psi = state.reshape([2] * n).copy()
    view = np.moveaxis(psi, (control, target), (0, 1))
    tmp = view[1, 0].copy()
    view[1, 0] = view[1, 1]
    view[1, 1] = tmp
    return psi.reshape(-1)


def apply_circuit(gates, num_qubits: int) -> np.ndarray:
    """Apply ``gates`` in order to |0...0> and return the final amplitudes.

    Norm is checked after every gate; a deviation beyond 1e-10 aborts.
    """
    if num_qubits < 1 or num_qubits > MAX_DENSE_QUBITS:
        raise ValueError(f"num_qubits must be in [1, {MAX_DENSE_QUBITS}]")
    state = np.zeros(2**num_qubits, dtype=complex)
    state[0] = 1.0
    for gate in gates:
        if any(q >= num_qubits for q in gate.qubits):
            raise ValueError(f"gate {gate.kind} addresses qubit out of range: {gate.qubits}")
        if gate.kind == "CNOT":
            state = _apply_cnot(state, gate.qubits[0], gate.qubits[1], num_qubits)
        else:
            state = _apply_single(state, _single_qubit_matrix(gate), gate.qubits[0], num_qubits)
        norm = np.linalg.norm(state)
        # written so that a NaN norm fails the test too
        if not abs(norm - 1.0) <= _NORM_TOLERANCE:
            raise RuntimeError(f"state norm drifted to {norm!r} after {gate.kind}")
    return state


def exact_expectation(state: np.ndarray, pauli: PauliString) -> float:
    """<psi|P|psi> with no shot noise; real by Hermiticity."""
    n = pauli.num_qubits
    if state.size != 2**n:
        raise ValueError("state size does not match Pauli string length")
    phi = state
    for qubit, label in enumerate(pauli.ops):
        if label == "I":
            continue
        phi = _apply_single(phi, PAULI_MATRICES[label], qubit, n)
    return float(np.vdot(state, phi).real)


def _measurement_probabilities(state: np.ndarray, pauli: PauliString) -> np.ndarray:
    """Rotate so P becomes a Z-string, then return |amplitude|^2."""
    n = pauli.num_qubits
    rotated = state
    for qubit, label in enumerate(pauli.ops):
        if label == "X":
            rotated = _apply_single(rotated, _H_MATRIX, qubit, n)
        elif label == "Y":
            rotated = _apply_single(rotated, _Y_TO_Z, qubit, n)
    probs = np.abs(rotated) ** 2
    return probs / probs.sum()


def _parity_signs(pauli: PauliString) -> np.ndarray:
    """Eigenvalue (+/-1) of the rotated Z-string for each basis state."""
    n = pauli.num_qubits
    signs = np.ones(2**n)
    indices = np.arange(2**n)
    for qubit, label in enumerate(pauli.ops):
        if label == "I":
            continue
        bit = (indices >> (n - 1 - qubit)) & 1
        signs *= 1.0 - 2.0 * bit
    return signs


def sampled_expectation(state: np.ndarray, pauli: PauliString, shots: int, rng_seed) -> float:
    """Empirical mean of ``shots`` simulated +/-1 measurements of P.

    ``rng_seed`` may be an int, a ``numpy.random.SeedSequence`` or a
    ``numpy.random.Generator``; a fixed seed gives a bit-reproducible result.
    Identity-only strings return exactly 1.0 without consuming randomness.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if pauli.is_identity:
        return 1.0
    rng = np.random.default_rng(rng_seed)
    probs = _measurement_probabilities(state, pauli)
    signs = _parity_signs(pauli)
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    draws = np.searchsorted(cdf, rng.random(shots), side="right")
    return float(np.mean(signs[draws]))


def child_seed(root_seed: int, *path: int) -> np.random.SeedSequence:
    """Deterministic stream splitting: one child stream per integer path.

    The objective uses ``child_seed(seed, point_index, term_index)`` so that
    evaluation order (serial, batched, or concurrent) cannot change results.
    """
    if root_seed < 0 or any(p < 0 for p in path):
        raise ValueError("seeds and stream path entries must be non-negative")
    return np.random.SeedSequence((int(root_seed), *map(int, path)))
