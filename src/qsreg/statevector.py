"""Dense statevector simulation of small gate circuits.

Amplitude indexing follows the observable convention: qubit 0 is the most
significant bit of the basis-state index.  Rotations use
R_A(theta) = exp(-i*theta*A/2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .observables import MAX_DENSE_QUBITS, PAULI_MATRICES, measurement_basis
from .regression import _check_integer

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
    """One circuit element: a fixed/rotation single-qubit gate or a CNOT.

    A rotation's ``angle`` is a float, or a length-B array that gives the
    angle at each of B circuits simulated together by :func:`apply_circuit`.
    """

    kind: str
    qubits: tuple[int, ...]
    angle: float | np.ndarray | None = None

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
    """The gate's 2x2 matrix, or a (B, 2, 2) stack for a length-B angle array."""
    if gate.kind == "H":
        return _H_MATRIX
    if gate.kind in _FIXED:
        return PAULI_MATRICES[gate.kind]
    # a non-finite angle must reach the norm check as NaN amplitudes, not as a warning
    with np.errstate(invalid="ignore"):
        half = 0.5 * np.asarray(gate.angle, dtype=float)
        c, s = np.cos(half), np.sin(half)
        if gate.kind == "RX":
            entries = (c, -1j * s, -1j * s, c)
        elif gate.kind == "RY":
            entries = (c, -s, s, c)
        elif gate.kind == "RZ":
            zero = np.zeros_like(half)
            entries = (np.exp(-1j * half), zero, zero, np.exp(1j * half))
        else:
            raise ValueError(f"not a single-qubit gate: {gate.kind}")
    return np.stack(entries, axis=-1).astype(complex).reshape(*half.shape, 2, 2)


def _apply_single(state: np.ndarray, matrix: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Apply ``matrix`` to ``qubit`` of each n-qubit state in ``state`` (shape (B, 2**n)).

    ``matrix`` is one (2, 2) matrix for every state or a (B, 2, 2) stack, one per state.
    """
    psi = state.reshape(-1, 2**qubit, 2, 2 ** (n - 1 - qubit))
    m = matrix.reshape(-1, 1, 4, 1)
    low, high = psi[:, :, 0], psi[:, :, 1]
    out = np.empty(psi.shape, dtype=complex)
    out[:, :, 0] = m[:, :, 0] * low + m[:, :, 1] * high
    out[:, :, 1] = m[:, :, 2] * low + m[:, :, 3] * high
    return out.reshape(state.shape)


def _apply_cnot(state: np.ndarray, control: int, target: int, n: int) -> np.ndarray:
    """Flip the target bit of every basis index whose control bit is set."""
    index = np.arange(2**n)
    flip = ((index >> (n - 1 - control)) & 1) << (n - 1 - target)
    return state[..., index ^ flip]


def apply_circuit(gates, num_qubits: int, batch: int) -> np.ndarray:
    """Apply ``gates`` in order to ``batch`` copies of |0...0>; shape (B, 2**num_qubits).

    The B circuits are simulated together as one (B, 2, ..., 2) state tensor.
    A rotation's angle is a float, shared by all B circuits, or a length-B
    array; an array of another length raises ``ValueError``.  Every final
    state must be finite with unit norm (within 1e-10), so a NaN or infinite
    angle in any row raises ``RuntimeError``.
    """
    if num_qubits < 1 or num_qubits > MAX_DENSE_QUBITS:
        raise ValueError(f"num_qubits must be in [1, {MAX_DENSE_QUBITS}]")
    batch = _check_integer(batch, "batch", minimum=1)
    state = np.zeros((batch, 2**num_qubits), dtype=complex)
    state[:, 0] = 1.0
    for gate in gates:
        if any(q >= num_qubits for q in gate.qubits):
            raise ValueError(f"gate {gate.kind} addresses qubit out of range: {gate.qubits}")
        if gate.angle is not None and np.ndim(gate.angle) and np.shape(gate.angle) != (batch,):
            raise ValueError(f"{gate.kind} angle must be a float or a length-{batch} array, "
                             f"got shape {np.shape(gate.angle)}")
        if gate.kind == "CNOT":
            state = _apply_cnot(state, gate.qubits[0], gate.qubits[1], num_qubits)
        else:
            state = _apply_single(state, _single_qubit_matrix(gate), gate.qubits[0], num_qubits)
    norms = np.linalg.norm(state, axis=1)
    # written so that a NaN norm fails the test too
    drifted = np.flatnonzero(~(np.abs(norms - 1.0) <= _NORM_TOLERANCE))
    if drifted.size:
        row = int(drifted[0])
        raise RuntimeError(f"state norm drifted to {norms[row]!r} in batch row {row}")
    return state


def _check_states(states: np.ndarray, num_qubits: int) -> None:
    """One batch-wide check: shape (B, 2**n), every state finite with nonzero norm."""
    if states.ndim != 2 or states.shape[1] != 2**num_qubits:
        raise ValueError(f"states have shape {states.shape}, expected (B, 2**n) with n = {num_qubits}")
    # an infinite amplitude must reach the test as a non-finite norm, not as a warning
    with np.errstate(invalid="ignore", over="ignore"):
        squared_norms = np.einsum("ij,ij->i", states.conj(), states).real
    bad = np.flatnonzero(~(np.isfinite(squared_norms) & (squared_norms > 0.0)))
    if bad.size:
        row = int(bad[0])
        raise ValueError(
            f"states must be finite with nonzero norm; batch row {row} has squared norm {squared_norms[row]!r}"
        )


def _measurement_table(states: np.ndarray, paulis) -> tuple[np.ndarray, np.ndarray]:
    """The front half of both expectations: ``(table, signs)`` for a tuple of strings.

    Checks the states and rotates them once into the strings' shared basis.
    ``table`` holds each state's |amplitude|^2 per outcome, not normalised,
    as shape (B, 2**n); ``signs`` holds each string's parity signs, shape
    (k, 2**n).
    """
    basis = measurement_basis(paulis)
    n = basis.num_qubits
    _check_states(states, n)
    rotated = states
    for qubit, label in enumerate(basis.ops):
        if label == "X":
            rotated = _apply_single(rotated, _H_MATRIX, qubit, n)
        elif label == "Y":
            rotated = _apply_single(rotated, _Y_TO_Z, qubit, n)
    # C order, so that each row's sums run in one order whatever the batch size and layout
    table = np.ascontiguousarray(rotated.real**2 + rotated.imag**2)
    return table, np.stack([pauli.parity_signs for pauli in paulis])


def exact_expectation(states: np.ndarray, paulis) -> np.ndarray:
    """<psi|P|psi> with no shot noise: P's parity signs dotted with the outcome table.

    ``states`` is a batch of shape (B, 2**n) and ``paulis`` a tuple of k
    qubit-wise-commuting ``PauliString``s; the result has shape (B, k).  The
    table is not renormalised, so any finite nonzero state works; others
    raise ``ValueError``.
    """
    table, signs = _measurement_table(states, paulis)
    # one (B, 2**n) product per string, not a (B, k, 2**n) one
    return np.stack([(table * sign).sum(axis=-1) for sign in signs], axis=-1)


def sampled_expectation(states: np.ndarray, paulis, shots: int, rngs) -> np.ndarray:
    """Empirical means of ``shots`` simulated +/-1 measurements per Pauli string.

    Shapes are as in :func:`exact_expectation`.  ``rngs`` holds one generator
    or seed per state, each passed through ``numpy.random.default_rng``, so a
    ``Generator`` is drawn from in place and its stream continues across
    calls.  Each state draws its k histograms as one ``multinomial(shots, p,
    size=k)`` from the normalised table: every string gets the full budget,
    and its value is its parity signs dotted with its counts over ``shots``
    (exactly 1.0 for an identity string).
    """
    shots = _check_integer(shots, "shots", minimum=1)
    table, signs = _measurement_table(states, paulis)
    generators = np.asarray(rngs, dtype=object)
    if generators.shape != (len(states),):
        raise ValueError(f"need one generator per state: got shape {generators.shape}, expected {(len(states),)}")
    probs = table / table.sum(axis=1, keepdims=True)
    counts = np.array([
        np.random.default_rng(rng).multinomial(shots, p, size=len(signs)) for rng, p in zip(generators, probs)
    ])
    # the signs are +/-1 and the counts integers, so the sums are exact in any order
    return (counts * signs).sum(axis=-1) / shots


def child_seed(root_seed: int, *path: int) -> np.random.SeedSequence:
    """Deterministic stream splitting: one child stream per integer path.

    The objective uses ``child_seed(seed, sample_index)``, one stream per
    sample, so that evaluation order (serial, batched, or concurrent) cannot
    change results.
    """
    if root_seed < 0 or any(p < 0 for p in path):
        raise ValueError("seeds and stream path entries must be non-negative")
    return np.random.SeedSequence((int(root_seed), *map(int, path)))
