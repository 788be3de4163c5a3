"""Dense statevector simulation of small gate circuits.

Amplitude indexing follows the observable convention: qubit 0 is the most
significant bit of the basis-state index.  Rotations use
R_A(theta) = exp(-i*theta*A/2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .observables import MAX_DENSE_QUBITS, PAULI_MATRICES, PauliString, measurement_basis
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
    """Apply ``matrix`` to ``qubit`` of each n-qubit state in ``state`` (shape (2**n,) or (B, 2**n)).

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


def _batch_size(gates) -> int | None:
    """The common length of the rotation-angle arrays, or None when every angle is a float."""
    sizes = set()
    for gate in gates:
        if gate.angle is not None:
            angle = np.asarray(gate.angle)
            if angle.ndim > 1:
                raise ValueError(f"{gate.kind} angle must be a float or a 1-D array, got shape {angle.shape}")
            if angle.ndim == 1:
                sizes.add(angle.size)
    if len(sizes) > 1:
        raise ValueError(f"rotation angle arrays differ in length: {sorted(sizes)}")
    return sizes.pop() if sizes else None


def apply_circuit(gates, num_qubits: int) -> np.ndarray:
    """Apply ``gates`` in order to |0...0> and return the final amplitudes.

    With float angles the result has shape (2**num_qubits,).  Rotations may
    instead carry length-B angle arrays (float angles are then shared by all
    B circuits): the B circuits are simulated together as one
    (B, 2, ..., 2) state tensor and the result has shape (B, 2**num_qubits).
    Every final state must be finite with unit norm (within 1e-10), so a NaN
    or infinite angle in any row raises ``RuntimeError``.
    """
    if num_qubits < 1 or num_qubits > MAX_DENSE_QUBITS:
        raise ValueError(f"num_qubits must be in [1, {MAX_DENSE_QUBITS}]")
    batch = _batch_size(gates)
    state = np.zeros((1 if batch is None else batch, 2**num_qubits), dtype=complex)
    state[:, 0] = 1.0
    for gate in gates:
        if any(q >= num_qubits for q in gate.qubits):
            raise ValueError(f"gate {gate.kind} addresses qubit out of range: {gate.qubits}")
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
    return state[0] if batch is None else state


def _check_states(state: np.ndarray, num_qubits: int) -> None:
    """One batch-wide check: shape (2**n,) or (B, 2**n), every state finite with nonzero norm."""
    if state.ndim not in (1, 2) or state.shape[-1] != 2**num_qubits:
        raise ValueError(
            f"states have shape {state.shape}, expected (2**n,) or (B, 2**n) with n = {num_qubits}"
        )
    flat = state.reshape(-1, state.shape[-1])
    # an infinite amplitude must reach the test as a non-finite norm, not as a warning
    with np.errstate(invalid="ignore", over="ignore"):
        squared_norms = np.einsum("ij,ij->i", flat.conj(), flat).real
    bad = np.flatnonzero(~(np.isfinite(squared_norms) & (squared_norms > 0.0)))
    if bad.size:
        row = int(bad[0])
        raise ValueError(
            f"states must be finite with nonzero norm; batch row {row} has squared norm {squared_norms[row]!r}"
        )


def exact_expectation(state: np.ndarray, pauli: PauliString):
    """<psi|P|psi> with no shot noise; real by Hermiticity.

    ``state`` is one state of shape (2**n,), which gives a float, or a batch
    of shape (B, 2**n), which gives a length-B array.  A non-finite or
    zero-norm state raises ``ValueError``.
    """
    _check_states(state, pauli.num_qubits)
    n = pauli.num_qubits
    phi = state
    for qubit, label in enumerate(pauli.ops):
        if label == "I":
            continue
        phi = _apply_single(phi, PAULI_MATRICES[label], qubit, n)
    values = np.einsum("...i,...i->...", state.conj(), phi).real
    return float(values) if state.ndim == 1 else values


def _measurement_probabilities(states: np.ndarray, basis: PauliString) -> np.ndarray:
    """Rotate each qubit of ``basis`` onto Z, then return |amplitude|^2 per state, normalised."""
    n = basis.num_qubits
    rotated = states
    for qubit, label in enumerate(basis.ops):
        if label == "X":
            rotated = _apply_single(rotated, _H_MATRIX, qubit, n)
        elif label == "Y":
            rotated = _apply_single(rotated, _Y_TO_Z, qubit, n)
    probs = np.abs(rotated) ** 2
    return probs / probs.sum(axis=-1, keepdims=True)


def sampled_expectation(state: np.ndarray, paulis, shots: int, rng_seed):
    """Empirical means of ``shots`` simulated +/-1 measurements per Pauli string.

    ``paulis`` is one ``PauliString``, or a tuple of k strings that commute
    qubit-wise and so share one measurement basis.  ``state`` is one state
    of shape (2**n,) or a batch of shape (B, 2**n).  ``rng_seed`` holds one
    seed per (state, string) pair: a single seed for one state and one
    string, shape (B,) for a batch and one string, shape (k,) or (B, k) for
    a tuple.  The result has the seeds' shape (a float for a single seed).
    A seed may be an int, a ``numpy.random.SeedSequence`` or a
    ``numpy.random.Generator``; a fixed seed gives a bit-reproducible result.

    Each state is rotated into the shared basis once.  Each (state, string)
    pair then draws its outcome histogram as one
    ``default_rng(seed).multinomial(shots, probabilities)`` with the full
    ``shots`` budget, and its value is the string's parity signs dotted with
    the counts over ``shots``.  Identity strings give exactly 1.0.
    """
    shots = _check_integer(shots, "shots", minimum=1)
    grouped = not isinstance(paulis, PauliString)
    strings = tuple(paulis) if grouped else (paulis,)
    basis = measurement_basis(strings)
    _check_states(state, basis.num_qubits)
    seeds = np.asarray(rng_seed, dtype=object)
    expected = state.shape[:-1] + ((len(strings),) if grouped else ())
    if seeds.shape != expected:
        raise ValueError(f"need one seed per state and string: seeds have shape {seeds.shape}, expected {expected}")
    probs = _measurement_probabilities(state.reshape(-1, state.shape[-1]), basis)
    counts = np.array([
        [np.random.default_rng(seed).multinomial(shots, row_probs) for seed in row_seeds]
        for row_probs, row_seeds in zip(probs, seeds.reshape(probs.shape[0], len(strings)))
    ])
    signs = np.stack([pauli.parity_signs for pauli in strings])
    # the signs are +/-1 and the counts integers, so the sums are exact in any order
    values = np.einsum("bkd,kd->bk", counts, signs) / shots
    return float(values[0, 0]) if not expected else values.reshape(expected)


def child_seed(root_seed: int, *path: int) -> np.random.SeedSequence:
    """Deterministic stream splitting: one child stream per integer path.

    The objective uses ``child_seed(seed, point_index, term_index)`` so that
    evaluation order (serial, batched, or concurrent) cannot change results.
    """
    if root_seed < 0 or any(p < 0 for p in path):
        raise ValueError("seeds and stream path entries must be non-negative")
    return np.random.SeedSequence((int(root_seed), *map(int, path)))
