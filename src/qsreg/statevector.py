"""Dense statevector simulation of small gate circuits.

Amplitude indexing follows the observable convention: qubit 0 is the most
significant bit of the basis-state index.  Rotations use
R_A(theta) = exp(-i*theta*A/2).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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

_SQRT_HALF = 1.0 / np.sqrt(2.0)
_H_MATRIX = np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]], dtype=complex)
# S^dagger then H maps a Y measurement onto a Z measurement
_Y_TO_Z = _H_MATRIX @ np.diag([1.0, -1.0j])


def _entries(matrix: np.ndarray) -> tuple[np.ndarray, ...]:
    """A 2x2 matrix as :func:`_apply_single` takes it: entries (m00, m01, m10, m11), each (1, 1, 1)."""
    return tuple(matrix.reshape(4, 1, 1, 1))


_FIXED_ENTRIES = {"H": _entries(_H_MATRIX), **{kind: _entries(PAULI_MATRICES[kind]) for kind in "XYZ"}}
# the rotation onto Z for each non-Z label of a measurement basis
_TO_Z_ENTRIES = {"X": _FIXED_ENTRIES["H"], "Y": _entries(_Y_TO_Z)}

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
        if self.kind in _FIXED_ENTRIES:
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
        # not isinstance(q, int): a boolean is an int too
        if any(type(q) is not int or q < 0 for q in self.qubits):
            raise ValueError("qubit indices must be non-negative integers")


def _rotation_entries(kind: str, angle) -> tuple[np.ndarray, ...]:
    """A rotation's four entries: (1, 1, 1) arrays for a float angle, (B, 1, 1) arrays for a length-B one."""
    half = 0.5 * np.asarray(angle, dtype=float)
    c, s = np.cos(half), np.sin(half)
    if kind == "RX":
        entries = (c, -1j * s, -1j * s, c)
    elif kind == "RY":
        entries = (c, -s, s, c)
    else:
        zero = np.zeros_like(half)
        entries = (np.exp(-1j * half), zero, zero, np.exp(1j * half))
    return tuple(np.array(entries, dtype=complex).reshape(4, -1, 1, 1))


def _apply_single(state: np.ndarray, entries: tuple, qubit: int, n: int) -> np.ndarray:
    """Apply the 2x2 matrix ``entries`` to ``qubit`` of each n-qubit state in ``state`` (shape (B, 2**n)).

    Each entry is a (1, 1, 1) array shared by every state or a (B, 1, 1) array, one per state.
    """
    a, b, c, d = entries
    psi = state.reshape(-1, 2**qubit, 2, 2 ** (n - 1 - qubit))
    low, high = psi[:, :, 0], psi[:, :, 1]
    out = np.empty_like(psi)
    np.add(a * low, b * high, out=out[:, :, 0])
    np.add(c * low, d * high, out=out[:, :, 1])
    return out.reshape(state.shape)


@lru_cache(maxsize=64)
def _cnot_permutation(control: int, target: int, n: int) -> np.ndarray:
    """Basis indices with the target bit flipped wherever the control bit is set."""
    index = np.arange(2**n)
    permutation = index ^ (((index >> (n - 1 - control)) & 1) << (n - 1 - target))
    permutation.flags.writeable = False
    return permutation


def apply_circuit(gates, num_qubits: int, batch: int) -> np.ndarray:
    """Apply ``gates`` in order to ``batch`` copies of |0...0>; shape (B, 2**num_qubits).

    The B circuits are simulated together as one (B, 2, ..., 2) state tensor.
    A rotation's angle is a float, shared by all B circuits, or a length-B
    array; an array of another length raises ``ValueError``.  Every final
    state must be finite with unit norm (within 1e-10), so a NaN or infinite
    angle in any row raises ``RuntimeError``.
    """
    num_qubits = _check_integer(num_qubits, "num_qubits", minimum=1)
    if num_qubits > MAX_DENSE_QUBITS:
        raise ValueError(f"num_qubits must be in [1, {MAX_DENSE_QUBITS}]")
    batch = _check_integer(batch, "batch", minimum=1)
    state = np.zeros((batch, 2**num_qubits), dtype=complex)
    state[:, 0] = 1.0
    # a non-finite angle must reach the norm check as NaN amplitudes, not as a warning
    with np.errstate(invalid="ignore"):
        for gate in gates:
            if max(gate.qubits) >= num_qubits:
                raise ValueError(f"gate {gate.kind} addresses qubit out of range: {gate.qubits}")
            if gate.angle is not None and np.ndim(gate.angle) and np.shape(gate.angle) != (batch,):
                raise ValueError(f"{gate.kind} angle must be a float or a length-{batch} array, "
                                 f"got shape {np.shape(gate.angle)}")
            if gate.kind == "CNOT":
                state = state[:, _cnot_permutation(*gate.qubits, num_qubits)]
            elif gate.kind in _ROTATIONS:
                state = _apply_single(state, _rotation_entries(gate.kind, gate.angle), gate.qubits[0], num_qubits)
            else:
                state = _apply_single(state, _FIXED_ENTRIES[gate.kind], gate.qubits[0], num_qubits)
    norms = np.linalg.norm(state, axis=1)
    # written so that a NaN norm fails the test too
    within = np.abs(norms - 1.0) <= _NORM_TOLERANCE
    if not within.all():
        row = int(np.argmin(within))
        raise RuntimeError(f"state norm drifted to {norms[row]!r} in batch row {row}")
    return state


@lru_cache(maxsize=64)
def _measurement_plan(labels: tuple[str, ...]) -> tuple[int, tuple, np.ndarray]:
    """What measuring a tuple of strings needs, built once per tuple: ``(n, rotations, signs)``.

    ``labels`` holds the strings' ``ops``.  ``rotations`` holds ``(qubit,
    entries)`` for each qubit that the strings' shared basis measures in X or
    Y, and ``signs`` each string's parity signs, shape (k, 2**n).  The cache
    is bounded, so a run that builds a new observable per operation does not
    grow it, and keyed by labels, so it keeps no caller's objects alive.
    """
    paulis = tuple(map(PauliString, labels))
    basis = measurement_basis(paulis)
    rotations = tuple(
        (qubit, _TO_Z_ENTRIES[label]) for qubit, label in enumerate(basis.ops) if label in _TO_Z_ENTRIES
    )
    signs = np.stack([pauli.parity_signs for pauli in paulis])
    signs.flags.writeable = False
    return basis.num_qubits, rotations, signs


def _measurement_table(states: np.ndarray, paulis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The front half of both expectations: ``(table, totals, signs)`` for a tuple of strings.

    Rotates the states once into the strings' shared basis.  ``table`` holds
    each state's |amplitude|^2 per outcome, not normalised, as shape
    (B, 2**n); ``totals`` its row sums, the squared norms; ``signs`` each
    string's parity signs, shape (k, 2**n).  A batch of another shape raises
    ``ValueError``, and so does a state that is not finite or has zero norm,
    which the totals show.
    """
    n, rotations, signs = _measurement_plan(tuple(pauli.ops for pauli in paulis))
    if states.ndim != 2 or states.shape[1] != 2**n:
        raise ValueError(f"states have shape {states.shape}, expected (B, 2**n) with n = {n}")
    # an infinite amplitude must reach the check as a non-finite total, not as a warning
    with np.errstate(invalid="ignore", over="ignore"):
        rotated = states
        for qubit, entries in rotations:
            rotated = _apply_single(rotated, entries, qubit, n)
        # C order, so that each row's sums run in one order whatever the batch size and layout
        table = np.ascontiguousarray(rotated.real**2 + rotated.imag**2)
        totals = table.sum(axis=1)
        valid = np.isfinite(totals) & (totals > 0.0)
        if not valid.all():
            row = int(np.argmin(valid))
            # the message quotes the state's own squared norm, which a rotation may turn from inf to NaN
            squared_norm = np.einsum("j,j->", states[row].conj(), states[row]).real
            raise ValueError(
                f"states must be finite with nonzero norm; batch row {row} has squared norm {squared_norm!r}"
            )
    return table, totals, signs


def exact_expectation(states: np.ndarray, paulis) -> np.ndarray:
    """<psi|P|psi> with no shot noise: P's parity signs dotted with the outcome table.

    ``states`` is a batch of shape (B, 2**n) and ``paulis`` a tuple of k
    qubit-wise-commuting ``PauliString``s; the result has shape (B, k).  The
    table is not renormalised, so any finite nonzero state works; others
    raise ``ValueError``.
    """
    table, _, signs = _measurement_table(states, paulis)
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
    table, totals, signs = _measurement_table(states, paulis)
    generators = np.asarray(rngs, dtype=object)
    if generators.shape != (len(states),):
        raise ValueError(f"need one generator per state: got shape {generators.shape}, expected {(len(states),)}")
    probs = table / totals[:, None]
    counts = np.array([
        np.random.default_rng(rng).multinomial(shots, p, size=len(signs)) for rng, p in zip(generators, probs)
    ])
    # the signs are +/-1 and the counts integers, so the sums are exact in any order
    return (counts * signs).sum(axis=-1) / shots


def child_seed(root_seed: int, *path: int) -> np.random.SeedSequence:
    """Deterministic stream splitting: one child stream per path of integers >= 0.

    The objective uses ``child_seed(seed, sample_index)``, one stream per
    sample, so that evaluation order (serial, batched, or concurrent) cannot
    change results.
    """
    entries = (_check_integer(value, "child_seed entries", minimum=0) for value in (root_seed, *path))
    return np.random.SeedSequence(tuple(entries))
