"""Dense statevector simulation of small gate circuits.

Amplitude indexing follows the observable convention: qubit 0 is the most
significant bit of the basis-state index.  Rotations use
R_A(theta) = exp(-i*theta*A/2).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .observables import MAX_DENSE_QUBITS, PAULI_MATRICES, MeasurementPlan, measurement_plan
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
_FIXED_MATRICES = {"H": _H_MATRIX, **{kind: PAULI_MATRICES[kind] for kind in "XYZ"}}
# the change of basis onto Z of a qubit measured in X (H) or in Y (S^dagger, then H)
_TO_Z_KINDS = {"X": "H", "Y": "SdgH"}
_KERNEL_MATRICES = {**_FIXED_MATRICES, "SdgH": _H_MATRIX @ np.diag([1, -1j])}

# kind -> (number of qubits, whether it takes an angle, the message when a gate breaks either)
_GATE_RULES = {
    **{kind: (1, False, f"{kind} takes one qubit and no angle") for kind in _FIXED_MATRICES},
    **{kind: (1, True, f"{kind} takes one qubit and an angle") for kind in _ROTATIONS},
    "CNOT": (2, False, "CNOT takes (control, target) and no angle"),
}

_NORM_TOLERANCE = 1e-10
_BIT_SIGNS = np.array([1.0, -1.0])  # 1 - 2*b for a qubit's bit b


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
        rule = _GATE_RULES.get(self.kind)
        if rule is None:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity, takes_angle, message = rule
        if len(self.qubits) != arity or (self.angle is not None) != takes_angle:
            raise ValueError(message)
        if arity == 2 and self.qubits[0] == self.qubits[1]:
            raise ValueError("CNOT control and target must differ")
        for q in self.qubits:
            # not isinstance(q, int): a boolean is an int too
            if type(q) is not int or q < 0:
                raise ValueError("qubit indices must be non-negative integers")


@lru_cache(maxsize=64)
def _flip_index(qubit: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(flip, bit)``: each basis index with ``qubit``'s bit flipped, and that bit."""
    index = np.arange(2**n)
    flip, bit = index ^ (1 << (n - 1 - qubit)), (index >> (n - 1 - qubit)) & 1
    flip.flags.writeable = bit.flags.writeable = False
    return flip, bit


def _kernel(state: np.ndarray, flip: np.ndarray, diag, off, out=None) -> np.ndarray:
    """``diag * state + off * state[..., flip]``, written into ``out`` if given, which may be ``state`` itself."""
    # coefficients first: with its factors swapped, a complex product may round apart
    flipped = state.take(flip, axis=-1)
    out = np.multiply(diag, state, out)
    out += np.multiply(off, flipped, flipped)
    return out


@lru_cache(maxsize=64)
def _fixed_kernel(kind: str, qubit: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(flip, diag, off)`` of a fixed matrix M on ``qubit``: M[b, b] and M[b, 1 - b] where its bit is b."""
    flip, bit = _flip_index(qubit, n)
    diag, off = _KERNEL_MATRICES[kind][bit, bit], _KERNEL_MATRICES[kind][bit, 1 - bit]
    diag.flags.writeable = off.flags.writeable = False
    return flip, diag, off


@lru_cache(maxsize=64)
def _cnot_permutation(control: int, target: int, n: int) -> np.ndarray:
    """Basis indices with the target bit flipped wherever the control bit is set."""
    index = np.arange(2**n)
    permutation = index ^ (((index >> (n - 1 - control)) & 1) << (n - 1 - target))
    permutation.flags.writeable = False
    return permutation


def apply_circuit(gates, num_qubits: int, batch: int) -> np.ndarray:
    """Apply ``gates`` in order to ``batch`` copies of |0...0>; shape (B, 2**num_qubits).

    The B circuits are simulated together, a single-qubit gate as one kernel
    ``diag * state + off * state[:, flip]``.  A rotation's angle is a float,
    shared by all B circuits, or a length-B array; others raise ``ValueError``.
    Every final state must be finite with unit norm (within 1e-10), so a NaN
    or infinite angle in any row raises ``RuntimeError``.
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
            if gate.kind == "CNOT":
                state = state.take(_cnot_permutation(*gate.qubits, num_qubits), axis=1)
            elif gate.kind in _ROTATIONS:
                angle = np.asarray(gate.angle, dtype=float)
                if angle.ndim and angle.shape != (batch,):
                    raise ValueError(f"{gate.kind} angle must be a float or a length-{batch} array, "
                                     f"got shape {angle.shape}")
                flip, bit = _flip_index(gate.qubits[0], num_qubits)
                half = 0.5 * angle.reshape(-1, 1)  # (1, 1) for a float angle, (B, 1) for a length-B one
                if gate.kind == "RZ":
                    # exp(-i*sign*theta/2) for each value of the bit, then spread over the basis
                    state = np.multiply(np.exp(-1j * (_BIT_SIGNS * half)).take(bit, axis=1), state, state)
                elif gate.kind == "RX":
                    state = _kernel(state, flip, np.cos(half), -1j * np.sin(half), state)
                else:
                    # RY's off-diagonal entry is -s where the bit is 0 and s where it is 1
                    state = _kernel(state, flip, np.cos(half), (-np.sin(half) * _BIT_SIGNS).take(bit, axis=1), state)
            else:
                state = _kernel(state, *_fixed_kernel(gate.kind, gate.qubits[0], num_qubits), state)
    norms = np.linalg.norm(state, axis=1)
    # written so that a NaN norm fails the test too
    within = np.abs(norms - 1.0) <= _NORM_TOLERANCE
    if not within.all():
        row = int(np.argmin(within))
        raise RuntimeError(f"state norm drifted to {norms[row]!r} in batch row {row}")
    return state


def _measurement_passes(states: np.ndarray, paulis):
    """Check the batch's shape; return k and an iterator of ``(table, totals, signs, columns)``, one per group.

    ``paulis`` is a :class:`MeasurementPlan` or a tuple of strings to plan.
    A pass rotates the batch into its group's basis with flip-index kernels:
    ``table`` is |amplitude|^2, (B, 2**n), not normalised, and ``totals`` its
    row sums; the first row whose sum is not finite and positive raises
    ``ValueError``.
    """
    plan = paulis if isinstance(paulis, MeasurementPlan) else measurement_plan(paulis)
    n = plan.num_qubits
    if states.ndim != 2 or states.shape[1] != 2**n:
        raise ValueError(f"states have shape {states.shape}, expected (B, 2**n) with n = {n}")

    def passes():
        for basis, columns in plan.groups:
            # an infinite amplitude must reach the check as a non-finite total, not as a warning
            with np.errstate(invalid="ignore", over="ignore"):
                rotated = states
                for qubit, label in enumerate(basis):
                    if label in _TO_Z_KINDS:
                        kernel = _fixed_kernel(_TO_Z_KINDS[label], qubit, n)
                        rotated = _kernel(rotated, *kernel, None if rotated is states else rotated)
                # C order, so that each row's sums run in one order whatever the batch size and layout
                table = np.ascontiguousarray(rotated.real**2 + rotated.imag**2)
                totals = table.sum(axis=1)
            # min and max propagate NaN, so this passes only finite positive totals
            if not (totals.min() > 0.0 and totals.max() < np.inf):
                row = int(np.argmin(np.isfinite(totals) & (totals > 0.0)))
                # the message quotes the state's own squared norm, which a rotation may turn from inf to NaN
                norm = np.einsum("j,j->", states[row].conj(), states[row]).real
                raise ValueError(f"states must be finite with nonzero norm; batch row {row} has squared norm {norm!r}")
            yield table, totals, plan.signs.take(columns, axis=0), columns
    return len(plan.signs), passes()


def exact_expectation(states: np.ndarray, paulis) -> np.ndarray:
    """<psi|P|psi> with no shot noise: P's parity signs dotted with its group's outcome table.

    ``states`` is a batch of shape (B, 2**n) and ``paulis`` a tuple of k
    n-qubit ``PauliString``s or their :class:`MeasurementPlan`, measured in
    one call; the result, (B, k), follows the strings.  The table is not
    renormalised, so any finite nonzero state works; others raise ``ValueError``.
    """
    k, passes = _measurement_passes(states, paulis)
    values = np.empty((len(states), k))
    for table, _, signs, columns in passes:
        # one (B, 2**n) product per string, not a (B, k_g, 2**n) one
        for column, sign in zip(columns, signs):
            values[:, column] = (table * sign).sum(axis=-1)
    return values


def sampled_expectation(states: np.ndarray, paulis, shots: int, rngs) -> np.ndarray:
    """Empirical means of ``shots`` simulated +/-1 measurements per Pauli string.

    Shapes and groups are as in :func:`exact_expectation`.  ``rngs`` holds
    one generator or seed per state, passed through ``default_rng``, so a
    ``Generator``'s stream continues across calls.  Each state draws one
    ``multinomial(shots, p, size=k_g)`` per group, in group order, from the
    group's normalised table row; a string's value is its parity signs dotted
    with its counts over ``shots`` (exactly 1.0 for the identity).
    """
    shots = _check_integer(shots, "shots", minimum=1)
    k, passes = _measurement_passes(states, paulis)
    generators = np.asarray(rngs, dtype=object)
    if generators.shape != (len(states),):
        raise ValueError(f"need one generator per state: got shape {generators.shape}, expected {(len(states),)}")
    generators = list(map(np.random.default_rng, generators))
    values = np.empty((len(states), k))
    for table, totals, signs, columns in passes:
        probs = table / totals[:, None]
        counts = np.array([rng.multinomial(shots, p, size=len(signs)) for rng, p in zip(generators, probs)])
        # the signs are +/-1 and the counts integers, so the sums are exact in any order
        values[:, columns] = (counts * signs).sum(axis=-1) / shots
    return values


def child_seed(root_seed: int, *path: int) -> np.random.SeedSequence:
    """Deterministic stream splitting: one child stream per path of integers >= 0.

    The objective uses ``child_seed(seed, sample_index)``, one stream per
    sample, so that evaluation order (serial, batched, or concurrent) cannot
    change results.
    """
    entries = (_check_integer(value, "child_seed entries", minimum=0) for value in (root_seed, *path))
    return np.random.SeedSequence(tuple(entries))
