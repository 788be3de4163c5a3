"""Weighted Pauli-string observables with dense-matrix diagnostics.

Pauli strings are written over the alphabet ``IXYZ`` with qubit 0 as the
*leftmost* character.  Qubit 0 is likewise the most significant bit of a
basis-state index, so ``"ZI"`` acts on the high bit of a two-qubit register.
This byte order is normative for the Hamiltonian JSON files shipped with the
package.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .regression import _check_integer, _check_real, _json_object

__all__ = [
    "ObservableError",
    "PauliString",
    "ObservableSum",
    "Spectrum",
    "parse_observable",
    "exact_spectrum",
    "qubit_wise_groups",
    "Measurement",
    "MeasurementPlan",
    "measurement_plan",
    "MERGE_PRUNE_TOLERANCE",
    "MAX_DENSE_QUBITS",
]

PAULI_LABELS = "IXYZ"

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

# weights below this magnitude are dropped after merging duplicate strings
MERGE_PRUNE_TOLERANCE = 1e-14

# largest system for which the dense 2^N x 2^N oracle is considered feasible
MAX_DENSE_QUBITS = 12

_HERMITICITY_TOLERANCE = 1e-12


class ObservableError(ValueError):
    """Raised for malformed Pauli strings, weights, or Hamiltonian documents."""


@dataclass(frozen=True)
class PauliString:
    """A single tensor product of single-qubit Pauli operators, e.g. ``"XXI"``."""

    ops: str

    def __post_init__(self) -> None:
        if not isinstance(self.ops, str) or len(self.ops) < 1:
            raise ObservableError("Pauli string must be a non-empty string")
        bad = set(self.ops) - set(PAULI_LABELS)
        if bad:
            raise ObservableError(f"invalid Pauli labels {sorted(bad)} in {self.ops!r}")

    @property
    def num_qubits(self) -> int:
        return len(self.ops)

    @cached_property
    def is_identity(self) -> bool:
        return set(self.ops) == {"I"}

    def matrix(self) -> np.ndarray:
        """Dense 2^N x 2^N matrix; qubit 0 is the leading Kronecker factor."""
        m = np.array([[1.0 + 0.0j]])
        for label in self.ops:
            m = np.kron(m, PAULI_MATRICES[label])
        return m


def _parity_sign_table(labels) -> np.ndarray:
    """The parity signs of valid Pauli labels of one length n, one row per label, (k, 2**n), in one pass.

    Row i holds the +/-1 eigenvalue of ``labels[i]`` on each outcome of a
    measurement in a basis that contains it.  Outcome ``o`` is the
    basis-state index after each non-identity qubit is rotated onto Z, so the
    sign is (-1) to the number of set bits of ``o`` on the string's support.
    """
    n = len(labels[0])
    # 1 on each qubit a string acts on, read straight off the ASCII labels
    support = (np.frombuffer("".join(labels).encode(), dtype=np.uint8) != ord("I")).reshape(len(labels), n)
    bits = (np.arange(2**n) >> np.arange(n - 1, -1, -1)[:, None]) & 1
    return 1.0 - 2.0 * ((support.astype(np.int64) @ bits) & 1)


def _merge_bases(basis: str, ops: str) -> str | None:
    """The per-qubit measurement basis that covers both strings, or None if they do not commute qubit-wise."""
    merged = []
    for a, b in zip(basis, ops):
        if a != "I" and b != "I" and a != b:
            return None
        merged.append(b if a == "I" else a)
    return "".join(merged)


def qubit_wise_groups(paulis) -> tuple[tuple[str, ...], tuple[tuple[int, ...], ...]]:
    """Greedy qubit-wise-commuting groups (Verteletskyi et al. 2020, arXiv:1907.03358): ``(bases, groups)``.

    In order, each string joins the first group whose per-qubit basis it
    commutes with qubit-wise, or opens one; ``groups`` holds the indices into
    ``paulis``.  Empty input or strings of different lengths raise ``ValueError``.
    """
    paulis = tuple(paulis)
    if not paulis:
        raise ValueError("need at least one Pauli string")
    bases: list[str] = []
    groups: list[list[int]] = []
    for index, pauli in enumerate(paulis):
        if pauli.num_qubits != paulis[0].num_qubits:
            raise ValueError(f"Pauli strings act on different qubit counts: {paulis[0].ops!r}, {pauli.ops!r}")
        group = next((g for g, basis in enumerate(bases) if _merge_bases(basis, pauli.ops)), len(bases))
        if group == len(bases):
            bases.append(pauli.ops)
            groups.append([])
        bases[group] = _merge_bases(bases[group], pauli.ops)
        groups[group].append(index)
    return tuple(bases), tuple(map(tuple, groups))


@dataclass(frozen=True)
class MeasurementPlan:
    """How one call measures k Pauli strings of n qubits: one pass per qubit-wise-commuting group.

    ``groups`` holds each group's per-qubit basis and the positions of its
    strings; ``signs``, (k, 2**n), the strings' parity signs in string order.
    """

    num_qubits: int
    groups: tuple[tuple[str, tuple[int, ...]], ...]
    signs: np.ndarray


def measurement_plan(paulis) -> MeasurementPlan:
    """The plan of ``paulis``, grouped by :func:`qubit_wise_groups`; its errors pass through."""
    paulis = tuple(paulis)
    bases, groups = qubit_wise_groups(paulis)
    signs = _parity_sign_table([pauli.ops for pauli in paulis])
    signs.flags.writeable = False
    return MeasurementPlan(paulis[0].num_qubits, tuple(zip(bases, groups)), signs)


@dataclass(frozen=True)
class Measurement:
    """What a query reads off an observable, whose terms it sums group by group, in ``order``.

    ``plan`` measures the non-identity strings in term order (None if there
    are none), ``order`` lists its positions in group order and ``weights``
    their weights; the identity terms' summed weight is added classically.
    """

    plan: MeasurementPlan | None
    order: np.ndarray
    weights: np.ndarray
    identity_weight: float


@dataclass(frozen=True)
class ObservableSum:
    """Weighted sum of Pauli strings sharing one register size.

    Duplicate strings are merged on construction (weights added, first
    appearance fixes the order) and merged weights with magnitude below
    ``MERGE_PRUNE_TOLERANCE`` are pruned.  Instances are immutable.
    """

    num_qubits: int
    terms: tuple[tuple[float, PauliString], ...]

    def __init__(self, num_qubits, terms):
        try:
            num_qubits = _check_integer(num_qubits, "num_qubits", minimum=1)
        except ValueError as exc:
            raise ObservableError(str(exc)) from exc
        merged: dict[str, float] = {}
        for weight, pauli in terms:
            if isinstance(pauli, str):
                pauli = PauliString(pauli)
            if pauli.num_qubits != num_qubits:
                raise ObservableError(
                    f"Pauli string {pauli.ops!r} has length {pauli.num_qubits}, "
                    f"expected {num_qubits}"
                )
            try:
                w = _check_real(weight, f"weight of term {pauli.ops!r}", minimum=-math.inf)
            except ValueError as exc:
                raise ObservableError(str(exc)) from exc
            merged[pauli.ops] = merged.get(pauli.ops, 0.0) + w
        kept = tuple(
            (w, PauliString(ops)) for ops, w in merged.items() if abs(w) >= MERGE_PRUNE_TOLERANCE
        )
        object.__setattr__(self, "num_qubits", num_qubits)
        object.__setattr__(self, "terms", kept)

    @cached_property
    def measurement(self) -> Measurement:
        """What a query reads off this observable, grouped once: see :class:`Measurement`."""
        measured = [(weight, pauli) for weight, pauli in self.terms if not pauli.is_identity]
        plan = measurement_plan([pauli for _, pauli in measured]) if measured else None
        groups = plan.groups if plan is not None else ()
        order = np.array([k for _, positions in groups for k in positions], dtype=int)
        weights = np.array([measured[k][0] for k in order], dtype=float)
        order.flags.writeable = weights.flags.writeable = False
        return Measurement(plan, order, weights, sum(weight for weight, pauli in self.terms if pauli.is_identity))

    @property
    def one_norm(self) -> float:
        """Sum of |weight|, an a-priori bound on any expectation value."""
        return float(sum(abs(w) for w, _ in self.terms))

    def matrix(self) -> np.ndarray:
        dim = 2**self.num_qubits
        m = np.zeros((dim, dim), dtype=complex)
        for w, p in self.terms:
            m += w * p.matrix()
        return m


@dataclass(frozen=True)
class Spectrum:
    """All eigenvalues of an observable, sorted ascending."""

    eigenvalues: np.ndarray
    min_eigenvalue: float


def parse_observable(text: str) -> ObservableSum:
    """Parse the Hamiltonian JSON schema into an :class:`ObservableSum`.

    Schema::

        {"num_qubits": N,
         "terms": [{"pauli": "<string over IXYZ, length N>", "weight": <float>}, ...]}

    Qubit 0 is the leftmost character of every ``pauli`` entry.
    """
    doc = _json_object(text, "Hamiltonian document", ("num_qubits", "terms"), error=ObservableError)
    # type() is int, not isinstance: a boolean is an int too, and 2.0 is no JSON integer
    if type(doc["num_qubits"]) is not int:
        raise ObservableError(f"'num_qubits' must be an integer, got {doc['num_qubits']!r}")
    raw_terms = doc["terms"]
    if not isinstance(raw_terms, list):
        raise ObservableError("'terms' must be a list")
    terms = []
    for entry in raw_terms:
        if not isinstance(entry, dict) or set(entry) != {"pauli", "weight"}:
            raise ObservableError(f"term entries need exactly 'pauli' and 'weight': {entry!r}")
        terms.append((entry["weight"], PauliString(entry["pauli"])))
    return ObservableSum(doc["num_qubits"], terms)


def exact_spectrum(obs: ObservableSum) -> Spectrum:
    """Dense-diagonalization oracle: all eigenvalues of the assembled matrix.

    Feasible for ``num_qubits <= MAX_DENSE_QUBITS`` only.
    """
    if obs.num_qubits > MAX_DENSE_QUBITS:
        raise ObservableError(
            f"dense oracle limited to {MAX_DENSE_QUBITS} qubits, got {obs.num_qubits}"
        )
    m = obs.matrix()
    scale = max(1.0, float(np.max(np.abs(m))))
    if np.max(np.abs(m - m.conj().T)) > _HERMITICITY_TOLERANCE * scale:
        raise ObservableError("assembled matrix is not Hermitian")
    eigenvalues = np.linalg.eigvalsh(m)
    return Spectrum(eigenvalues=eigenvalues, min_eigenvalue=float(eigenvalues[0]))
