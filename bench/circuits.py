"""Circuits as data, the seeded RY+CNOT ladder generator and the one adapter onto qsreg.

A circuit is a tuple of gates ``(kind, qubits, param, scale)``: a rotation
``kind`` in {"RY"} carries the index of the parameter it reads and the factor
its angle is scaled by (angle = scale * theta[param]); fixed gates ("X",
"CNOT") carry ``param=None``.  The benchmark's oracle simulates this data
directly, and :func:`to_ansatz` is the only place that turns it into a
``qsreg.Ansatz``, so a change to how qsreg represents circuits edits one
function here.

This module imports numpy only; qsreg is imported inside :func:`to_ansatz`.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

PAULI_ALPHABET = "IXYZ"


@dataclass(frozen=True)
class Circuit:
    name: str
    num_qubits: int
    num_params: int
    gates: tuple[tuple[str, tuple[int, ...], int | None, float], ...]

    @property
    def bandwidths(self) -> tuple[int, ...]:
        """S_j = sum of |scale| over the rotations that read parameter j."""
        totals = [0.0] * self.num_params
        for _, _, param, scale in self.gates:
            if param is not None:
                totals[param] += abs(scale)
        return tuple(int(round(t)) for t in totals)


# deuteron-2 as documented for qsreg's bundled ansatz: theta = (theta, eta);
# final state cos(eta)cos(theta/2)|100> + sin(eta)cos(theta/2)|010> + sin(theta/2)|001>
DEUTERON_2 = Circuit(
    name="deuteron-2",
    num_qubits=3,
    num_params=2,
    gates=(
        ("X", (0,), None, 0.0),
        ("RY", (1,), 1, 1.0),
        ("RY", (2,), 0, 1.0),
        ("CNOT", (2, 0), None, 0.0),
        ("CNOT", (0, 1), None, 0.0),
        ("RY", (1,), 1, -1.0),
        ("CNOT", (0, 1), None, 0.0),
        ("CNOT", (1, 0), None, 0.0),
    ),
)


def random_ladder(rng: np.random.Generator, num_qubits: int, num_params: int) -> Circuit:
    """Hardware-efficient RY + CNOT ladder (Kandala et al. 2017) with a random reference state.

    X gates on a random subset of qubits prepare a computational basis state;
    then parameter j rotates qubit j mod num_qubits, and every completed layer
    of rotations (and the last, partial one) is followed by a CNOT ladder
    q -> q+1.  Each parameter is used once with scale 1, so S_j = 1.
    """
    gates: list[tuple[str, tuple[int, ...], int | None, float]] = [
        ("X", (q,), None, 0.0) for q in range(num_qubits) if rng.random() < 0.5
    ]
    for j in range(num_params):
        gates.append(("RY", (j % num_qubits,), j, 1.0))
        if j % num_qubits == num_qubits - 1 or j == num_params - 1:
            gates.extend(("CNOT", (q, q + 1), None, 0.0) for q in range(num_qubits - 1))
    return Circuit(f"ladder-{num_qubits}q{num_params}p", num_qubits, num_params, tuple(gates))


def random_pauli_sum(rng: np.random.Generator, num_qubits: int, num_terms: int) -> list[tuple[float, str]]:
    """An identity offset plus ``num_terms`` distinct non-identity strings with N(0, 1) weights."""
    strings: list[str] = []
    while len(strings) < num_terms:
        ops = "".join(PAULI_ALPHABET[k] for k in rng.integers(0, 4, size=num_qubits))
        if set(ops) != {"I"} and ops not in strings:
            strings.append(ops)
    terms = [(float(rng.normal()), "I" * num_qubits)]
    terms.extend((float(rng.normal()), ops) for ops in strings)
    return terms


def hamiltonian_json(num_qubits: int, terms: list[tuple[float, str]]) -> str:
    """The Hamiltonian document schema that qsreg's loader reads."""
    return json.dumps(
        {"num_qubits": num_qubits, "terms": [{"pauli": p, "weight": w} for w, p in terms]}
    )


def to_ansatz(circuit: Circuit):
    """The single adapter from circuit data onto ``qsreg.Ansatz``."""
    from qsreg import Ansatz, Gate

    gates = circuit.gates

    def builder(theta: np.ndarray) -> list:
        return [
            Gate(kind, qubits) if param is None else Gate(kind, qubits, float(scale * theta[param]))
            for kind, qubits, param, scale in gates
        ]

    return Ansatz(
        name=circuit.name,
        num_qubits=circuit.num_qubits,
        num_params=circuit.num_params,
        bandwidths=circuit.bandwidths,
        param_names=tuple(f"t{j}" for j in range(circuit.num_params)),
        builder=builder,
    )
