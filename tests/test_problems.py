"""The bundled problems as data: circuit files, their parser and the Hamiltonian files."""
import json

import numpy as np
import pytest

from qsreg.ansatz import _parse_circuit
from qsreg.cli import PROBLEMS, load_problem

# Dumitrescu et al. 2018 (arXiv:1801.03897): oscillator basis, hbar*omega and the contact term V0 in MeV
HBAR_OMEGA = 7.0
V0 = -5.68658111


def _closed_form_hamiltonian(num_qubits: int) -> dict[str, float]:
    """H_N in the Jordan-Wigner map: a^dagger_n a_n -> (1 - Z_n)/2, each hopping -> (X X + Y Y)/2."""
    diagonal = [HBAR_OMEGA / 2 * (2 * n + 1.5) + (V0 if n == 0 else 0.0) for n in range(num_qubits)]
    hopping = [-HBAR_OMEGA / 2 * np.sqrt((n + 1) * (n + 1.5)) for n in range(num_qubits - 1)]

    def string(ops: dict[int, str]) -> str:
        return "".join(ops.get(q, "I") for q in range(num_qubits))

    terms = {string({}): sum(diagonal) / 2}
    for n, h in enumerate(diagonal):
        terms[string({n: "Z"})] = -h / 2
    for n, t in enumerate(hopping):
        for pauli in "XY":
            terms[string({n: pauli, n + 1: pauli})] = t / 2
    return terms


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_bundled_hamiltonians_match_the_closed_form(problem):
    """Every weight agrees to 1e-6, the files' printed precision."""
    observable = load_problem(problem)[1]
    bundled = {pauli.ops: weight for weight, pauli in observable.terms}
    expected = _closed_form_hamiltonian(observable.num_qubits)
    assert sorted(bundled) == sorted(expected)
    for ops, weight in expected.items():
        assert abs(bundled[ops] - weight) <= 1e-6, ops


def test_circuit_files_derive_their_bandwidths_from_the_scales():
    shapes = {name: (a.num_qubits, a.param_names, a.bandwidths)
              for name, a in ((name, load_problem(name)[0]) for name in sorted(PROBLEMS))}
    assert shapes == {"deuteron-1": (2, ("theta",), (1,)), "deuteron-2": (3, ("theta", "eta"), (1, 2))}


def test_circuit_files_prepare_the_documented_states():
    """deuteron-1: cos(t/2)|10> + sin(t/2)|01>;
    deuteron-2: cos(eta)cos(t/2)|100> + sin(eta)cos(t/2)|010> + sin(t/2)|001>."""
    rng = np.random.default_rng(11)
    theta = rng.uniform(-np.pi, np.pi, size=(50, 2))
    expected = np.zeros((50, 4))
    expected[:, 0b10] = np.cos(theta[:, 0] / 2)
    expected[:, 0b01] = np.sin(theta[:, 0] / 2)
    assert np.max(np.abs(load_problem("deuteron-1")[0].states(theta[:, :1]) - expected)) <= 1e-12
    t, eta = theta[:, 0], theta[:, 1]
    expected = np.zeros((50, 8))
    expected[:, 0b100] = np.cos(eta) * np.cos(t / 2)
    expected[:, 0b010] = np.sin(eta) * np.cos(t / 2)
    expected[:, 0b001] = np.sin(t / 2)
    assert np.max(np.abs(load_problem("deuteron-2")[0].states(theta) - expected)) <= 1e-12


def test_parsed_builder_shares_its_fixed_gates_across_points():
    ansatz = load_problem("deuteron-2")[0]
    first, second = ansatz.build([0.1, 0.2]), ansatz.build([0.3, 0.4])
    assert [a is b for a, b in zip(first, second)] == [gate.angle is None for gate in first]
    assert [gate.angle for gate in first if gate.angle is not None] == [0.2, 0.1, -0.2]


def _document(gates, num_qubits=2, params=("theta",)):
    return json.dumps({"num_qubits": num_qubits, "params": list(params), "gates": gates})


@pytest.mark.parametrize("gate, message", [
    (["RY", [1], 0, 1.5], "scale"),
    (["RY", [1], 0, 1.0], "scale"),
    (["RY", [1], 0, True], "scale"),
    (["RY", [1], 0, 0], "scale"),
    (["RY", [1], -1, 1], "parameter index"),
    (["RY", [1], True, 1], "parameter index"),
    (["RY", [1], 1, 1], "parameter index"),
    (["RY", [1], 0.0, 1], "parameter index"),
    (["RW", [1], 0, 1], "unknown gate kind"),
    (["FOO", [1]], "unknown gate kind"),
    (["CNOT", [0, 2]], "out of range"),
    (["RY", [2], 0, 1], "out of range"),
    (["X", [-1]], "qubit indices"),
    (["RY", [1], 0], "a gate is"),
    (["RY", [1]], "RY takes one qubit and an angle"),
    (["X", [1], 0, 1], "X takes one qubit and no angle"),
    (["X", 1], "a gate is"),
    (5, "a gate is"),
])
def test_parse_circuit_rejects_a_bad_gate(gate, message):
    with pytest.raises(ValueError, match=message):
        _parse_circuit("bad", _document([["X", [0]], gate]))


_GOOD = {"num_qubits": 2, "params": ["theta"], "gates": [["X", [0]], ["RY", [1], 0, 1]]}


@pytest.mark.parametrize("doc, key", [
    ({"num_qubits": 2, "params": ["theta"]}, "gates"),
    ([], "num_qubits"),
    ({**_GOOD, "extra": 1}, "extra"),
    ({**_GOOD, "params": "ab"}, "params"),
    ({**_GOOD, "params": ["theta", 1]}, "params"),
    ({**_GOOD, "gates": {}}, "gates"),
    ({**_GOOD, "num_qubits": 2.0}, "num_qubits"),
    ({**_GOOD, "num_qubits": True}, "num_qubits"),
])
def test_parse_circuit_rejects_a_bad_document(doc, key):
    """A missing key raised KeyError, a list TypeError; "ab" was read as two parameters and 2.0 as 2 qubits."""
    with pytest.raises(ValueError, match=key):
        _parse_circuit("bad", json.dumps(doc))
