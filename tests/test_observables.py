"""Pauli-sum construction and dense diagonalization."""
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsreg import (
    ObservableError,
    ObservableSum,
    PauliString,
    exact_spectrum,
    parse_observable,
)
from qsreg.observables import _parity_sign_table, qubit_wise_groups
from qsreg.statevector import exact_expectation
from conftest import term_groups


# --- PauliString ---

def test_pauli_string_validation():
    assert PauliString("XXI").num_qubits == 3
    with pytest.raises(ObservableError):
        PauliString("")
    with pytest.raises(ObservableError):
        PauliString("XQ")


def test_pauli_string_is_frozen():
    p = PauliString("XY")
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.ops = "ZZ"


@pytest.mark.parametrize(
    "a,b,phase,prod",
    [
        ("X", "Y", 1j, "Z"),
        ("Y", "X", -1j, "Z"),
        ("Z", "Z", 1, "I"),
        ("I", "Y", 1, "Y"),
        ("XY", "YX", 1, "ZZ"),
        ("XY", "YZ", -1, "ZX"),
    ],
)
def test_pauli_products(a, b, phase, prod):
    """The dense Pauli matrices multiply as the Pauli algebra says: a·b = phase·prod."""
    direct = PauliString(a).matrix() @ PauliString(b).matrix()
    assert np.allclose(direct, phase * PauliString(prod).matrix(), atol=1e-15)


# --- parsing / merging ---

def test_parse_single_term():
    obs = parse_observable('{"num_qubits":1,"terms":[{"pauli":"Z","weight":1.0}]}')
    assert obs.num_qubits == 1
    assert obs.terms == ((1.0, PauliString("Z")),)


def test_parse_merges_duplicates():
    doc = {
        "num_qubits": 2,
        "terms": [
            {"pauli": "ZI", "weight": 0.5},
            {"pauli": "ZI", "weight": 0.25},
        ],
    }
    obs = parse_observable(json.dumps(doc))
    assert len(obs.terms) == 1
    assert obs.terms[0][0] == pytest.approx(0.75, abs=1e-15)


def test_merge_prunes_cancelling_terms():
    obs = ObservableSum(1, [(1.0, "X"), (-1.0, "X"), (2.0, "Z")])
    assert [p.ops for _, p in obs.terms] == ["Z"]


@pytest.mark.parametrize(
    "text",
    [
        "not json at all {",
        '{"num_qubits":2,"terms":[{"pauli":"Z","weight":1.0}]}',  # length mismatch
        '{"num_qubits":1,"terms":[{"pauli":"Z","weight":"abc"}]}',
        '{"num_qubits":1,"terms":[{"pauli":"Z","weight":1.0,"extra":1}]}',
        '{"num_qubits":1,"terms":[{"pauli":"Z","weight":1.0}],"junk":true}',
        '{"num_qubits":0,"terms":[]}',
        '{"num_qubits": true, "terms": [{"pauli": "Z", "weight": 1.0}]}',  # bool is an int subclass
        '{"num_qubits": 2.0, "terms": [{"pauli": "ZZ", "weight": 1.0}]}',  # a JSON integer only
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ObservableError):
        parse_observable(text)


def test_observable_takes_num_qubits_by_the_integer_rule():
    """A numpy integer is an integer, as for Ansatz and ObjectiveSpec."""
    obs = ObservableSum(np.int64(2), [(1.0, "ZZ")])
    assert obs.num_qubits == 2 and type(obs.num_qubits) is int
    for bad in (2.5, True, 0, "2"):
        with pytest.raises(ObservableError, match="num_qubits"):
            ObservableSum(bad, [(1.0, "ZZ")])


def test_parse_rejects_non_finite_weight():
    with pytest.raises(ObservableError):
        ObservableSum(1, [(float("inf"), "Z")])


@pytest.mark.parametrize("weight", ["0.5", True, None, np.bool_(False)])
def test_weights_must_be_real_numbers(weight):
    """A string weight was read as 0.5 and a boolean as 1.0."""
    with pytest.raises(ObservableError, match="weight"):
        ObservableSum(1, [(weight, "Z")])


def test_deuteron_files_parse(deuteron1, deuteron2):
    assert deuteron1[1].num_qubits == 2
    assert len(deuteron1[1].terms) == 5
    assert deuteron2[1].num_qubits == 3
    assert len(deuteron2[1].terms) == 8


# --- qubit-wise-commuting measurement groups ---

@st.composite
def _pauli_sums(draw):
    n = draw(st.integers(1, 4))
    strings = draw(st.lists(st.text("IXYZ", min_size=n, max_size=n), min_size=1, max_size=12))
    return ObservableSum(n, [(1.0, ops) for ops in strings])


def _shared_basis(paulis):
    """The per-qubit basis that measures every string of ``paulis``, or None if two of them differ on a qubit."""
    basis = []
    for labels in zip(*(pauli.ops for pauli in paulis)):
        used = set(labels) - {"I"}
        if len(used) > 1:
            return None
        basis.append(used.pop() if used else "I")
    return "".join(basis)


@settings(max_examples=200, deadline=None)
@given(_pauli_sums())
def test_measurement_groups_partition_the_terms_into_qubit_wise_commuting_sets(obs):
    groups = term_groups(obs)
    members = [index for group in groups for index in group]
    non_identity = [index for index, (_, p) in enumerate(obs.terms) if not p.is_identity]
    assert sorted(members) == non_identity
    # first-appearance order, both across groups and within each
    assert [group[0] for group in groups] == sorted(group[0] for group in groups)
    assert all(list(group) == sorted(group) for group in groups)
    for group in groups:
        basis = _shared_basis(obs.terms[index][1] for index in group)
        assert basis is not None
        for index in group:
            assert all(p in ("I", b) for p, b in zip(obs.terms[index][1].ops, basis))
    # greedy: a group's first term commutes qubit-wise with no earlier group's basis at that point
    for later, group in enumerate(groups):
        for earlier in groups[:later]:
            opened_before = [index for index in earlier if index < group[0]]
            assert _shared_basis([obs.terms[index][1] for index in (*opened_before, group[0])]) is None
    # a query sums the weights in group order and adds the identity weight classically
    measurement = obs.measurement
    assert list(measurement.weights) == [obs.terms[index][0] for index in members]
    assert measurement.identity_weight == sum(w for w, p in obs.terms if p.is_identity)


def test_deuteron_3q_is_measured_in_three_bases(deuteron2):
    obs = deuteron2[1]
    groups = term_groups(obs)
    assert len(groups) == 3
    assert [basis for basis, _ in obs.measurement.plan.groups] == ["ZZZ", "XXX", "YYY"]
    assert [_shared_basis(obs.terms[i][1] for i in group) for group in groups] == ["ZZZ", "XXX", "YYY"]
    strings = [pauli for _, pauli in obs.terms if not pauli.is_identity]
    assert qubit_wise_groups(strings)[0] == ("ZZZ", "XXX", "YYY")


def test_qubit_wise_groups_reject_empty_and_mixed_length_input():
    with pytest.raises(ValueError, match="at least one"):
        qubit_wise_groups([])
    with pytest.raises(ValueError, match="different qubit counts"):
        qubit_wise_groups([PauliString("XI"), PauliString("X")])
    # strings that do not commute qubit-wise open a group each
    strings = [PauliString("XI"), PauliString("YI"), PauliString("IZ")]
    assert qubit_wise_groups(strings) == (("XZ", "YI"), ((0, 2), (1,)))


@pytest.mark.parametrize("ops", ["Z", "XI", "IY", "XYZ", "IIII", "ZIXY"])
def test_parity_signs_are_the_eigenvalues_of_the_rotated_string(ops):
    """Outcome i's sign is P's eigenvalue on the i-th product eigenvector of P's own basis."""
    rotated = PauliString(ops.replace("X", "Z").replace("Y", "Z"))
    assert np.array_equal(_parity_sign_table((ops,))[0], np.diag(rotated.matrix()).real)


def _random_observable(rng, num_qubits, num_terms):
    labels = list("IXYZ")
    terms = []
    for _ in range(num_terms):
        ops = "".join(rng.choice(labels, size=num_qubits))
        terms.append((float(rng.uniform(-2, 2)), ops))
    return ObservableSum(num_qubits, terms)


# --- exact_spectrum ---

def test_exact_spectrum_pauli_z():
    spectrum = exact_spectrum(ObservableSum(1, [(1.0, "Z")]))
    assert np.allclose(spectrum.eigenvalues, [-1.0, 1.0])
    assert spectrum.min_eigenvalue == -1.0


def test_exact_spectrum_scaling():
    spectrum = exact_spectrum(ObservableSum(1, [(0.5, "X")]))
    assert np.allclose(spectrum.eigenvalues, [-0.5, 0.5])


def test_exact_spectrum_rejects_large_register():
    with pytest.raises(ObservableError):
        exact_spectrum(ObservableSum(13, [(1.0, "Z" * 13)]))


def test_dense_eigenvalues_are_real():
    rng = np.random.default_rng(11)
    for _ in range(10):
        obs = _random_observable(rng, 3, 4)
        raw = np.linalg.eigvals(obs.matrix())
        assert np.max(np.abs(raw.imag)) < 1e-10


def test_term_by_term_expectation_matches_dense(deuteron1, deuteron2):
    """Linearity: sum of weighted term expectations equals <psi|M|psi>."""
    rng = np.random.default_rng(7)
    for _, obs in (deuteron1, deuteron2):
        dim = 2**obs.num_qubits
        dense = obs.matrix()
        for _ in range(5):
            state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            state /= np.linalg.norm(state)
            by_terms = sum(w * exact_expectation(state[None], (p,))[0, 0] for w, p in obs.terms)
            direct = float(np.vdot(state, dense @ state).real)
            assert by_terms == pytest.approx(direct, rel=1e-12, abs=1e-12)
