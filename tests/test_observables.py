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
from qsreg.observables import measurement_basis
from qsreg.statevector import exact_expectation


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
    assert obs.num_terms == 1
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
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ObservableError):
        parse_observable(text)


def test_parse_rejects_non_finite_weight():
    with pytest.raises(ObservableError):
        ObservableSum(1, [(float("inf"), "Z")])


def test_deuteron_files_parse(deuteron1, deuteron2):
    assert deuteron1[1].num_qubits == 2
    assert deuteron1[1].num_terms == 5
    assert deuteron2[1].num_qubits == 3
    assert deuteron2[1].num_terms == 8


# --- qubit-wise-commuting measurement groups ---

@st.composite
def _pauli_sums(draw):
    n = draw(st.integers(1, 4))
    strings = draw(st.lists(st.text("IXYZ", min_size=n, max_size=n), min_size=1, max_size=12))
    return ObservableSum(n, [(1.0, ops) for ops in strings])


@settings(max_examples=200, deadline=None)
@given(_pauli_sums())
def test_measurement_groups_partition_the_terms_into_qubit_wise_commuting_sets(obs):
    groups = obs.measurement_groups
    members = [index for group in groups for index in group]
    non_identity = [index for index, (_, p) in enumerate(obs.terms) if not p.is_identity]
    assert sorted(members) == non_identity
    # first-appearance order, both across groups and within each
    assert [group[0] for group in groups] == sorted(group[0] for group in groups)
    assert all(list(group) == sorted(group) for group in groups)
    for group in groups:
        for qubit in range(obs.num_qubits):
            labels = {obs.terms[index][1].ops[qubit] for index in group} - {"I"}
            assert len(labels) <= 1
        basis = measurement_basis(obs.terms[index][1] for index in group).ops
        for index in group:
            assert all(p in ("I", b) for p, b in zip(obs.terms[index][1].ops, basis))
    # greedy: a group's first term commutes qubit-wise with no earlier group's basis at that point
    for later, group in enumerate(groups):
        for earlier in groups[:later]:
            opened_before = [index for index in earlier if index < group[0]]
            with pytest.raises(ValueError, match="qubit-wise"):
                measurement_basis(obs.terms[index][1] for index in (*opened_before, group[0]))


def test_deuteron_3q_is_measured_in_three_bases(deuteron2):
    obs = deuteron2[1]
    groups = obs.measurement_groups
    assert len(groups) == 3
    assert [measurement_basis(obs.terms[i][1] for i in group).ops for group in groups] == ["ZZZ", "XXX", "YYY"]


def test_measurement_basis_rejects_empty_and_non_commuting_input():
    with pytest.raises(ValueError):
        measurement_basis([])
    with pytest.raises(ValueError, match="qubit-wise"):
        measurement_basis([PauliString("XI"), PauliString("YI")])


@pytest.mark.parametrize("ops", ["Z", "XI", "IY", "XYZ", "IIII", "ZIXY"])
def test_parity_signs_are_the_eigenvalues_of_the_rotated_string(ops):
    """Outcome i's sign is P's eigenvalue on the i-th product eigenvector of P's own basis."""
    pauli = PauliString(ops)
    rotated = PauliString(ops.replace("X", "Z").replace("Y", "Z"))
    assert np.array_equal(pauli.parity_signs, np.diag(rotated.matrix()).real)


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
