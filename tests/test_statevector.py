"""Gate application, exact expectations, shot sampling statistics."""
import numpy as np
import pytest

from qsreg import Gate, ObservableSum, PauliString
from qsreg.statevector import apply_circuit, child_seed, exact_expectation, sampled_expectation
from conftest import term_groups

Z = (PauliString("Z"),)


def test_empty_circuit():
    state = apply_circuit([], 1, 1)
    assert state.shape == (1, 2)
    assert np.allclose(state, [[1.0, 0.0]])


def test_hadamard():
    state = apply_circuit([Gate("H", (0,))], 1, 1)
    assert np.allclose(state, [[1 / np.sqrt(2), 1 / np.sqrt(2)]])


def test_full_ry_rotation():
    state = apply_circuit([Gate("RY", (0,), np.pi)], 1, 1)
    assert np.allclose(state, [[0.0, 1.0]], atol=1e-15)


def test_ry_matches_cos_sin_halves():
    theta = 0.731
    state = apply_circuit([Gate("RY", (0,), theta)], 1, 1)
    assert np.allclose(state, [[np.cos(theta / 2), np.sin(theta / 2)]])


def test_cnot_and_bit_order():
    # qubit 0 is the most significant bit: X(0) gives index 0b10
    state = apply_circuit([Gate("X", (0,))], 2, 1)
    assert np.allclose(state, [[0, 0, 1, 0]])
    state = apply_circuit([Gate("X", (0,)), Gate("CNOT", (0, 1))], 2, 1)
    assert np.allclose(state, [[0, 0, 0, 1]])


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("CNOT", (1, 1))
    with pytest.raises(ValueError):
        Gate("RY", (0,))
    with pytest.raises(ValueError):
        Gate("BOGUS", (0,))
    with pytest.raises(ValueError):
        apply_circuit([Gate("X", (3,))], 2, 1)


@pytest.mark.parametrize("batch", [0, 2.5, True, None])
def test_batch_size_must_be_a_positive_integer(batch):
    with pytest.raises(ValueError, match="batch"):
        apply_circuit([Gate("H", (0,))], 1, batch)


def test_nan_angle_fails_the_norm_check():
    with pytest.raises(RuntimeError, match="norm"):
        apply_circuit([Gate("RY", (0,), float("nan"))], 1, 1)


def _random_circuit(rng, n, angles):
    """Gates on n qubits whose k-th rotation reads ``angles[k]`` (a float or a batch array)."""
    gates = []
    for angle in angles:
        qubit = int(rng.integers(n))
        gates.append(Gate(str(rng.choice(["RX", "RY", "RZ"])), (qubit,), angle))
        kind = str(rng.choice(["H", "X", "Y", "Z", "CNOT"]))
        if kind == "CNOT" and n > 1:
            gates.append(Gate("CNOT", (qubit, (qubit + 1) % n)))
        elif kind != "CNOT":
            gates.append(Gate(kind, (int(rng.integers(n)),)))
    return gates


def test_batched_circuit_equals_its_rows():
    """One pass over length-B angle arrays gives each row's own circuit, shape (B, 2**n)."""
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4):
        angles = rng.uniform(-np.pi, np.pi, size=(6, 5))
        layout_seed = int(rng.integers(1 << 30))
        batch = apply_circuit(_random_circuit(np.random.default_rng(layout_seed), n, list(angles.T)), n, 6)
        assert batch.shape == (6, 2**n)
        for row, row_angles in zip(batch, angles):
            single = apply_circuit(_random_circuit(np.random.default_rng(layout_seed), n, list(row_angles)), n, 1)
            assert single.shape == (1, 2**n)
            assert np.max(np.abs(row - single[0])) <= 1e-14


def test_float_angles_are_shared_by_the_batch():
    batch = apply_circuit([Gate("RY", (0,), 0.4), Gate("RY", (1,), np.array([0.1, 0.2, 0.3]))], 2, 3)
    assert batch.shape == (3, 4)
    for row, eta in zip(batch, (0.1, 0.2, 0.3)):
        single = apply_circuit([Gate("RY", (0,), 0.4), Gate("RY", (1,), eta)], 2, 1)
        assert np.allclose(row, single[0], atol=1e-15)
    # a circuit with float angles only gives B equal rows
    floats = apply_circuit([Gate("H", (0,)), Gate("RX", (1,), 0.7), Gate("CNOT", (0, 1))], 2, 3)
    assert floats.shape == (3, 4)
    assert np.array_equal(floats, np.repeat(floats[:1], 3, axis=0))


def test_angle_arrays_of_different_length_are_rejected():
    gates = [Gate("RY", (0,), np.zeros(3)), Gate("RX", (1,), np.zeros(4))]
    for batch in (3, 4, 5):
        with pytest.raises(ValueError, match=f"length-{batch} array"):
            apply_circuit(gates, 2, batch)
    with pytest.raises(ValueError, match="length-3 array"):
        apply_circuit([Gate("RY", (0,), np.zeros((3, 1)))], 1, 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_angle_in_one_batch_row_fails_the_norm_check(bad):
    angles = np.array([0.1, 0.2, bad, 0.4])
    with pytest.raises(RuntimeError, match="norm.*row 2"):
        apply_circuit([Gate("H", (0,)), Gate("RY", (1,), angles), Gate("CNOT", (0, 1))], 2, 4)


def test_norm_preserved_by_random_circuits():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        gates = []
        for _ in range(15):
            kind = rng.choice(["H", "RX", "RY", "RZ", "CNOT", "X", "Y", "Z"])
            if kind == "CNOT" and n > 1:
                c, t = rng.choice(n, size=2, replace=False)
                gates.append(Gate("CNOT", (int(c), int(t))))
            elif kind in ("RX", "RY", "RZ"):
                gates.append(Gate(kind, (int(rng.integers(n)),), float(rng.uniform(-np.pi, np.pi))))
            elif kind != "CNOT":
                gates.append(Gate(kind, (int(rng.integers(n)),)))
        state = apply_circuit(gates, n, 1)
        assert abs(np.linalg.norm(state[0]) - 1.0) < 1e-10


_TEXTBOOK_FIXED = {
    "H": np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]]),
}


def _textbook_matrix(kind, qubits, angle, n):
    """The gate on n qubits as a dense matrix, built by np.kron with qubit 0 as the leading factor."""
    identity = np.eye(2)
    if kind == "CNOT":
        control, target = qubits
        on = [np.diag([0.0, 1.0]) if q == control else _TEXTBOOK_FIXED["X"] if q == target else identity
              for q in range(n)]
        off = [np.diag([1.0, 0.0]) if q == control else identity for q in range(n)]
        return _kron_all(off) + _kron_all(on)
    if kind in _TEXTBOOK_FIXED:
        single = _TEXTBOOK_FIXED[kind]
    else:
        # R_A(theta) = exp(-i theta A / 2) = cos(theta/2) I - i sin(theta/2) A for a Pauli A
        single = np.cos(angle / 2) * identity - 1j * np.sin(angle / 2) * _TEXTBOOK_FIXED[kind[1]]
    return _kron_all([single if q == qubits[0] else identity for q in range(n)])


def _kron_all(factors):
    out = np.ones((1, 1))
    for factor in factors:
        out = np.kron(out, factor)
    return out


@pytest.mark.parametrize("seed", range(24))
def test_apply_circuit_matches_dense_textbook_matrices(seed):
    """Every gate kind, with float and length-B angles, against kron-built matrices applied to |0...0>."""
    rng = np.random.default_rng(seed)
    n = 1 + seed % 4
    batch = 3
    kinds = ["H", "X", "Y", "Z", "RX", "RY", "RZ"] + (["CNOT"] if n > 1 else [])
    # each kind at least once, in random order, plus random extra gates
    sequence = list(rng.permutation(kinds)) + list(rng.choice(kinds, size=8))
    gates = []
    for kind in sequence:
        if kind == "CNOT":
            control, target = rng.choice(n, size=2, replace=False)
            gates.append(Gate("CNOT", (int(control), int(target))))
        elif kind.startswith("R"):
            shared = rng.random() < 0.5
            angle = float(rng.uniform(-2 * np.pi, 2 * np.pi)) if shared else rng.uniform(-2 * np.pi, 2 * np.pi, batch)
            gates.append(Gate(str(kind), (int(rng.integers(n)),), angle))
        else:
            gates.append(Gate(str(kind), (int(rng.integers(n)),)))
    states = apply_circuit(gates, n, batch)
    for row in range(batch):
        expected = np.zeros(2**n, dtype=complex)
        expected[0] = 1.0
        for gate in gates:
            angle = gate.angle if np.ndim(gate.angle) == 0 else gate.angle[row]
            expected = _textbook_matrix(gate.kind, gate.qubits, angle, n) @ expected
        assert np.max(np.abs(states[row] - expected)) <= 1e-13


# --- exact expectations ---

def test_exact_expectation_textbook_values():
    zero = apply_circuit([], 1, 1)
    plus = apply_circuit([Gate("H", (0,))], 1, 1)
    assert exact_expectation(zero, Z).shape == (1, 1)
    assert exact_expectation(zero, Z)[0, 0] == pytest.approx(1.0)
    assert exact_expectation(plus, (PauliString("X"),))[0, 0] == pytest.approx(1.0)
    assert exact_expectation(plus, Z)[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_basis_rotation_equivalence():
    """<X> on psi equals <Z> on H psi, validating measurement rotations."""
    rng = np.random.default_rng(17)
    h_on_qubit_1 = _kron_all([np.eye(2), _TEXTBOOK_FIXED["H"]])
    for _ in range(10):
        state = rng.normal(size=(1, 4)) + 1j * rng.normal(size=(1, 4))
        state /= np.linalg.norm(state)
        rotated = state @ h_on_qubit_1.T
        x_val = exact_expectation(state, (PauliString("IX"),))[0, 0]
        z_val = exact_expectation(rotated, (PauliString("IZ"),))[0, 0]
        assert x_val == pytest.approx(z_val, abs=1e-12)


def test_ry_circuit_z_expectation_is_cosine():
    theta = 1.23
    state = apply_circuit([Gate("RY", (0,), theta)], 1, 1)
    assert exact_expectation(state, Z)[0, 0] == pytest.approx(np.cos(theta))


# --- sampled expectations ---

def test_degenerate_distribution_is_exact():
    zero = apply_circuit([], 1, 1)
    assert sampled_expectation(zero, Z, 10, [0]).shape == (1, 1)
    assert sampled_expectation(zero, Z, 10, [0])[0, 0] == 1.0
    assert sampled_expectation(zero, Z, 100_000, [123])[0, 0] == 1.0


def test_identity_string_is_exact_and_free():
    rng = np.random.default_rng(0)
    state = rng.normal(size=(1, 8)) + 1j * rng.normal(size=(1, 8))
    state /= np.linalg.norm(state)
    assert sampled_expectation(state, (PauliString("III"),), 7, [99])[0, 0] == 1.0


def test_plus_state_z_sampling_near_zero():
    """Binomial standard error 1/sqrt(shots) brackets the deviation."""
    plus = apply_circuit([Gate("H", (0,))], 1, 1)
    value = sampled_expectation(plus, Z, 1_000_000, [42])[0, 0]
    assert abs(value) < 5e-3


def test_seeded_determinism():
    plus = apply_circuit([Gate("H", (0,))], 1, 1)
    a = sampled_expectation(plus, Z, 1000, [7])[0, 0]
    b = sampled_expectation(plus, Z, 1000, [7])[0, 0]
    c = sampled_expectation(plus, Z, 1000, [8])[0, 0]
    assert a == b
    assert a != c


def test_sampled_converges_to_exact_with_one_over_sqrt_shots():
    """Empirical std over seeds tracks 1/sqrt(shots) within a factor two."""
    plus = apply_circuit([Gate("H", (0,))], 1, 1)
    stds = []
    for shots in (100, 10_000, 1_000_000):
        values = [sampled_expectation(plus, Z, shots, [seed])[0, 0] for seed in range(24)]
        stds.append(np.std(values))
    # consecutive levels are 100x in shots, so stds should shrink 10x
    assert 5.0 < stds[0] / stds[1] < 20.0
    assert 5.0 < stds[1] / stds[2] < 20.0


def test_sampled_mean_matches_exact_value():
    state = apply_circuit([Gate("RY", (0,), 0.9), Gate("CNOT", (0, 1))], 2, 1)
    paulis = (PauliString("XX"),)
    exact = exact_expectation(state, paulis)[0, 0]
    values = [sampled_expectation(state, paulis, 40_000, [s])[0, 0] for s in range(8)]
    assert np.mean(values) == pytest.approx(exact, abs=3e-3)


def _random_states(rng, batch, n):
    states = rng.normal(size=(batch, 2**n)) + 1j * rng.normal(size=(batch, 2**n))
    return states / np.linalg.norm(states, axis=1, keepdims=True)


def test_sampled_mean_over_400_seeds_is_unbiased():
    """On random states and random Pauli sums, each grouped term's mean over 400 streams is within 4 sigma."""
    rng = np.random.default_rng(37)
    shots, repeats = 100, 400
    for n in (2, 3, 4):
        for trial in range(3):
            strings = {"".join(rng.choice(list("IXYZ"), size=n)) for _ in range(6)}
            obs = ObservableSum(n, [(1.0, ops) for ops in strings])
            # 400 copies of one state, each row with its own generator, shared by the groups in order
            states = np.repeat(_random_states(rng, 1, n), repeats, axis=0)
            generators = [np.random.default_rng(child_seed(trial, n, row)) for row in range(repeats)]
            for group in term_groups(obs):
                paulis = tuple(obs.terms[t][1] for t in group)
                means = sampled_expectation(states, paulis, shots, generators).mean(axis=0)
                for pauli, mean in zip(paulis, means):
                    exact = exact_expectation(states[:1], (pauli,))[0, 0]
                    sigma = np.sqrt(max(1.0 - exact**2, 0.0) / (shots * repeats))
                    assert abs(mean - exact) <= 4.0 * sigma + 1e-12, (pauli, mean, exact)


def test_grouped_call_equals_sequential_draws_from_one_generator():
    """A grouped call from a seed equals k single-string calls drawn in turn from that seed; shape (B, k)."""
    rng = np.random.default_rng(41)
    states = _random_states(rng, 4, 3)
    # Z and I need no rotation, so each string alone is measured in the group's basis ZZX too
    paulis = (PauliString("ZZX"), PauliString("ZIX"), PauliString("IZX"), PauliString("IIX"))
    seeds = [child_seed(2, row) for row in range(4)]
    grouped = sampled_expectation(states, paulis, 500, seeds)
    assert grouped.shape == (4, 4)
    generators = [np.random.default_rng(seed) for seed in seeds]
    for k, pauli in enumerate(paulis):
        column = sampled_expectation(states, (pauli,), 500, generators)
        assert column.shape == (4, 1)
        assert np.array_equal(grouped[:, k], column[:, 0])
    one = sampled_expectation(states[:1], paulis, 500, seeds[:1])
    assert one.shape == (1, 4) and np.array_equal(one, grouped[:1])
    with_identity = sampled_expectation(states, (PauliString("ZZX"), PauliString("III")), 500, seeds)
    assert np.all(with_identity[:, 1] == 1.0)


def test_grouped_exact_call_equals_one_call_per_string():
    """Exact mode reads every string of a qubit-wise-commuting tuple off one table, shape (B, k)."""
    states = _random_states(np.random.default_rng(43), 5, 3)
    # each string alone needs the same rotation as the group, so the tables are the same
    paulis = (PauliString("ZZX"), PauliString("ZIX"), PauliString("IIX"))
    grouped = exact_expectation(states, paulis)
    assert grouped.shape == (5, 3)
    for k, pauli in enumerate(paulis):
        assert np.array_equal(grouped[:, k], exact_expectation(states, (pauli,))[:, 0])
    assert np.array_equal(exact_expectation(states[:1], paulis), grouped[:1])
    # the identity is the squared norm of the rotated state
    with_identity = exact_expectation(states, (PauliString("ZZX"), PauliString("III")))
    assert np.max(np.abs(with_identity[:, 1] - 1.0)) <= 1e-14


def test_exact_expectation_is_not_renormalised():
    """<psi|P|psi> scales with the squared norm, as the Pauli-matrix product does."""
    rng = np.random.default_rng(47)
    for n in (1, 2, 3):
        state = 3.0 * _random_states(rng, 1, n)
        for ops in ("I" * n, "X" * n, "Y" * n, "".join(rng.choice(list("IXYZ"), size=n))):
            pauli = PauliString(ops)
            reference = np.vdot(state[0], pauli.matrix() @ state[0]).real
            assert exact_expectation(state, (pauli,))[0, 0] == pytest.approx(reference, rel=1e-13, abs=1e-13)


def test_strings_that_do_not_commute_qubit_wise_are_split_into_groups():
    """One call groups its strings greedily and answers in their order, as one call per group would.

    ``XZ`` and ``ZZ`` do not commute qubit-wise, so ``(XZ, ZZ, XI, IZ)``
    forms the groups ``(XZ, XI, IZ)`` and ``(ZZ,)``.  Shot mode draws the
    groups in that order from each state's one generator.
    """
    states = _random_states(np.random.default_rng(0), 2, 2)
    paulis = tuple(map(PauliString, ("XZ", "ZZ", "XI", "IZ")))
    groups = ((0, 2, 3), (1,))
    exact = exact_expectation(states, paulis)
    assert exact.shape == (2, 4)
    for group in groups:
        assert np.array_equal(exact[:, group], exact_expectation(states, tuple(paulis[i] for i in group)))
    sampled = sampled_expectation(states, paulis, 10, [1, 2])
    assert sampled.shape == (2, 4)
    generators = [np.random.default_rng(seed) for seed in (1, 2)]
    for group in groups:
        assert np.array_equal(sampled[:, group],
                              sampled_expectation(states, tuple(paulis[i] for i in group), 10, generators))
    with pytest.raises(ValueError, match="one generator per state"):
        sampled_expectation(states, (PauliString("XZ"), PauliString("XI")), 10, [1, 2, 3])
    for bad in ((), (PauliString("XZ"), PauliString("Z"))):
        with pytest.raises(ValueError, match="at least one|different qubit counts"):
            exact_expectation(states, bad)


def test_batched_expectations_equal_per_state_calls():
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 4):
        states = _random_states(rng, 5, n)
        for ops in ("X" * n, "Y" * n, "Z" * n, "".join(rng.choice(list("IXYZ"), size=n))):
            paulis = (PauliString(ops),)
            exact = exact_expectation(states, paulis)
            assert exact.shape == (5, 1)
            singles = np.concatenate([exact_expectation(state[None], paulis) for state in states])
            assert np.max(np.abs(exact - singles)) <= 1e-14
            seeds = [child_seed(4, row, 1) for row in range(5)]
            sampled = sampled_expectation(states, paulis, 1000, seeds)
            singles = np.concatenate([
                sampled_expectation(state[None], paulis, 1000, [seed]) for state, seed in zip(states, seeds)
            ])
            assert np.array_equal(sampled, singles)


def test_batched_sampling_needs_one_seed_per_state():
    states = _random_states(np.random.default_rng(0), 3, 2)
    paulis = (PauliString("XZ"),)
    with pytest.raises(ValueError, match="one generator per state"):
        sampled_expectation(states, paulis, 10, [1, 2])
    with pytest.raises(ValueError, match="one generator per state"):
        sampled_expectation(states[:1], paulis, 10, 1)


def test_shots_validation():
    """Shot counts that multinomial would truncate or reject are a ValueError."""
    zero = apply_circuit([], 1, 1)
    for shots in (0, 10.5, True, float("nan")):
        with pytest.raises(ValueError, match="shots"):
            sampled_expectation(zero, Z, shots, [1])


@pytest.mark.parametrize("bad", [
    np.array([[np.nan, 1.0]]),
    np.array([[np.inf, 0.0]]),
    np.array([[0.0, 0.0]]),
    np.array([[1.0, 0.0], [0.0, 0.0]]),
    np.array([[1.0, 0.0], [np.nan, 0.0]]),
])
@pytest.mark.parametrize("measure", ["exact", "sampled"])
def test_non_finite_or_zero_norm_states_are_rejected(bad, measure):
    with pytest.raises(ValueError, match="finite with nonzero norm"):
        if measure == "exact":
            exact_expectation(bad.astype(complex), Z)
        else:
            sampled_expectation(bad.astype(complex), Z, 10, [1] * len(bad))


@pytest.mark.parametrize("bad", [
    [0.0, 0.0, 0.0, 0.0],
    [np.nan, 0.0, 0.0, 0.0],
    [np.inf, np.inf, 0.0, 0.0],
    [np.inf, -np.inf, 1.0, 0.0],
    [1e200, 0.0, 0.0, 0.0],
])
@pytest.mark.parametrize("ops", ["XX", "YI", "IY", "XY"])
def test_rotated_bases_reject_the_rows_and_messages_of_the_z_basis(bad, ops):
    """The check reads the rotated table's row sums; a rotation must not hide a bad row or change its message.

    That holds for one string and for calls that rotate several groups at
    once, whichever groups rotate and in whichever order they come.
    """
    states = np.array([[0.5, 0.5, 0.5, 0.5], bad], dtype=complex)
    with pytest.raises(ValueError) as z_basis:
        exact_expectation(states, (PauliString("ZZ"),))
    assert "batch row 1" in str(z_basis.value)
    for labels in ((ops,), (ops, "ZZ"), ("ZZ", ops), (ops, "XX", "YY", "ZZ"), ("YY", "XY", ops)):
        paulis = tuple(map(PauliString, labels))
        for measure in (lambda: exact_expectation(states, paulis),
                        lambda: sampled_expectation(states, paulis, 10, [1, 2])):
            with pytest.raises(ValueError) as rotated:
                measure()
            assert str(rotated.value) == str(z_basis.value)


@pytest.mark.parametrize("shape", [(2,), (1, 4), (1, 1, 2)])
@pytest.mark.parametrize("measure", ["exact", "sampled"])
def test_states_must_be_one_batch_of_the_strings_register(shape, measure):
    """A single (2**n,) state, a wrong width or a 3-D array is not a (B, 2**n) batch."""
    states = np.ones(shape, dtype=complex)
    with pytest.raises(ValueError, match="expected \\(B, 2\\*\\*n\\)"):
        if measure == "exact":
            exact_expectation(states, Z)
        else:
            sampled_expectation(states, Z, 10, [1])


@pytest.mark.parametrize("measure", ["exact", "sampled"])
def test_a_bare_pauli_string_is_not_a_tuple_of_strings(measure):
    zero = apply_circuit([], 1, 1)
    with pytest.raises(TypeError, match="not iterable"):
        if measure == "exact":
            exact_expectation(zero, PauliString("Z"))
        else:
            sampled_expectation(zero, PauliString("Z"), 10, [1])


# --- stream splitting ---

def test_child_seed_streams_are_stable_and_distinct():
    a = np.random.default_rng(child_seed(3, 0, 0)).random(4)
    b = np.random.default_rng(child_seed(3, 0, 0)).random(4)
    c = np.random.default_rng(child_seed(3, 0, 1)).random(4)
    d = np.random.default_rng(child_seed(3, 1, 0)).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_child_seed_rejects_negative():
    with pytest.raises(ValueError):
        child_seed(-1, 0)


@pytest.mark.parametrize("entries", [(2.5, 1), (2, 1.7), (True, 1), (2, np.bool_(True)), ("2", 1)])
def test_child_seed_rejects_entries_that_are_not_integers(entries):
    """2.5 was truncated to 2, so a fractional sample index reused another sample's stream."""
    with pytest.raises(ValueError, match="child_seed"):
        child_seed(*entries)


@pytest.mark.parametrize("build", [
    lambda: Gate("RY", (True,), 0.1),
    lambda: Gate("CNOT", (0, 1.0)),
    lambda: apply_circuit([], True, 1),
    lambda: apply_circuit([], 2.5, 1),
])
def test_qubit_indices_and_counts_must_be_integers(build):
    with pytest.raises(ValueError, match="qubit"):
        build()


def test_a_large_measurement_holds_one_group_and_one_string_at_a_time():
    """Exact memory stays that of one (B, 2**n) table and product, for many groups and for one large group.

    Rotating into all G bases at once held (B, G, 2**n) amplitudes, and a
    (B, k_g, 2**n) product per group held k_g tables: the tracemalloc peak
    of these 6-qubit, 400-point measurements then read 18 and 16 MB, against
    under 2 MB one group and one string at a time.
    """
    import tracemalloc

    rng = np.random.default_rng(53)
    mixed = sorted({"".join(rng.choice(list("IXYZ"), size=6)) for _ in range(20)} - {"IIIIII"})
    z_type = sorted({"".join(rng.choice(list("IZ"), size=6)) for _ in range(200)} - {"IIIIII"})[:40]
    states = _random_states(rng, 400, 6)
    given = states.copy()
    for strings, groups in ((mixed, 16), (z_type, 1)):
        observable = ObservableSum(6, [(1.0, ops) for ops in strings])
        plan = observable.measurement.plan
        assert len(plan.groups) == groups and len(observable.terms) == len(strings)
        tracemalloc.start()
        try:
            exact_expectation(states, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 1024 * 1024
    # the rotations write in place only into arrays of their own
    assert np.array_equal(states, given)
