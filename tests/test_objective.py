"""Weighted expectation objective and its sample/query accounting."""
import numpy as np
import pytest

from qsreg import (
    Ansatz,
    EvalLedger,
    Gate,
    ObjectiveSpec,
    ObservableSum,
    PauliString,
    deuteron_ansatz_1,
    evaluate,
    evaluate_batch,
    nyquist_lattice,
)
from qsreg.ansatz import exact_objective
from qsreg.statevector import _measurement_table, child_seed
from conftest import scan_polish_min


_LADDER_STRINGS = ["XXII", "IYYI", "IIZZ", "ZIIZ", "XYZI", "IZXY", "YIIX", "ZZZZ"]


def _ladder():
    """A 4-qubit, 4-parameter RY+CNOT ladder and an 8-string observable with an identity term."""

    def builder(theta):
        gates = [Gate("X", (0,)), Gate("X", (2,))]
        gates += [Gate("RY", (j,), float(theta[j])) for j in range(4)]
        return gates + [Gate("CNOT", (q, q + 1)) for q in range(3)]

    ansatz = Ansatz("ladder", 4, 4, (1, 1, 1, 1), ("a", "b", "c", "d"), builder)
    obs = ObservableSum(4, [(0.5, "IIII")] + [(1.0 + k, p) for k, p in enumerate(_LADDER_STRINGS)])
    return ansatz, obs


def test_spec_validation(deuteron1):
    ansatz, obs = deuteron1
    with pytest.raises(ValueError):
        ObjectiveSpec(ansatz, ObservableSum(3, [(1.0, "ZII")]))
    with pytest.raises(ValueError):
        ObjectiveSpec(ansatz, obs, mode="fuzzy")
    with pytest.raises(ValueError):
        ObjectiveSpec(ansatz, obs, mode="shots")  # missing shots


@pytest.mark.parametrize("field, value", [("shots", 2.5), ("shots", True), ("shots", "10"),
                                          ("seed", 2.9), ("seed", np.True_)])
def test_spec_rejects_non_integer_shots_and_seed(deuteron1, field, value):
    with pytest.raises(ValueError, match=field):
        ObjectiveSpec(*deuteron1, "shots", **{"shots": 10, "seed": 0, field: value})


def test_spec_accepts_numpy_integers(deuteron1):
    spec = ObjectiveSpec(*deuteron1, "shots", shots=np.int64(10), seed=np.uint32(4))
    assert (spec.shots, spec.seed) == (10, 4)
    assert type(spec.shots) is int and type(spec.seed) is int


@pytest.mark.parametrize("problem", ["deuteron1", "deuteron2"])
def test_exact_objective_is_evaluate(request, problem):
    ansatz, obs = request.getfixturevalue(problem)
    spec = ObjectiveSpec(ansatz, obs)
    rng = np.random.default_rng(17)
    for theta in rng.uniform(-np.pi, np.pi, size=(20, ansatz.num_params)):
        assert exact_objective(ansatz, obs, theta) == evaluate(spec, theta)
    wider = ObservableSum(ansatz.num_qubits + 1, [(1.0, "Z" * (ansatz.num_qubits + 1))])
    with pytest.raises(ValueError):
        exact_objective(ansatz, wider, theta)


def test_identity_only_observable_is_exactly_one():
    ansatz = deuteron_ansatz_1()
    obs = ObservableSum(2, [(1.0, "II")])
    ledger = EvalLedger()
    spec = ObjectiveSpec(ansatz, obs, "shots", shots=50, seed=1)
    assert evaluate(spec, [0.3], ledger) == 1.0
    assert ledger.samples == 1 and ledger.queries == 1
    assert ledger.measurements == 0  # identity never consumes shots


def test_exact_evaluation_is_linear(deuteron1):
    ansatz, obs = deuteron1
    alpha, beta = 0.7, -1.3
    combined = ObservableSum(
        2,
        [(alpha * w, p.ops) for w, p in obs.terms]
        + [(beta * 1.0, "XX"), (beta * 0.5, "ZI")],
    )
    part_b = ObservableSum(2, [(1.0, "XX"), (0.5, "ZI")])
    rng = np.random.default_rng(2)
    for theta in rng.uniform(-np.pi, np.pi, size=(5, 1)):
        lhs = evaluate(ObjectiveSpec(ansatz, combined), theta)
        rhs = alpha * evaluate(ObjectiveSpec(ansatz, obs), theta) + beta * evaluate(
            ObjectiveSpec(ansatz, part_b), theta
        )
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_shots_mode_seeded_determinism(deuteron1):
    ansatz, obs = deuteron1
    spec = ObjectiveSpec(ansatz, obs, "shots", shots=500, seed=9)
    a = evaluate(spec, [0.4])
    b = evaluate(spec, [0.4])
    assert a == b
    # a different point in the stream resamples
    c = evaluate(spec, [0.4], sample_index=1)
    assert a != c


def test_exact_minimum_matches_diagonalization(deuteron1, lam_d1):
    ansatz, obs = deuteron1
    theta_min, value = scan_polish_min(ansatz, obs, scan_per_axis=2000)
    spec = ObjectiveSpec(ansatz, obs)
    assert evaluate(spec, theta_min) == pytest.approx(value, abs=1e-12)
    assert abs(value - lam_d1) < 1e-9


def test_batch_counts_one_query(deuteron1):
    ansatz, obs = deuteron1
    spec = ObjectiveSpec(ansatz, obs)
    ledger = EvalLedger()
    points = nyquist_lattice([1])
    values = evaluate_batch(spec, points, ledger)
    assert values.shape == (3,)
    assert ledger.samples == 3
    assert ledger.queries == 1


def test_batch_of_25(deuteron2):
    ansatz, obs = deuteron2
    spec = ObjectiveSpec(ansatz, obs)
    ledger = EvalLedger()
    values = evaluate_batch(spec, nyquist_lattice([2, 2]), ledger)
    assert values.shape == (25,)
    assert ledger.samples == 25
    assert ledger.queries == 1


def test_batch_rejects_empty(deuteron1):
    spec = ObjectiveSpec(*deuteron1)
    with pytest.raises(ValueError):
        evaluate_batch(spec, np.empty((0, 1)))


def test_batch_matches_indexed_singles(deuteron1):
    """One stream per sample index makes batch order irrelevant."""
    ansatz, obs = deuteron1
    spec = ObjectiveSpec(ansatz, obs, "shots", shots=300, seed=5)
    points = nyquist_lattice([2])
    batch = evaluate_batch(spec, points)
    singles = [evaluate(spec, p, sample_index=i) for i, p in enumerate(points)]
    assert np.array_equal(batch, np.asarray(singles))
    # evaluating in shuffled order reproduces the same values
    order = [3, 0, 4, 1, 2]
    shuffled = {i: evaluate(spec, points[i], sample_index=i) for i in order}
    assert all(shuffled[i] == batch[i] for i in order)


@pytest.mark.parametrize("problem", ["deuteron2", "ladder"])
def test_exact_rows_do_not_depend_on_the_batch(request, problem):
    """Exact evaluate at a point is bit for bit its row of evaluate_batch, whatever the batch's memory layout."""
    ansatz, obs = _ladder() if problem == "ladder" else request.getfixturevalue(problem)
    spec = ObjectiveSpec(ansatz, obs)
    points = np.random.default_rng(23).uniform(-np.pi, np.pi, size=(37, ansatz.num_params))
    batch = evaluate_batch(spec, points)
    assert np.array_equal(batch, [evaluate(spec, theta) for theta in points])


def test_single_and_batch_ledgers_agree_per_point(deuteron2):
    """evaluate at sample_index k is row k of evaluate_batch, ledger included."""
    spec = ObjectiveSpec(*deuteron2, "shots", shots=100, seed=3)
    points = nyquist_lattice([1, 1])
    batch_ledger = EvalLedger()
    batch = evaluate_batch(spec, points, batch_ledger)
    for k, theta in enumerate(points):
        ledger = EvalLedger()
        assert evaluate(spec, theta, ledger, sample_index=k) == batch[k]
        assert (ledger.samples, ledger.queries) == (1, 1)
        assert ledger.measurements * len(points) == batch_ledger.measurements


def _outcome_vectors(basis_ops):
    """Column i: the product eigenvector of outcome i, qubit 0 the high bit, bit 0 the eigenvalue +1 state."""
    vectors = np.array([[1.0 + 0.0j]])
    for label in basis_ops:
        _, eigenvectors = np.linalg.eigh(PauliString("Z" if label == "I" else label).matrix())
        vectors = np.kron(vectors, eigenvectors[:, ::-1])  # eigh sorts -1 first
    return vectors


def test_shot_streams_are_one_generator_per_sample(deuteron2):
    """Bit for bit: row r draws multinomial(shots, p, size=k) per group, in order, from one stream.

    The stream is ``default_rng(child_seed(seed, r))``, and ``p`` are the
    outcome probabilities in the group's basis.  They are
    computed here from Pauli-matrix eigenvectors and must match the
    sampler's to 1e-14; the draws then use the sampler's own ``p``, because
    an ulp can move one count (multinomial's binomial steps branch at
    probability 1/2, which uniform rows hit).  Each term's value is its
    eigenvalue signs dotted with its counts over ``shots``; the identity
    weight comes last.
    """
    ansatz, obs = deuteron2
    shots, seed = 10_000, 7
    points = nyquist_lattice([2, 2])
    values = evaluate_batch(ObjectiveSpec(ansatz, obs, "shots", shots=shots, seed=seed), points)
    states = ansatz.states(points)
    identity = sum(weight for weight, pauli in obs.terms if pauli.is_identity)
    for row, state in enumerate(states):
        rng = np.random.default_rng(child_seed(seed, row))
        expected = 0.0
        for group in obs.measurement_groups:
            paulis = tuple(obs.terms[i][1] for i in group)
            ops = [pauli.ops for pauli in paulis]
            basis = "".join(next((label for label in column if label != "I"), "I") for column in zip(*ops))
            vectors = _outcome_vectors(basis)
            table = _measurement_table(state[None], paulis)[0][0]
            p = table / table.sum()
            assert np.max(np.abs(np.abs(vectors.conj().T @ state) ** 2 - p)) <= 1e-14
            counts = rng.multinomial(shots, p, size=len(group))
            for term_index, pauli, term_counts in zip(group, paulis, counts):
                eigenvalues = np.einsum("ji,jk,ki->i", vectors.conj(), pauli.matrix(), vectors).real
                signs = np.rint(eigenvalues)
                assert np.max(np.abs(eigenvalues - signs)) <= 1e-12
                expected += obs.terms[term_index][0] * (signs @ term_counts / shots)
        assert values[row] == expected + identity


def test_groups_of_one_sample_continue_its_stream(deuteron2, monkeypatch):
    """Every group of a row draws from the row's one generator where the previous group stopped.

    Handing each group a fresh stream from the same seed would reuse the
    same uniforms for every group and correlate the groups' shot noise.
    """
    import qsreg.objective

    seen = []

    def recording(states, paulis, shots, rngs):
        seen.append([(id(rng), rng.bit_generator.state["state"]["state"]) for rng in rngs])
        return original(states, paulis, shots, rngs)

    original = qsreg.objective.sampled_expectation
    monkeypatch.setattr(qsreg.objective, "sampled_expectation", recording)
    ansatz, obs = deuteron2
    evaluate_batch(ObjectiveSpec(ansatz, obs, "shots", shots=100, seed=3), nyquist_lattice([1, 1]))
    assert len(seen) == len(obs.measurement_groups) > 1
    for row, calls in enumerate(zip(*seen)):
        fresh = np.random.default_rng(child_seed(3, row)).bit_generator.state["state"]["state"]
        assert calls[0][1] == fresh
        assert len({generator for generator, _ in calls}) == 1
        assert len({state for _, state in calls}) == len(calls)


def test_measurement_accounting(deuteron1):
    ansatz, obs = deuteron1
    non_identity = sum(1 for _, p in obs.terms if not p.is_identity)
    spec = ObjectiveSpec(ansatz, obs, "shots", shots=100, seed=0)
    ledger = EvalLedger()
    evaluate_batch(spec, nyquist_lattice([1]), ledger)
    assert ledger.measurements == 3 * non_identity * 100


def test_variational_bound(deuteron1, deuteron2, lam_d1, lam_d2):
    """200 random exact evaluations per problem stay above the ground energy."""
    rng = np.random.default_rng(31)
    for (ansatz, obs), lam in ((deuteron1, lam_d1), (deuteron2, lam_d2)):
        spec = ObjectiveSpec(ansatz, obs)
        points = rng.uniform(-np.pi, np.pi, size=(200, ansatz.num_params))
        values = evaluate_batch(spec, points)
        assert values.min() >= lam - 1e-10


def test_dimension_mismatch(deuteron1):
    spec = ObjectiveSpec(*deuteron1)
    with pytest.raises(ValueError):
        evaluate(spec, [0.1, 0.2])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_parameters_are_rejected(deuteron1, bad):
    spec = ObjectiveSpec(*deuteron1)
    with pytest.raises(ValueError, match="finite"):
        evaluate(spec, [bad])
    with pytest.raises(ValueError, match="finite"):
        evaluate_batch(spec, [[0.1], [bad]])


def test_builder_with_a_varying_gate_layout_is_rejected(deuteron1):
    """A builder must emit the same gate kinds and wiring at every point of a batch."""
    _, obs = deuteron1

    def builder(theta):
        gates = [Gate("X", (0,)), Gate("RY", (1,), float(theta[0])), Gate("CNOT", (1, 0))]
        return gates + [Gate("Z", (0,))] if theta[0] > 0 else gates

    ansatz = Ansatz("varying", 2, 1, (1,), ("theta",), builder)
    spec = ObjectiveSpec(ansatz, obs)
    with pytest.raises(ValueError, match="gate layout"):
        evaluate_batch(spec, nyquist_lattice([1]))
    # one point at a time never mixes layouts
    assert np.isfinite(evaluate(spec, [1.0]))


def test_one_query_is_one_simulation_pass(monkeypatch):
    """An 81-point lattice is simulated once and each measurement group is evaluated once."""
    import qsreg.ansatz
    import qsreg.objective

    ansatz, obs = _ladder()
    strings = _LADDER_STRINGS
    calls = {"apply_circuit": 0, "exact_expectation": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(qsreg.ansatz, "apply_circuit", counted("apply_circuit", qsreg.ansatz.apply_circuit))
    monkeypatch.setattr(qsreg.objective, "exact_expectation",
                        counted("exact_expectation", qsreg.objective.exact_expectation))
    values = evaluate_batch(ObjectiveSpec(ansatz, obs), nyquist_lattice([1, 1, 1, 1]))
    assert values.shape == (81,)
    assert len(obs.measurement_groups) < len(strings)
    assert calls == {"apply_circuit": 1, "exact_expectation": len(obs.measurement_groups)}
