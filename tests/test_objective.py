"""Weighted expectation objective and its sample/query accounting."""
import gc
import tracemalloc

import numpy as np
import pytest

from qsreg import (
    Ansatz,
    EvalLedger,
    Gate,
    ObjectiveSpec,
    ObservableSum,
    PauliString,
    evaluate,
    evaluate_batch,
    nyquist_lattice,
)
from qsreg.ansatz import exact_objective
from qsreg.cli import load_problem
from qsreg.statevector import _measurement_passes, child_seed
from conftest import scan_polish_min, term_groups


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


@pytest.mark.parametrize("shots", [5, 0, 2.5])
def test_exact_mode_takes_no_shots(deuteron1, shots):
    """The shots were ignored, and qsr_run recorded them in the exact-mode model's metadata."""
    with pytest.raises(ValueError, match="exact mode takes no shots"):
        ObjectiveSpec(*deuteron1, mode="exact", shots=shots)


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
    ansatz = load_problem("deuteron-1")[0]
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


def test_shots_mode_rejects_a_fractional_sample_index(deuteron1):
    """Index 2.5 drew from sample 2's stream."""
    spec = ObjectiveSpec(*deuteron1, "shots", shots=500, seed=9)
    with pytest.raises(ValueError, match="child_seed"):
        evaluate(spec, [0.4], sample_index=2.5)


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
    plan = obs.measurement.plan
    identity = sum(weight for weight, pauli in obs.terms if pauli.is_identity)
    for row, state in enumerate(states):
        rng = np.random.default_rng(child_seed(seed, row))
        # the sampler's table in every group's basis, one (2**n,) row per group
        tables = [table[0] for table, *_ in _measurement_passes(state[None], plan)[1]]
        expected = 0.0
        for group, table in zip(term_groups(obs), tables):
            paulis = tuple(obs.terms[i][1] for i in group)
            ops = [pauli.ops for pauli in paulis]
            basis = "".join(next((label for label in column if label != "I"), "I") for column in zip(*ops))
            vectors = _outcome_vectors(basis)
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
    After the query's one call, each row's generator must stand where a
    fresh ``child_seed`` stream of its sample index stands after the G draws
    ``multinomial(shots, p_g, size=k_g)``, in group order, each of which
    moves it on.
    """
    import qsreg.objective

    seen = []

    def recording(states, paulis, shots, rngs):
        seen.append((states, paulis, shots, list(rngs)))
        return original(states, paulis, shots, rngs)

    original = qsreg.objective.sampled_expectation
    monkeypatch.setattr(qsreg.objective, "sampled_expectation", recording)
    ansatz, obs = deuteron2
    evaluate_batch(ObjectiveSpec(ansatz, obs, "shots", shots=100, seed=3), nyquist_lattice([1, 1]))
    assert len(seen) == 1 < len(obs.measurement.plan.groups)
    states, plan, shots, generators = seen[0]
    assert len({id(generator) for generator in generators}) == len(generators) == len(states)
    passes = list(_measurement_passes(states, plan)[1])
    table, totals = (np.stack([done[part] for done in passes], axis=1) for part in (0, 1))
    for row, generator in enumerate(generators):
        fresh = np.random.default_rng(child_seed(3, row))
        positions = [fresh.bit_generator.state["state"]["state"]]
        for g, (_, members) in enumerate(plan.groups):
            fresh.multinomial(shots, table[row, g] / totals[row, g], size=len(members))
            positions.append(fresh.bit_generator.state["state"]["state"])
        assert len(set(positions)) == len(positions)
        assert generator.bit_generator.state == fresh.bit_generator.state


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
    """An 81-point lattice is simulated once and all its measurement groups are measured in one call."""
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
    assert 1 < len(obs.measurement.plan.groups) < len(strings)
    assert calls == {"apply_circuit": 1, "exact_expectation": 1}


def test_observables_that_share_strings_keep_their_own_groups_and_weights():
    """Interleaved queries on observables that share strings equal the values of fresh objects.

    ``a`` and ``b`` share three strings but group and weigh them differently,
    and ``c`` acts on three qubits.
    """
    terms = {
        "a": (2, [(0.7, "ZI"), (-0.4, "IZ"), (0.3, "XX"), (0.2, "II")]),
        "b": (2, [(0.3, "XX"), (0.7, "ZI"), (-0.5, "IZ"), (0.9, "XI")]),
        "c": (3, [(0.7, "ZII"), (-0.4, "IZI"), (0.3, "XXI"), (1.1, "YYI"), (0.2, "III")]),
    }

    def spec(name, mode):
        num_qubits, weighted = terms[name]
        ansatz = load_problem("deuteron-1")[0] if num_qubits == 2 else load_problem("deuteron-2")[0]
        return ObjectiveSpec(ansatz, ObservableSum(num_qubits, weighted), mode=mode,
                             shots=1000 if mode == "shots" else None, seed=5)

    plans = [spec(name, "exact").observable.measurement.plan for name in ("a", "b")]
    assert plans[0].groups != plans[1].groups
    reused = {(name, mode): spec(name, mode) for name in terms for mode in ("exact", "shots")}
    rng = np.random.default_rng(8)
    for step in range(30):
        (name, mode), current = list(reused.items())[step % len(reused)]
        theta = rng.uniform(-np.pi, np.pi, current.num_params)
        value = evaluate(current, theta, sample_index=step)
        assert value == evaluate(spec(name, mode), theta, sample_index=step)


def test_per_observable_data_does_not_grow_with_the_observables_seen():
    """1,000 distinct observables in a loop: what stays held after the first 100 must not grow with them."""
    ansatz = _ladder()[0]
    rng = np.random.default_rng(2024)
    theta = [0.1, 0.2, 0.3, 0.4]

    def evaluate_new_observables(count):
        for _ in range(count):
            strings = set()
            while len(strings) < 6:
                ops = "".join("IXYZ"[k] for k in rng.integers(0, 4, size=4))
                if ops != "IIII":
                    strings.add(ops)
            observable = ObservableSum(4, [(float(rng.normal()), ops) for ops in sorted(strings)])
            evaluate(ObjectiveSpec(ansatz, observable), theta)

    tracemalloc.start()
    try:
        evaluate_new_observables(100)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        evaluate_new_observables(900)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()
    # a cache that kept every observable's groups grew by about 0.9 MB here
    assert grown < 256 * 1024


def test_measurement_plans_stay_small():
    """One 4-qubit, 8-term observable's measurement holds under 8 KB.

    It keeps each group's basis as a string, the strings' parity signs and
    the group order with its weights; the change-of-basis vectors are
    cached per qubit, not per observable.  Plans that cached a (G, 2**n)
    complex table per rotated qubit held about 14 KB each.
    """
    rng = np.random.default_rng(64)
    strings = set()
    while len(strings) < 8:
        ops = "".join("IXYZ"[k] for k in rng.integers(0, 4, size=4))
        if ops != "IIII":
            strings.add(ops)
    observable = ObservableSum(4, [(float(rng.normal()), ops) for ops in sorted(strings)])
    gc.collect()
    tracemalloc.start()
    try:
        measurement = observable.measurement
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert measurement.plan.signs.shape == (8, 16) and len(measurement.plan.groups) > 1
    assert held < 8 * 1024


def test_a_fresh_observable_is_grouped_once(monkeypatch):
    """The first query groups a fresh observable's strings once, the engine included; later queries reuse its plan."""
    import qsreg.observables
    import qsreg.statevector

    calls = []
    original = qsreg.observables.qubit_wise_groups

    def counted(paulis):
        calls.append(paulis)
        return original(paulis)

    # the engine must not keep a grouping of its own under the same name either
    for module in (qsreg.observables, qsreg.statevector):
        monkeypatch.setattr(module, "qubit_wise_groups", counted, raising=False)
    ansatz = _ladder()[0]
    # strings that no other test measures, so that no cache anywhere already holds their grouping
    observable = ObservableSum(4, [(0.3, "XZYI"), (-0.7, "IZYX"), (1.1, "YIXZ"), (0.2, "ZZII"), (0.4, "IIII")])
    spec = ObjectiveSpec(ansatz, observable)
    points = nyquist_lattice([1, 1, 1, 1])[:9]
    evaluate_batch(spec, points)
    assert len(calls) == 1
    evaluate_batch(spec, points)
    evaluate(spec, points[0])
    assert len(calls) == 1
