"""Weighted expectation objective and its sample/query accounting."""
import numpy as np
import pytest

from qsreg import (
    EvalLedger,
    ObjectiveSpec,
    ObservableSum,
    deuteron_ansatz_1,
    evaluate,
    evaluate_batch,
    nyquist_lattice,
)
from conftest import scan_polish_min


def test_spec_validation(deuteron1):
    ansatz, obs = deuteron1
    with pytest.raises(ValueError):
        ObjectiveSpec(ansatz, ObservableSum(3, [(1.0, "ZII")]))
    with pytest.raises(ValueError):
        ObjectiveSpec(ansatz, obs, mode="fuzzy")
    with pytest.raises(ValueError):
        ObjectiveSpec(ansatz, obs, mode="shots")  # missing shots


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
    """Per-(point, term) streams make batch order irrelevant."""
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
