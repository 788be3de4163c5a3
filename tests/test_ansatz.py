"""Benchmark circuits, bandwidth annotations, and their empirical verification."""
import numpy as np
import pytest

from qsreg import (
    Ansatz,
    Gate,
    ObjectiveSpec,
    ObservableSum,
    evaluate_batch,
    verify_bandwidth,
)
from qsreg.ansatz import BandwidthAxisCheck, BandwidthReport, exact_objective
from qsreg.cli import PROBLEMS, ConfigError, load_problem
from qsreg.regression import lattice_axes

from conftest import scan_polish_min


def test_registry():
    assert sorted(PROBLEMS) == ["deuteron-1", "deuteron-2"]
    for name in PROBLEMS:
        ansatz, observable = load_problem(name)
        assert ansatz.name == name
        assert ansatz.num_qubits == observable.num_qubits
    with pytest.raises(ConfigError, match="nope"):
        load_problem("nope")


def test_ansatz_1_metadata():
    ansatz = load_problem("deuteron-1")[0]
    assert (ansatz.num_qubits, ansatz.num_params) == (2, 1)
    assert ansatz.bandwidths == (1,)


def test_ansatz_2_metadata():
    ansatz = load_problem("deuteron-2")[0]
    assert (ansatz.num_qubits, ansatz.num_params) == (3, 2)
    assert ansatz.bandwidths == (1, 2)
    assert ansatz.param_names == ("theta", "eta")


def test_ansatz_1_reference_state_at_zero():
    ansatz = load_problem("deuteron-1")[0]
    gates = ansatz.build([0.0])
    assert any(g.kind == "RY" and g.angle == 0.0 for g in gates)
    state = ansatz.states([[0.0]])
    expected = np.zeros((1, 4))
    expected[0, 0b10] = 1.0
    assert np.allclose(state, expected)


def test_ansatz_2_reference_state_at_zero():
    ansatz = load_problem("deuteron-2")[0]
    state = ansatz.states([[0.0, 0.0]])
    expected = np.zeros((1, 8))
    expected[0, 0b100] = 1.0
    assert np.allclose(state, expected, atol=1e-15)


def test_states_of_a_circuit_without_rotations_has_one_row_per_point():
    fixed = Ansatz("fixed", 2, 1, (0,), ("t",), lambda theta: [Gate("X", (0,)), Gate("CNOT", (0, 1))])
    states = fixed.states(np.zeros((3, 1)))
    expected = np.zeros((3, 4))
    expected[:, 0b11] = 1.0
    assert np.array_equal(states, expected)


def test_ansatz_bandwidths_use_the_regression_check():
    honest = load_problem("deuteron-2")[0]

    def with_bandwidths(bandwidths):
        return Ansatz("check", 3, 2, bandwidths, honest.param_names, honest.builder)

    for bad in [(True, 2), (1.5, 2), (1, -1)]:
        with pytest.raises(ValueError, match="bandwidths"):
            with_bandwidths(bad)
    normalised = with_bandwidths((np.int64(1), 2.0)).bandwidths
    assert normalised == (1, 2)
    assert all(type(s) is int for s in normalised)


@pytest.mark.parametrize("field, value", [("num_qubits", 2.5), ("num_qubits", True), ("num_qubits", 0),
                                          ("num_params", True), ("num_params", 2.0 + 1e-9)])
def test_ansatz_counts_must_be_positive_integers(field, value):
    honest = load_problem("deuteron-2")[0]
    fields = dict(name="check", num_qubits=3, num_params=2, bandwidths=honest.bandwidths,
                  param_names=honest.param_names, builder=honest.builder)
    with pytest.raises(ValueError, match=field):
        Ansatz(**{**fields, field: value})


def test_builder_rejects_wrong_arity():
    with pytest.raises(ValueError):
        load_problem("deuteron-1")[0].build([0.1, 0.2])


def test_build_of_a_point_array_stacks_each_rotations_angles():
    ansatz = load_problem("deuteron-2")[0]
    points = np.array([[0.1, 0.2], [0.3, -0.4], [1.5, 2.5]])
    batch = ansatz.build(points)
    single = [ansatz.build(point) for point in points]
    assert [(g.kind, g.qubits) for g in batch] == [(g.kind, g.qubits) for g in single[0]]
    for i, gate in enumerate(batch):
        if gate.angle is not None:
            assert np.array_equal(gate.angle, [gates[i].angle for gates in single])
    assert ansatz.build(points[:1]) == single[0]
    with pytest.raises(ValueError, match="need at least one parameter point"):
        ansatz.build(np.empty((0, 2)))
    with pytest.raises(ValueError, match="points must have shape"):
        ansatz.states([0.1, 0.2])


def test_states_reject_a_builder_whose_layout_depends_on_theta():
    def builder(theta):
        return [Gate("RY", (0,), float(theta[0]))] + ([Gate("X", (1,))] if theta[0] > 0 else [])

    ansatz = Ansatz("shifty", 2, 1, (1,), ("t",), builder)
    with pytest.raises(ValueError, match="different gate layout"):
        ansatz.states([[-0.5], [0.5]])


def test_objective_is_two_pi_periodic(deuteron2):
    ansatz, obs = deuteron2
    rng = np.random.default_rng(12)
    for _ in range(5):
        theta = rng.uniform(-np.pi, np.pi, size=2)
        base = exact_objective(ansatz, obs, theta)
        for axis in range(2):
            shifted = theta.copy()
            shifted[axis] += 2 * np.pi
            assert exact_objective(ansatz, obs, shifted) == pytest.approx(base, abs=1e-12)


def test_ansatz_1_minimum_matches_diagonalization(deuteron1, lam_d1):
    """Behavioral anchor: the circuit spans the subspace holding the ground state."""
    ansatz, obs = deuteron1
    _, value = scan_polish_min(ansatz, obs, scan_per_axis=2000)
    assert abs(value - lam_d1) < 1e-9


def test_ansatz_2_minimum_matches_diagonalization(deuteron2, lam_d2):
    ansatz, obs = deuteron2
    _, value = scan_polish_min(ansatz, obs, scan_per_axis=120)
    assert abs(value - lam_d2) < 1e-9


# --- verify_bandwidth ---

def test_verify_bandwidth_deuteron_1(deuteron1):
    report = verify_bandwidth(*deuteron1, grid_points_per_axis=64, tolerance=1e-8)
    assert report.passed
    assert report.observed_bandwidths() == (1,)


def test_verify_bandwidth_deuteron_2(deuteron2):
    report = verify_bandwidth(*deuteron2, grid_points_per_axis=64, tolerance=1e-8)
    assert report.passed
    assert report.observed_bandwidths() == (1, 2)


def _per_slice_scan(ansatz, observable, grid_points, tolerance):
    """Reference: one evaluate_batch per (axis, slice), 5 slices per axis, each slice's offsets drawn in
    turn from one generator of seed 202."""
    rng = np.random.default_rng(202)
    grid = lattice_axes([grid_points])[0]
    spec = ObjectiveSpec(ansatz, observable)
    checks = []
    for axis, declared in enumerate(ansatz.bandwidths):
        maxima = []
        for _ in range(5 if ansatz.num_params > 1 else 1):
            points = np.tile(rng.uniform(-np.pi, np.pi, size=ansatz.num_params), (grid.size, 1))
            points[:, axis] = grid
            amplitudes = np.abs(np.fft.rfft(evaluate_batch(spec, points))) / grid_points
            above = np.nonzero(amplitudes > tolerance * amplitudes.max())[0]
            maxima.append(int(above.max()) if amplitudes.max() > 0.0 and above.size else 0)
        observed = max(maxima)
        checks.append(BandwidthAxisCheck(axis, ansatz.param_names[axis], declared, observed,
                                         observed <= declared, tuple(maxima)))
    return BandwidthReport(tuple(checks))


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
@pytest.mark.parametrize("grid_points, tolerance", [(64, 1e-8), (16, 1e-3)])
def test_verify_bandwidth_is_one_query_equal_to_the_per_slice_scan(monkeypatch, problem, grid_points, tolerance):
    import qsreg.ansatz

    ansatz, observable = load_problem(problem)
    reference = _per_slice_scan(ansatz, observable, grid_points, tolerance)
    queries = []
    original = qsreg.ansatz.evaluate_batch
    monkeypatch.setattr(qsreg.ansatz, "evaluate_batch", lambda *args: queries.append(1) or original(*args))
    report = verify_bandwidth(ansatz, observable, grid_points, tolerance)
    assert report == reference
    assert len(queries) == 1


def test_verify_bandwidth_constant_observable():
    ansatz = load_problem("deuteron-2")[0]
    constant = ObservableSum(3, [(1.0, "III")])
    report = verify_bandwidth(ansatz, constant, grid_points_per_axis=32)
    assert report.passed
    assert report.observed_bandwidths() == (0, 0)


def test_verify_bandwidth_flags_underdeclared_axis(deuteron2):
    """Annotating the doubled-frequency axis with S=1 must fail, naming it."""
    _, obs = deuteron2
    honest = load_problem("deuteron-2")[0]
    lying = Ansatz(
        name="underdeclared",
        num_qubits=honest.num_qubits,
        num_params=honest.num_params,
        bandwidths=(1, 1),
        param_names=honest.param_names,
        builder=honest.builder,
    )
    report = verify_bandwidth(lying, obs, grid_points_per_axis=64)
    assert not report.passed
    assert [c.name for c in report.checks if not c.passed] == ["eta"]
    assert report.checks[1].observed == 2


def test_verify_bandwidth_needs_resolution(deuteron2):
    with pytest.raises(ValueError):
        verify_bandwidth(*deuteron2, grid_points_per_axis=5)


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), 0.0, 1.0])
def test_verify_bandwidth_rejects_bad_tolerance(deuteron2, tolerance):
    """A tolerance outside (0, 1) would pass or fail every axis whatever the circuit."""
    with pytest.raises(ValueError, match="tolerance"):
        verify_bandwidth(*deuteron2, tolerance=tolerance)


@pytest.mark.parametrize("setting, value", [
    ("grid_points_per_axis", 64.5), ("grid_points_per_axis", True), ("grid_points_per_axis", "64"),
])
def test_verify_bandwidth_rejects_non_integer_settings(deuteron2, setting, value):
    """int() or range() would truncate these or fail with TypeError: 64.5 grid points scanned 64."""
    with pytest.raises(ValueError, match=setting):
        verify_bandwidth(*deuteron2, **{setting: value})
