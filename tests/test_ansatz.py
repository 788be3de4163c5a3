"""Benchmark circuits, bandwidth annotations, and their empirical verification."""
import numpy as np
import pytest

from qsreg import (
    Ansatz,
    ObservableSum,
    deuteron_ansatz_1,
    deuteron_ansatz_2,
    verify_bandwidth,
)
from qsreg.ansatz import exact_objective
from qsreg.cli import PROBLEMS, ConfigError, load_problem

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
    ansatz = deuteron_ansatz_1()
    assert (ansatz.num_qubits, ansatz.num_params) == (2, 1)
    assert ansatz.bandwidths == (1,)


def test_ansatz_2_metadata():
    ansatz = deuteron_ansatz_2()
    assert (ansatz.num_qubits, ansatz.num_params) == (3, 2)
    assert ansatz.bandwidths == (1, 2)
    assert ansatz.param_names == ("theta", "eta")


def test_ansatz_1_reference_state_at_zero():
    ansatz = deuteron_ansatz_1()
    gates = ansatz.build([0.0])
    assert any(g.kind == "RY" and g.angle == 0.0 for g in gates)
    state = ansatz.state([0.0])
    expected = np.zeros(4)
    expected[0b10] = 1.0
    assert np.allclose(state, expected)


def test_ansatz_2_reference_state_at_zero():
    ansatz = deuteron_ansatz_2()
    state = ansatz.state([0.0, 0.0])
    expected = np.zeros(8)
    expected[0b100] = 1.0
    assert np.allclose(state, expected, atol=1e-15)


def test_builder_rejects_wrong_arity():
    with pytest.raises(ValueError):
        deuteron_ansatz_1().build([0.1, 0.2])


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


def test_verify_bandwidth_constant_observable():
    ansatz = deuteron_ansatz_2()
    constant = ObservableSum(3, [(1.0, "III")])
    report = verify_bandwidth(ansatz, constant, grid_points_per_axis=32)
    assert report.passed
    assert report.observed_bandwidths() == (0, 0)


def test_verify_bandwidth_flags_underdeclared_axis(deuteron2):
    """Annotating the doubled-frequency axis with S=1 must fail, naming it."""
    _, obs = deuteron2
    honest = deuteron_ansatz_2()
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
    assert report.failing_axes == ("eta",)
    assert report.checks[1].observed == 2


def test_verify_bandwidth_needs_resolution(deuteron2):
    with pytest.raises(ValueError):
        verify_bandwidth(*deuteron2, grid_points_per_axis=5)


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), 0.0, 1.0])
def test_verify_bandwidth_rejects_bad_tolerance(deuteron2, tolerance):
    """A tolerance outside (0, 1) would pass or fail every axis whatever the circuit."""
    with pytest.raises(ValueError, match="tolerance"):
        verify_bandwidth(*deuteron2, tolerance=tolerance)


def test_verify_bandwidth_rejects_zero_slices(deuteron2):
    with pytest.raises(ValueError, match="slice"):
        verify_bandwidth(*deuteron2, slices_per_axis=0)
