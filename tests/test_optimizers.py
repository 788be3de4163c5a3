"""Simplex minimizer, model global minimization, and the two solver pipelines."""
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qsreg import (
    Ansatz,
    EvalLedger,
    FourierModel,
    Gate,
    ObjectiveSpec,
    ObservableSum,
    exact_spectrum,
    nelder_mead_minimize,
    qsr_run,
    regression_global_minimize,
    vqe_run,
    wrap_angles,
)
from qsreg.ansatz import exact_objective
from qsreg.regression import lattice_axes

from conftest import scan_polish_min

ROOT = Path(__file__).resolve().parent.parent


def test_wrap_angles_half_open_domain():
    wrapped = wrap_angles([np.pi, -np.pi, 3 * np.pi, 0.0, 2 * np.pi])
    assert np.allclose(wrapped, [np.pi, np.pi, np.pi, 0.0, 0.0])
    assert np.all(wrapped > -np.pi) and np.all(wrapped <= np.pi)


# --- nelder_mead_minimize ---

def test_nm_convex_quadratic():
    result = nelder_mead_minimize(lambda t: (t[0] - 0.3) ** 2, [0.0], xtol=1e-8, ftol=1e-12)
    assert result.converged
    assert abs(result.theta_min[0] - 0.3) < 1e-6


def test_nm_cosine_to_pi():
    result = nelder_mead_minimize(lambda t: np.cos(t[0]), [0.1], xtol=1e-8, ftol=1e-10,
                                  max_evals=2000)
    assert result.value_min == pytest.approx(-1.0, abs=1e-8)
    assert abs(abs(result.theta_min[0]) - np.pi) < 1e-3


def test_nm_on_exact_objective(deuteron1):
    ansatz, obs = deuteron1
    _, oracle_value = scan_polish_min(ansatz, obs, scan_per_axis=2000)
    result = nelder_mead_minimize(
        lambda t: exact_objective(ansatz, obs, t), [0.5], xtol=1e-8, ftol=1e-10,
        max_evals=2000,
    )
    assert abs(result.value_min - oracle_value) < 1e-6


def test_nm_budget_exhaustion_is_not_an_error():
    calls = []
    result = nelder_mead_minimize(lambda t: calls.append(1) or t[0] ** 2, [1.0], max_evals=1)
    assert result.evaluations == 1
    assert len(calls) == 1
    assert not result.converged


@pytest.mark.parametrize("setting, value", [("max_evals", 0), ("max_evals", -3), ("max_evals", 2.5),
                                            ("max_evals", True), ("xtol", math.nan), ("xtol", -1.0),
                                            ("xtol", "1e-6"), ("ftol", -1.0), ("ftol", math.inf)])
def test_nm_rejects_bad_settings(setting, value):
    """A fractional budget ran as its ceiling and a NaN or negative tolerance could never be met."""
    with pytest.raises(ValueError, match=setting):
        nelder_mead_minimize(lambda t: t[0] ** 2, [0.5], **{setting: value})


def test_nm_never_exceeds_budget():
    for budget in (1, 2, 5, 17):
        result = nelder_mead_minimize(
            lambda t: np.sin(3 * t[0]) + t[1] ** 2, [0.3, 0.4], max_evals=budget,
            xtol=1e-12, ftol=1e-12,
        )
        assert result.evaluations <= budget


def test_nm_trace_records_every_evaluation():
    result = nelder_mead_minimize(lambda t: t[0] ** 2, [0.5], max_evals=40, record_trace=True)
    assert len(result.trace) == result.evaluations
    values = [v for _, v in result.trace]
    assert min(values) == result.value_min


def test_nm_result_value_matches_theta(deuteron1):
    ansatz, obs = deuteron1
    f = lambda t: exact_objective(ansatz, obs, t)
    result = nelder_mead_minimize(f, [1.0], max_evals=300)
    assert f(result.theta_min) == pytest.approx(result.value_min, abs=1e-12)


# --- regression_global_minimize ---

def test_global_minimize_analytic_model():
    model = FourierModel((1,), [2.0, 1.0, 0.0])  # 2 + cos t, minimum 1 at pi
    result = regression_global_minimize(model)
    assert result.value_min == pytest.approx(1.0, abs=1e-8)
    assert abs(result.theta_min[0]) == pytest.approx(np.pi, abs=1e-4)


def test_global_minimize_constant_model_tie_break():
    model = FourierModel((0,), [5.0])
    result = regression_global_minimize(model)
    assert result.value_min == pytest.approx(5.0)
    # ties break to the lexicographically smallest grid point
    first_grid_point = -np.pi + 2 * np.pi / 8.0
    assert result.theta_min[0] == pytest.approx(first_grid_point)


def test_global_minimize_zero_model():
    result = regression_global_minimize(FourierModel((1, 1), np.zeros(9)))
    assert result.value_min == 0.0
    assert np.all(result.theta_min == -np.pi + 2 * np.pi / 24.0)


def test_global_minimize_scaling_invariance():
    """Positive rescaling preserves the argmin: bit-exact for binary scales
    (where float rounding commutes with the scaling), near-exact otherwise."""
    rng = np.random.default_rng(15)
    model = FourierModel((2,), rng.uniform(-1, 1, 5))
    a = regression_global_minimize(model)
    binary_scaled = FourierModel((2,), 4.0 * model.coefficients)
    b = regression_global_minimize(binary_scaled)
    assert np.array_equal(a.theta_min, b.theta_min)
    assert b.value_min == 4.0 * a.value_min
    odd_scaled = FourierModel((2,), 3.7 * model.coefficients)
    c = regression_global_minimize(odd_scaled)
    assert np.allclose(c.theta_min, a.theta_min, atol=1e-6)


def test_global_minimize_deuteron_model(deuteron1, lam_d1):
    ansatz, obs = deuteron1
    spec = ObjectiveSpec(ansatz, obs)
    model, result, _ = qsr_run(spec)
    assert abs(result.value_min - lam_d1) < 1e-8


def test_global_minimize_memory_is_the_grid_values():
    """The 24^4-point scan of a 4-axis S_j = 1 model needs no grid x basis matrix
    (which alone is 24^4 * 81 * 8 B = 205 MB)."""
    model = FourierModel((1, 1, 1, 1), np.random.default_rng(44).normal(size=81))
    tracemalloc.start()
    try:
        result = regression_global_minimize(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert result.value_min == pytest.approx(model.evaluate(result.theta_min), abs=1e-12)


def test_global_minimize_streamed_scan_holds_no_full_grid():
    """The same 24^4-point scan keeps one slab and a 3 x 24^3 partial: any array
    over the whole grid (24^4 * 8 B = 2.7 MB of values) would exceed 1 MB."""
    model = FourierModel((1, 1, 1, 1), np.random.default_rng(44).normal(size=81))
    tracemalloc.start()
    try:
        regression_global_minimize(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_global_minimize_counts_grid_and_derivative_evaluations():
    model = FourierModel((1, 2), np.random.default_rng(3).normal(size=15))
    calls = []
    evaluate_derivatives = model._value_derivatives

    def counted(points):
        calls.append(len(points))
        return evaluate_derivatives(points)

    model._value_derivatives = counted
    result = regression_global_minimize(model)
    assert calls[0] == 8  # the Newton starts
    assert result.evaluations == 24 * 40 + sum(calls)


def _dense_grid_min(model, polishes=16):
    """Oracle: the model on 48 points per axis, then a tight simplex polish from
    each of the lowest grid-local minima (one per distinct value).  The best cell
    alone is not enough: two basin floors closer than the grid resolves can put it
    in the shallower basin, as on both benchmark ladders below."""
    axes = lattice_axes([48] * model.ndim)
    values = model.evaluate_grid(axes)
    local = np.ones(values.shape, dtype=bool)
    for axis in range(values.ndim):
        for shift in (1, -1):
            local &= values <= np.roll(values, shift, axis=axis)
    cells = np.flatnonzero(local)
    _, first = np.unique(values.ravel()[cells], return_index=True)
    starts = np.unravel_index(cells[first[:polishes]], values.shape)
    return min(
        nelder_mead_minimize(model.evaluate, [coords[i] for coords, i in zip(axes, cell)],
                             max_evals=4000, xtol=1e-10, ftol=None).value_min
        for cell in zip(*starts)
    )


@pytest.mark.parametrize("seed,index", [(7, 97), (930770796, 156)])
def test_qsr_finds_the_deeper_basin_on_benchmark_ladders(monkeypatch, seed, index):
    """Two benchmark ladder inputs where the best scan cell lies in a shallower
    basin than the model's global minimum."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    spec = workloads._ladder_prepare(None, seed, index).spec
    model, result, _ = qsr_run(spec)
    assert result.value_min == pytest.approx(_dense_grid_min(model), abs=1e-9)


def test_global_minimize_is_no_worse_than_a_dense_grid_oracle():
    rng = np.random.default_rng(2026)
    for _ in range(30):
        bandwidths = tuple(int(s) for s in rng.integers(0, 3, size=rng.integers(1, 5)))
        model = FourierModel(bandwidths, rng.normal(size=int(np.prod([2 * s + 1 for s in bandwidths]))))
        result = regression_global_minimize(model)
        tolerance = 1e-12 * np.abs(model.coefficients).sum()
        assert result.value_min <= _dense_grid_min(model) + tolerance, bandwidths


# --- vqe_run ---

def test_vqe_exact_reaches_ground_energy(deuteron1, lam_d1):
    spec = ObjectiveSpec(*deuteron1)
    result = vqe_run(spec, [0.0])
    assert abs(result.value_min - lam_d1) < 1e-6


def test_vqe_is_bit_reproducible(deuteron1):
    ansatz, obs = deuteron1
    spec = ObjectiveSpec(ansatz, obs, "shots", shots=2000, seed=21)
    a = vqe_run(spec, [0.0])
    b = vqe_run(spec, [0.0])
    assert np.array_equal(a.theta_min, b.theta_min)
    assert a.value_min == b.value_min
    assert a.evaluations == b.evaluations


def test_vqe_shots_error_is_a_few_percent(deuteron1, lam_d1):
    ansatz, obs = deuteron1
    spec = ObjectiveSpec(ansatz, obs, "shots", shots=10_000, seed=2)
    ledger = EvalLedger()
    result = vqe_run(spec, [0.0], ledger=ledger)
    energy = exact_objective(ansatz, obs, result.theta_min)
    error_percent = abs(energy - lam_d1) / abs(lam_d1) * 100
    assert error_percent < 15.0
    assert ledger.samples == result.evaluations
    assert ledger.samples == ledger.queries  # the loop cannot batch


def test_vqe_rejects_non_finite_start(deuteron2):
    spec = ObjectiveSpec(*deuteron2)
    with pytest.raises(ValueError):
        vqe_run(spec, [np.nan, 0.0])


def test_vqe_budget_of_one(deuteron1):
    spec = ObjectiveSpec(*deuteron1)
    ledger = EvalLedger()
    result = vqe_run(spec, [0.0], ledger=ledger, max_evals=1)
    assert not result.converged
    assert ledger.samples == 1


# --- qsr_run ---

def test_qsr_ledger_three_and_one(deuteron1):
    spec = ObjectiveSpec(*deuteron1)
    _, _, ledger = qsr_run(spec)
    assert (ledger.samples, ledger.queries) == (3, 1)


def test_qsr_ledger_twenty_five_and_one(deuteron2):
    spec = ObjectiveSpec(*deuteron2)
    _, _, ledger = qsr_run(spec, bandwidth_override=[2, 2])
    assert (ledger.samples, ledger.queries) == (25, 1)


def test_qsr_default_bandwidths_for_second_problem(deuteron2):
    spec = ObjectiveSpec(*deuteron2)
    model, _, ledger = qsr_run(spec)
    assert model.bandwidths == (1, 2)
    assert (ledger.samples, ledger.queries) == (15, 1)


def test_qsr_oversampling_doubles_samples(deuteron1):
    ansatz, obs = deuteron1
    spec = ObjectiveSpec(ansatz, obs, "shots", shots=4000, seed=6)
    model1, _, ledger1 = qsr_run(spec)
    model2, _, ledger2 = qsr_run(spec, oversample_factor=2.0)
    assert (ledger1.samples, ledger2.samples) == (3, 6)
    assert ledger2.queries == 1
    # same band-limited target, so coefficients agree to shot-noise accuracy
    sigma = obs.one_norm / np.sqrt(spec.shots)
    assert np.max(np.abs(model1.coefficients - model2.coefficients)) < 6 * sigma


def test_qsr_exact_bounds_vs_vqe(deuteron1, deuteron2, lam_d1, lam_d2):
    """Exact-mode sampler finds the global model minimum: above the ground
    energy, and no worse than the iterative baseline."""
    for (ansatz, obs), lam in ((deuteron1, lam_d1), (deuteron2, lam_d2)):
        spec = ObjectiveSpec(ansatz, obs)
        _, qsr_result, _ = qsr_run(spec)
        vqe_result = vqe_run(spec, np.zeros(ansatz.num_params))
        assert qsr_result.value_min >= lam - 1e-9
        assert qsr_result.value_min <= vqe_result.value_min + 1e-6


def test_qsr_validates_inputs(deuteron1):
    spec = ObjectiveSpec(*deuteron1)
    with pytest.raises(ValueError):
        qsr_run(spec, bandwidth_override=[1, 1])
    with pytest.raises(ValueError):
        qsr_run(spec, oversample_factor=0.5)


@pytest.mark.parametrize("factor", [np.inf, np.nan])
def test_qsr_rejects_non_finite_oversampling(deuteron1, factor):
    spec = ObjectiveSpec(*deuteron1)
    with pytest.raises(ValueError, match="finite"):
        qsr_run(spec, oversample_factor=factor)


def test_qsr_flags_undersampled_bandwidths(deuteron2):
    spec = ObjectiveSpec(*deuteron2)
    reduced, _, _ = qsr_run(spec, bandwidth_override=[1, 1])
    assert reduced.metadata["undersampled"] is True
    full, _, _ = qsr_run(spec)
    assert full.metadata["undersampled"] is False


@pytest.mark.parametrize("override", [[1.5, 2.7], [1, float("nan")], [1, float("inf")], [True, 2]])
def test_qsr_rejects_non_integer_bandwidth_override(deuteron2, override):
    """An override entry is never truncated: (1.5, 2.7) does not silently run at (1, 2)."""
    spec = ObjectiveSpec(*deuteron2)
    with pytest.raises(ValueError, match="integers"):
        qsr_run(spec, bandwidth_override=override)


def _ladder_problem(num_qubits, num_params, seed):
    """RY + CNOT ladder with one RY per parameter (S_j = 1) and a random Pauli sum."""
    rng = np.random.default_rng(seed)

    def builder(theta):
        gates = [Gate("X", (q,)) for q in range(num_qubits) if q % 2 == 0]
        for j in range(num_params):
            gates.append(Gate("RY", (j % num_qubits,), float(theta[j])))
            if j % num_qubits == num_qubits - 1 or j == num_params - 1:
                gates.extend(Gate("CNOT", (q, q + 1)) for q in range(num_qubits - 1))
        return gates

    ansatz = Ansatz(
        name="ladder",
        num_qubits=num_qubits,
        num_params=num_params,
        bandwidths=(1,) * num_params,
        param_names=tuple(f"t{j}" for j in range(num_params)),
        builder=builder,
    )
    terms = [(float(rng.normal()), "".join(rng.choice(list("IXYZ"), size=num_qubits)))
             for _ in range(8)]
    return ansatz, ObservableSum(num_qubits, terms)


def test_qsr_exact_on_five_parameters():
    """Five S_j = 1 parameters: a 24^5-point model scan, which a grid x basis
    design matrix (7.96M x 243) could not hold in memory."""
    ansatz, obs = _ladder_problem(num_qubits=4, num_params=5, seed=5)
    spec = ObjectiveSpec(ansatz, obs)
    _, result, ledger = qsr_run(spec)
    assert (ledger.samples, ledger.queries) == (3**5, 1)
    assert result.value_min >= exact_spectrum(obs).min_eigenvalue - 1e-9
    assert result.value_min == pytest.approx(exact_objective(ansatz, obs, result.theta_min), abs=1e-9)


def test_shared_ledger_across_pipeline_stages(deuteron2):
    """One ledger over lattice sampling plus a follow-up polish adds up to
    lattice size + optimizer evaluations, with queries <= samples."""
    spec = ObjectiveSpec(*deuteron2)
    ledger = EvalLedger()
    _, coarse, ledger = qsr_run(spec, bandwidth_override=[1, 1], ledger=ledger)
    polish = vqe_run(spec, coarse.theta_min, ledger=ledger, max_evals=30)
    assert ledger.samples == 9 + polish.evaluations
    assert ledger.queries == 1 + polish.evaluations
    assert ledger.queries <= ledger.samples
