"""Lattices, design matrices, least-squares fitting, model persistence, JSON documents."""
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsreg import (
    FourierBasis,
    FourierModel,
    SampleSet,
    fit_fourier_model,
    nyquist_lattice,
    uniform_lattice,
)
from qsreg.ansatz import _parse_circuit
from qsreg.cli import ConfigError, RunConfig
from qsreg.objective import ObjectiveSpec, evaluate_batch
from qsreg.observables import ObservableError, parse_observable
from qsreg.optimizers import _leading_axis_values
from qsreg.regression import _lattice_counts_of


# --- lattices ---

def test_lattice_three_points():
    points = nyquist_lattice([1])
    assert points.shape == (3, 1)
    spacing = np.diff(points[:, 0])
    assert np.allclose(spacing, 2 * np.pi / 3)
    assert points[-1, 0] == pytest.approx(np.pi)


def test_lattice_twenty_five_points():
    assert nyquist_lattice([2, 2]).shape == (25, 2)


def test_lattice_constant_function():
    points = nyquist_lattice([0])
    assert points.shape == (1, 1)
    assert points[0, 0] == pytest.approx(np.pi)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=3))
def test_lattice_counts_and_domain(bandwidths):
    points = nyquist_lattice(bandwidths)
    expected = int(np.prod([2 * s + 1 for s in bandwidths]))
    assert points.shape == (expected, len(bandwidths))
    assert np.all(points > -np.pi)
    assert np.all(points <= np.pi)


def test_lattice_is_dimension_major():
    points = uniform_lattice([2, 3])
    # axis 0 is slowest: first three rows share the axis-0 value
    assert np.allclose(points[:3, 0], points[0, 0])
    assert not np.allclose(points[:3, 1], points[0, 1])


@pytest.mark.parametrize("counts", [[2.5], [True], [float("nan")], [2.5, True], [3, True]])
def test_lattice_rejects_non_integer_counts(counts):
    # int() would truncate 2.5 to 2 and read True as 1
    with pytest.raises(ValueError, match="only integers are allowed for lattice counts"):
        uniform_lattice(counts)


# --- design matrix ---

def test_design_row_at_zero():
    basis = FourierBasis((1,))
    row = basis.design_matrix(np.array([[0.0]]))[0]
    assert np.allclose(row, [1.0, 1.0, 0.0])


def test_design_columns_orthogonal_on_lattice():
    basis = FourierBasis((1,))
    F = basis.design_matrix(nyquist_lattice([1]))
    gram = F.T @ F
    assert np.allclose(gram, np.diag([3.0, 1.5, 1.5]), atol=1e-12)


def test_design_full_rank_on_two_axes():
    basis = FourierBasis((1, 1))
    F = basis.design_matrix(nyquist_lattice([1, 1]))
    assert F.shape == (9, 9)
    assert np.linalg.matrix_rank(F) == 9


def test_gram_is_diagonal_on_minimal_lattice():
    """On the minimal lattice F^T F is exactly diagonal, with T for the
    constant column and T/2^k for a product of k non-constant factors
    (T/2 for every non-constant column in one dimension)."""
    for bandwidths in ((2,), (1, 2), (2, 2)):
        basis = FourierBasis(bandwidths)
        F = basis.design_matrix(nyquist_lattice(bandwidths))
        # per axis: 1 for the constant column, 1/2 for each cos/sin column
        expected = np.full(1, float(basis.size))
        for s in bandwidths:
            expected = np.kron(expected, [1.0] + [0.5] * (2 * s))
        assert np.max(np.abs(F.T @ F - np.diag(expected))) < 1e-10


def test_basis_size_formula():
    assert FourierBasis((1,)).size == 3
    assert FourierBasis((2, 2)).size == 25
    assert FourierBasis((1, 2, 3)).size == 3 * 5 * 7


# --- fitting ---

def _samples_of(fn, points):
    return SampleSet(points, np.array([fn(p) for p in points]))


def test_fit_recovers_function_in_basis():
    points = nyquist_lattice([1])
    samples = _samples_of(lambda p: 2.0 + np.cos(p[0]), points)
    model = fit_fourier_model(samples, FourierBasis((1,)))
    assert np.allclose(model.coefficients, [2.0, 1.0, 0.0], atol=1e-12)
    assert model.metadata["residual_norm"] < 1e-12


def test_fit_deuteron_1_reproduces_exact_objective(deuteron1):
    ansatz, obs = deuteron1
    spec = ObjectiveSpec(ansatz, obs)
    points = nyquist_lattice([1])
    samples = SampleSet(points, evaluate_batch(spec, points), {"mode": "exact"})
    model = fit_fourier_model(samples, FourierBasis((1,)))
    rng = np.random.default_rng(23)
    thetas = rng.uniform(-np.pi, np.pi, size=(100, 1))
    truth = evaluate_batch(spec, thetas)
    assert np.max(np.abs(model.evaluate_many(thetas) - truth)) < 1e-9


def test_fit_averages_contradictory_duplicates():
    """Duplicated points with values h and h+eps fit the midpoints exactly."""
    eps = 0.3
    points = nyquist_lattice([1])
    h = np.array([1.0, -2.0, 0.5])
    doubled = np.vstack([points, points])
    values = np.concatenate([h, h + eps])
    model = fit_fourier_model(SampleSet(doubled, values), FourierBasis((1,)))
    midpoint = fit_fourier_model(SampleSet(points, h + eps / 2), FourierBasis((1,)))
    assert np.allclose(model.coefficients, midpoint.coefficients, atol=1e-12)
    expected_residual = np.sqrt(points.shape[0] * eps**2 / 2.0)
    assert model.metadata["residual_norm"] == pytest.approx(expected_residual, rel=1e-10)


def test_model_evaluation_examples():
    model = FourierModel((1,), [2.0, 1.0, 0.0])
    assert model.evaluate([0.0]) == pytest.approx(3.0)
    assert model.evaluate([np.pi]) == pytest.approx(1.0)


def test_model_is_periodic():
    rng = np.random.default_rng(4)
    model = FourierModel((2, 1), rng.uniform(-1, 1, 15))
    for _ in range(5):
        theta = rng.uniform(-np.pi, np.pi, 2)
        for axis in range(2):
            shifted = theta.copy()
            shifted[axis] += 2 * np.pi
            assert model.evaluate(shifted) == pytest.approx(model.evaluate(theta), abs=1e-12)


def test_grid_evaluation_matches_design_matrix():
    """The minimiser's separable scan kernel on the whole lattice equals the
    design-matrix product, and a point evaluation equals its row."""
    rng = np.random.default_rng(2012)
    for ndim in (1, 2, 3, 4):
        bandwidths = tuple(int(s) for s in rng.integers(0, 4 if ndim < 4 else 3, size=ndim))
        basis = FourierBasis(bandwidths)
        model = FourierModel(bandwidths, rng.normal(size=basis.size))
        counts = [int(m) for m in rng.integers(1, 9, size=ndim)]
        reference = basis.design_matrix(uniform_lattice(counts)) @ model.coefficients
        separable = _leading_axis_values(*model._grid_partial(counts))
        assert separable.shape == (counts[0], int(np.prod(counts[1:])))
        tolerance = 1e-12 * np.sum(np.abs(model.coefficients))
        assert np.max(np.abs(separable.reshape(-1) - reference)) <= tolerance
        point = uniform_lattice(counts)[-1]
        assert abs(model.evaluate(point) - reference[-1]) <= tolerance


@pytest.mark.parametrize("bandwidths", [(2,), (0,), (0, 2), (2, 0, 1), (1, 2, 0, 2), (0, 2, 2, 0)])
def test_value_derivatives_match_evaluation_and_central_differences(bandwidths):
    """Values equal evaluate_many; gradients match central differences of the
    values, and Hessians central differences of the gradients."""
    rng = np.random.default_rng(list(bandwidths))
    model = FourierModel(bandwidths, rng.normal(size=FourierBasis(bandwidths).size))
    points = rng.uniform(-np.pi, np.pi, size=(6, model.ndim))
    value, gradient, hessian = model._value_derivatives(points)
    assert value.shape == (6,) and gradient.shape == (6, model.ndim) and hessian.shape == (6, model.ndim, model.ndim)
    scale = np.sum(np.abs(model.coefficients))
    assert np.max(np.abs(value - model.evaluate_many(points))) <= 1e-13 * scale
    h = 1e-5
    for axis in range(model.ndim):
        step = np.zeros(model.ndim)
        step[axis] = h
        slope = (model.evaluate_many(points + step) - model.evaluate_many(points - step)) / (2 * h)
        assert np.max(np.abs(gradient[:, axis] - slope)) <= 1e-8 * scale
        curvature = (model._value_derivatives(points + step)[1] - model._value_derivatives(points - step)[1]) / (2 * h)
        assert np.max(np.abs(hessian[:, axis] - curvature)) <= 1e-8 * scale
    assert np.array_equal(hessian, hessian.transpose(0, 2, 1))


def _assert_matches_lstsq(model, points, values, basis):
    """The fit against one dense least-squares solve on the design matrix."""
    design = basis.design_matrix(points)
    coefficients, _, rank, _ = np.linalg.lstsq(design, values, rcond=None)
    assert np.max(np.abs(model.coefficients - coefficients)) <= 1e-13 * np.max(np.abs(values))
    assert model.metadata["rank"] == rank
    residual = np.linalg.norm(design @ coefficients - values)
    assert abs(model.metadata["residual_norm"] - residual) <= 1e-12 * np.linalg.norm(values)


@pytest.mark.parametrize("ndim", range(1, 7))
@pytest.mark.parametrize("factor", [1, 2, 3, "under"])
def test_lattice_fit_matches_the_lstsq_oracle(ndim, factor, monkeypatch):
    """A full lattice, Nyquist, oversampled or undersampled, is fitted axis by
    axis, never through the design matrix, with lstsq's minimum-norm
    coefficients, rank and residual."""
    rng = np.random.default_rng([ndim, 0 if factor == "under" else factor])
    cases = 0
    while cases < 3:
        bandwidths = [int(s) for s in rng.integers(0, 3, size=ndim)]
        if factor == "under":
            counts = [int(rng.integers(1, 2 * s + 1)) if s else 1 for s in bandwidths]
        else:
            counts = [factor * (2 * s + 1) for s in bandwidths]
        basis = FourierBasis(bandwidths)
        if np.prod(counts) * basis.size > 2**18:  # keeps the oracle's design matrix small
            continue
        cases += 1
        points = uniform_lattice(counts)
        values = rng.normal(size=len(points))
        with monkeypatch.context() as patch:
            patch.setattr(FourierBasis, "design_matrix", None)
            model = fit_fourier_model(SampleSet(points, values), basis)
        _assert_matches_lstsq(model, points, values, basis)


def test_point_sets_other_than_a_full_lattice_take_lstsq():
    rng = np.random.default_rng(1903)
    for bandwidths in [(1,), (2, 1), (1, 0, 2)]:
        basis = FourierBasis(bandwidths)
        lattice = uniform_lattice([2 * s + 2 for s in bandwidths])
        permuted = lattice[rng.permutation(len(lattice))]
        for points in (permuted, lattice[:-1], lattice[1:]):
            assert _lattice_counts_of(points) is None
            values = rng.normal(size=len(points))
            _assert_matches_lstsq(fit_fourier_model(SampleSet(points, values), basis), points, values, basis)


def test_lattice_fit_of_eight_parameters_needs_no_design_matrix():
    """6,561 points and as many basis functions: the design matrix alone would be 344 MB."""
    points = nyquist_lattice([1] * 8)
    samples = SampleSet(points, np.random.default_rng(8).normal(size=len(points)))
    tracemalloc.start()
    try:
        model = fit_fourier_model(samples, FourierBasis([1] * 8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.metadata["rank"] == 6561
    assert model.metadata["residual_norm"] <= 1e-10 * np.linalg.norm(samples.values)
    assert peak < 4 * 2**20


def _random_band_limited(rng, max_dims=3, max_s=4):
    ndim = int(rng.integers(1, max_dims + 1))
    bandwidths = tuple(int(s) for s in rng.integers(1, max_s + 1, size=ndim))
    basis = FourierBasis(bandwidths)
    coeffs = rng.uniform(0.05, 1.0, basis.size) * rng.choice([-1.0, 1.0], basis.size)
    return FourierModel(bandwidths, coeffs)


def test_exact_reconstruction_from_minimal_lattice():
    """Noiseless samples on the T-point lattice pin down the function exactly."""
    rng = np.random.default_rng(42)
    for _ in range(20):
        truth = _random_band_limited(rng)
        points = nyquist_lattice(truth.bandwidths)
        samples = SampleSet(points, truth.evaluate_many(points))
        fitted = fit_fourier_model(samples, truth.basis)
        assert np.max(np.abs(fitted.coefficients - truth.coefficients)) < 1e-10
        check = rng.uniform(-np.pi, np.pi, size=(1000, truth.ndim))
        expected = truth.evaluate_many(check)
        scale = max(1.0, np.max(np.abs(expected)))
        assert np.max(np.abs(fitted.evaluate_many(check) - expected)) < 1e-10 * scale


def test_oversampling_leaves_noiseless_coefficients_unchanged():
    rng = np.random.default_rng(8)
    truth = _random_band_limited(rng, max_dims=2, max_s=3)
    for factor in (2, 3):
        counts = [factor * (2 * s + 1) for s in truth.bandwidths]
        points = uniform_lattice(counts)
        fitted = fit_fourier_model(
            SampleSet(points, truth.evaluate_many(points)), truth.basis
        )
        assert np.max(np.abs(fitted.coefficients - truth.coefficients)) < 1e-10


def test_noise_averaging_scales_with_oversampling():
    """Coefficient noise shrinks like 1/sqrt(oversampling) within a factor 2."""
    truth = FourierModel((1,), [0.5, -1.0, 0.7])
    sigma = 0.1
    stds = {}
    for factor in (1, 4):
        points = uniform_lattice([3 * factor])
        clean = truth.evaluate_many(points)
        coeffs = []
        for seed in range(400):
            noise = np.random.default_rng(seed).normal(0.0, sigma, clean.size)
            fitted = fit_fourier_model(SampleSet(points, clean + noise), truth.basis)
            coeffs.append(fitted.coefficients)
        stds[factor] = np.std(np.asarray(coeffs), axis=0).mean()
    ratio = stds[1] / stds[4]
    assert 1.0 < ratio < 4.0  # ideal sqrt(4) = 2, within a factor 2


# --- undersampling / aliasing ---

def test_aliasing_of_high_frequency_content():
    """cos(2t) sampled at the S=1 rate aliases onto -cos(t) on this lattice."""
    points = nyquist_lattice([1])
    samples = SampleSet(points, np.cos(2 * points[:, 0]))
    model = fit_fourier_model(samples, FourierBasis((1,)))
    assert np.allclose(model.coefficients, [0.0, -1.0, 0.0], atol=1e-12)
    dense = uniform_lattice([64])
    errors = np.abs(model.evaluate_many(dense) - np.cos(2 * dense[:, 0]))
    assert errors.max() > 0.5  # the alias is smooth but wrong off-lattice


# --- persistence ---

def test_persistence_round_trip(tmp_path):
    rng = np.random.default_rng(77)
    model = _random_band_limited(rng, max_dims=2, max_s=3)
    model.metadata.update(mode="exact", sample_count=model.basis.size)
    path = tmp_path / "model.json"
    model.save(path)
    loaded = FourierModel.load(path)
    assert loaded.bandwidths == model.bandwidths
    check = rng.uniform(-np.pi, np.pi, size=(50, model.ndim))
    assert np.max(np.abs(loaded.evaluate_many(check) - model.evaluate_many(check))) <= 1e-15


def test_model_document_schema(tmp_path):
    model = FourierModel((1,), [1.0, 0.0, 0.0])
    doc = model.to_dict()
    assert set(doc) == {"bandwidths", "coefficients", "metadata"}
    with pytest.raises(ValueError):
        FourierModel.from_dict({"bandwidths": [1], "coefficients": [1, 0, 0]})
    assert FourierModel.from_dict(doc).bandwidths == (1,)
    # int() would load each bandwidth as S = 1 (or -1), and np.asarray would read
    # "1" and true as coefficients; both are rejected instead
    bad_documents = [
        (dict(doc, bandwidths=bandwidths), "bandwidths")
        for bandwidths in ([1.7], [True], ["1"], [-1], [float("nan")])
    ] + [
        ({"bandwidths": [1], "coefficients": ["1", True, "0.5"], "metadata": {}}, "coefficients"),
        ({"bandwidths": [1], "coefficients": [1.0, True, 0.5], "metadata": {}}, "coefficients"),
        ({"bandwidths": [1], "coefficients": [1.0, None, 0.5], "metadata": {}}, "coefficients"),
    ] + [
        # 3 and null raised TypeError, "ab" an unrelated ValueError, and [["a", 1]] loaded as {"a": 1}
        (dict(doc, metadata=metadata), "model metadata must be a JSON object")
        for metadata in (3, None, "ab", [["a", 1]])
    ] + [(3, "model document must be a JSON object")]  # a number raised TypeError
    for bad, field_name in bad_documents:
        with pytest.raises(ValueError, match=field_name):
            FourierModel.from_dict(bad)


# each reader of a JSON document: its name in messages, a good document, and its error type
_READERS = {
    "Hamiltonian": (parse_observable, "Hamiltonian document",
                    {"num_qubits": 1, "terms": [{"pauli": "Z", "weight": 1.0}]}, ObservableError),
    "circuit": (lambda text: _parse_circuit("bad", text), "circuit 'bad'",
                {"num_qubits": 1, "params": ["t"], "gates": [["RY", [0], 0, 1]]}, ValueError),
    "model": (FourierModel.from_dict, "model document",
              {"bandwidths": [1], "coefficients": [1.0, 0.0, 0.0], "metadata": {}}, ValueError),
    "config": (RunConfig.from_dict, "config", {"problem": "deuteron-1", "algorithm": "qsr"}, ConfigError),
}


@pytest.mark.parametrize("reader", sorted(_READERS))
@pytest.mark.parametrize("fault", ["not JSON", "not an object", "missing key", "unknown key"])
def test_json_readers_reject_a_bad_document_alike(reader, fault):
    """An undecodable circuit or model raised a bare JSONDecodeError naming neither the document nor its format."""
    read, what, good, error = _READERS[reader]
    first = next(iter(good))
    text, key = {
        "not JSON": (json.dumps(good)[:-1], first),
        "not an object": (json.dumps([good]), first),
        "missing key": (json.dumps({k: v for k, v in good.items() if k != first}), first),
        "unknown key": (json.dumps({**good, "wobble": 1}), "wobble"),
    }[fault]
    read(json.dumps(good))  # the good document loads
    with pytest.raises(error) as caught:
        read(text)
    assert type(caught.value) is error
    message = str(caught.value)
    assert message.startswith(f"{what} must be a JSON object with keys ") and repr(key) in message


def test_models_compare_by_value():
    """``==`` is identity, so it never raises on an array field; models
    compare by value through ``to_dict()`` and sample sets through their fields."""
    model = FourierModel((1, 1), np.arange(9.0), metadata={"mode": "exact", "rank": 9})
    copy = FourierModel((1, 1), np.arange(9.0), metadata={"mode": "exact", "rank": 9})
    assert model == model and model in [model]
    assert copy != model and model != copy
    assert copy not in [model] and model not in [copy]
    assert model != model.to_dict()
    assert copy.to_dict() == model.to_dict()
    changed = np.arange(9.0)
    changed[4] += 1e-12
    assert FourierModel((1, 1), changed, metadata=dict(model.metadata)).to_dict() != model.to_dict()
    assert FourierModel((1, 1), np.arange(9.0)).to_dict() != model.to_dict()  # metadata differs
    samples = SampleSet(nyquist_lattice((1,)), [1.0, 2.0, 3.0], metadata={"mode": "exact"})
    same = SampleSet(samples.points.copy(), samples.values.copy(), dict(samples.metadata))
    assert samples == samples and samples in [samples]
    assert same != samples and same not in [samples]
    assert np.array_equal(same.points, samples.points) and np.array_equal(same.values, samples.values)
    assert same.metadata == samples.metadata


# --- sample-set validation ---

def test_sampleset_validation():
    with pytest.raises(ValueError):
        SampleSet(np.array([[0.0], [0.1]]), np.array([1.0]))
    with pytest.raises(ValueError):
        SampleSet(np.array([[4.0]]), np.array([1.0]))  # outside ]-pi, pi]
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="row 1 is"):
            SampleSet(nyquist_lattice((1,)), [1.0, bad, np.nan])

