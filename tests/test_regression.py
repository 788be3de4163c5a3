"""Lattices, design matrices, least-squares fitting, model persistence."""
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
from qsreg.objective import ObjectiveSpec, evaluate_batch
from qsreg.regression import lattice_axes


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
    """The separable per-axis contraction equals the design-matrix product on the lattice."""
    rng = np.random.default_rng(2012)
    for ndim in (1, 2, 3, 4):
        bandwidths = tuple(int(s) for s in rng.integers(0, 4 if ndim < 4 else 3, size=ndim))
        basis = FourierBasis(bandwidths)
        model = FourierModel(bandwidths, rng.normal(size=basis.size))
        counts = [int(m) for m in rng.integers(1, 9, size=ndim)]
        reference = basis.design_matrix(uniform_lattice(counts)) @ model.coefficients
        separable = model.evaluate_grid(lattice_axes(counts))
        assert separable.shape == tuple(counts)
        tolerance = 1e-12 * np.sum(np.abs(model.coefficients))
        assert np.max(np.abs(separable.reshape(-1) - reference)) <= tolerance
        point = uniform_lattice(counts)[-1]
        assert abs(model.evaluate(point) - reference[-1]) <= tolerance


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
    # int() would load each of these as S = 1 (or -1); the constructor's check rejects them
    for bandwidths in ([1.7], [True], ["1"], [-1], [float("nan")]):
        with pytest.raises(ValueError, match="bandwidths"):
            FourierModel.from_dict(dict(doc, bandwidths=bandwidths))


# --- sample-set validation ---

def test_sampleset_validation():
    with pytest.raises(ValueError):
        SampleSet(np.array([[0.0], [0.1]]), np.array([1.0]))
    with pytest.raises(ValueError):
        SampleSet(np.array([[4.0]]), np.array([1.0]))  # outside ]-pi, pi]

