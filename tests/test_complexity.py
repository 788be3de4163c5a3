"""Cost-model algebra: peak, crossings, threshold, efficiency, heuristic fit."""
import math

import numpy as np
import pytest

from qsreg import (
    ComplexityParams,
    EmptyWindowError,
    SubcriticalError,
    advantage_threshold,
    crossover_points,
    discrete_window_efficiency,
    efficiency,
    efficiency_integral,
    efficiency_sweep,
    fit_cost_heuristic,
    is_supercritical,
    model_report,
    peak,
    rescale_natural_units,
    resource_ratio,
    threshold_sweep,
    window_width,
)

LN2 = math.log(2.0)

# the model's typical parameter ranges used for grid checks
M_GRID = (2.0, 4.0, 6.0, 8.0, 10.0)
P_GRID = (2.0, 6.5, 11.0, 15.5, 20.0)
S_GRID = (2.0, 2.75, 3.5, 4.25, 5.0)


def _bisect(f, lo, hi, iters=200):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_params_validation():
    with pytest.raises(ValueError):
        ComplexityParams(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ComplexityParams(1.0, -2.0, 1.0)
    params = ComplexityParams(3.0, 4.0, 2.0)
    assert params.r == 2.0


def test_ratio_direct_substitution():
    # m=1, p=1, r=1: ratio(1) = 1 * 1 * 2^(-1) = 0.5
    assert resource_ratio(ComplexityParams(1.0, 1.0, 1.0), 1.0) == pytest.approx(0.5)


def test_ratio_at_peak_location():
    params = ComplexityParams(2.0, 3.0, 1.5)
    n_star, peak_value = peak(params)
    assert n_star == pytest.approx(params.r / LN2)
    assert resource_ratio(params, n_star) == pytest.approx((params.m * n_star / math.e) ** params.p)
    assert peak_value == pytest.approx(resource_ratio(params, n_star))


def test_peak_is_interior_maximum():
    params = ComplexityParams(2.0, 2.0, 1.0)
    n_star, _ = peak(params)
    eps = 1e-4 * n_star
    center = resource_ratio(params, n_star)
    assert center >= resource_ratio(params, n_star - eps)
    assert center >= resource_ratio(params, n_star + eps)


def test_peak_value_matches_dense_scan():
    """The closed-form peak equals the maximum over a 1e5-point scan."""
    params = ComplexityParams(2.0, 2.0, 1.0)
    n_star, peak_value = peak(params)
    grid = np.linspace(1e-3, 10.0 * n_star, 100_001)
    scanned = resource_ratio(params, grid)
    assert peak_value >= scanned.max()
    assert peak_value == pytest.approx(scanned.max(), rel=1e-7)


def test_peak_with_r_equals_e_ln2():
    # r = e*ln2 puts the peak at n = e
    params = ComplexityParams(2.0, math.e * LN2, 1.0)
    n_star, _ = peak(params)
    assert n_star == pytest.approx(math.e)


def test_single_interior_maximum_shape():
    params = ComplexityParams(2.0, 2.0, 2.0 / (math.e * LN2))
    grid = np.linspace(0.05, 30.0, 4000)
    values = resource_ratio(params, grid)
    increasing = np.flatnonzero(np.diff(values) > 0)
    decreasing = np.flatnonzero(np.diff(values) < 0)
    assert increasing.size and decreasing.size
    assert increasing.max() < decreasing.min()  # rise then fall, one bump


def test_peak_ratio_one_at_criticality():
    # pick m so that m * n_star = e exactly
    r = 2.0
    n_star = r / LN2
    params = ComplexityParams(math.e / n_star, 2.0, 1.0)
    _, peak_value = peak(params)
    assert peak_value == pytest.approx(1.0, rel=1e-12)
    n0, n1 = crossover_points(params)
    assert n0 == pytest.approx(n_star)
    assert n1 == pytest.approx(n_star)


def test_criticality_has_no_advantage():
    """At m * n_star == e the ratio only touches one: every report agrees with
    is_supercritical that the sampler never wins, and crossover_points keeps
    the touching root."""
    params = ComplexityParams(m=math.e, p=LN2, s=1.0)
    assert params.m * peak(params)[0] == math.e
    assert not is_supercritical(params)
    assert crossover_points(params) == (1.0, 1.0)
    report = model_report(params)
    assert report.advantage_possible is False
    assert (report.threshold, report.efficiency, report.window_width) == (None, None, None)
    for quantity in (window_width, advantage_threshold, efficiency, discrete_window_efficiency):
        with pytest.raises(SubcriticalError):
            quantity(params)
    assert math.isnan(threshold_sweep([math.e], [LN2])[0, 0])
    assert math.isnan(efficiency_sweep([LN2], [1.0], math.e)[0, 0])


def test_subcritical_has_no_crossings():
    params = ComplexityParams(0.1, 1.0, 1.0)
    assert not is_supercritical(params)
    assert crossover_points(params) is None
    report = model_report(params)
    assert report.advantage_possible is False
    assert report.threshold is None
    with pytest.raises(SubcriticalError):
        advantage_threshold(params)
    with pytest.raises(SubcriticalError):
        efficiency(params)
    with pytest.raises(SubcriticalError):
        discrete_window_efficiency(params)


def test_crossings_match_bisection_oracle_on_grid():
    worst = 0.0
    checked = 0
    for m in M_GRID:
        for p in P_GRID:
            for s in S_GRID:
                params = ComplexityParams(m, p, s)
                if not is_supercritical(params):
                    continue
                checked += 1
                n0, n1 = crossover_points(params)
                g = lambda n: params.m * n * 2.0 ** (-n / params.r) - 1.0
                n_star = params.r / LN2
                hi = n_star
                while g(hi) > 0:
                    hi *= 2.0
                b0 = _bisect(g, 1e-9, n_star)
                b1 = _bisect(g, n_star, hi)
                worst = max(worst, abs(n0 - b0), abs(n1 - b1))
                assert abs(resource_ratio(params, n0) - 1.0) < 1e-9
                assert abs(resource_ratio(params, n1) - 1.0) < 1e-9
                assert n0 <= n_star <= n1
    assert checked > 50
    assert worst < 1e-9


def test_window_width_matches_crossings():
    params = ComplexityParams(4.0, 6.0, 2.0)
    n0, n1 = crossover_points(params)
    assert window_width(params) == pytest.approx(n1 - n0, abs=1e-10)


def test_threshold_is_ceiling_of_upper_crossing():
    # m=2, p=2, s=1 has the upper crossing at exactly n = 8
    params = ComplexityParams(2.0, 2.0, 1.0)
    n0, n1 = crossover_points(params)
    assert n1 == pytest.approx(8.0, abs=1e-12)
    assert advantage_threshold(params) == 8  # ceiling of an exact integer
    bumped = ComplexityParams(2.0, 2.0, 1.001)
    b0, b1 = crossover_points(bumped)
    assert advantage_threshold(bumped) == math.ceil(b1)


def test_threshold_monotone_in_m():
    for r in (2.0, 4.0, 6.0):
        previous = None
        for m in np.linspace(1.5, 10.0, 12):
            params = ComplexityParams(float(m), r, 1.0)
            if not is_supercritical(params):
                continue
            a = advantage_threshold(params)
            if previous is not None:
                assert a >= previous
            previous = a


def test_threshold_independent_of_p_at_fixed_r():
    for p, s in ((4.0, 2.0), (8.0, 4.0), (16.0, 8.0)):
        params = ComplexityParams(3.0, p, s)
        assert params.r == 2.0
        assert crossover_points(params) == crossover_points(ComplexityParams(3.0, 4.0, 2.0))
        assert advantage_threshold(params) == advantage_threshold(ComplexityParams(3.0, 4.0, 2.0))


def test_efficiency_closed_form_matches_quadrature_grid():
    worst = 0.0
    for m in M_GRID:
        for p in P_GRID:
            for s in S_GRID:
                params = ComplexityParams(m, p, s)
                if not is_supercritical(params):
                    continue
                closed = efficiency(params)
                direct = efficiency_integral(params)
                if direct == 0.0:
                    assert closed == pytest.approx(0.0, abs=1e-12)
                    continue
                worst = max(worst, abs(closed - direct) / abs(direct))
    assert worst < 1e-9


def test_efficiency_exceeds_one_deep_in_the_window():
    """A tall peak and a wide window push the average gain above one."""
    for m, p, s in ((2.0, 6.0, 2.0), (4.0, 8.0, 2.5), (8.0, 12.0, 3.0)):
        params = ComplexityParams(m, p, s)
        _, peak_value = peak(params)
        assert peak_value >= 10.0
        assert advantage_threshold(params) >= 3
        assert efficiency(params) > 1.0


def test_efficiency_grows_with_p():
    previous = None
    for p in (4.0, 8.0, 12.0, 16.0, 20.0):
        value = efficiency(ComplexityParams(2.0, p, 2.0))
        if previous is not None:
            assert value > previous
        previous = value


def test_discrete_window_formula_literal():
    # window [0.6198, 8] contains integers 1..8, floored width 7
    params = ComplexityParams(2.0, 2.0, 1.0)
    n0, n1 = crossover_points(params)
    integers = np.arange(math.ceil(n0), math.floor(n1) + 1, dtype=float)
    expected = resource_ratio(params, integers).sum() / math.floor(n1 - n0)
    assert discrete_window_efficiency(params) == pytest.approx(expected, rel=1e-12)


def test_discrete_window_with_single_integer():
    """Window [1.70, 2.70] holds only n=2 and floored width 1: the average is
    the single ratio divided by the literal floored-width prefactor."""
    params = ComplexityParams(1.29, 1.5, 1.0)
    n0, n1 = crossover_points(params)
    assert math.ceil(n0) == math.floor(n1) == 2
    assert math.floor(n1 - n0) == 1
    assert discrete_window_efficiency(params) == pytest.approx(
        resource_ratio(params, 2.0), rel=1e-12
    )


def test_discrete_window_tracks_integral_when_wide():
    params = ComplexityParams(6.0, 10.0, 2.0)
    n0, n1 = crossover_points(params)
    assert n1 - n0 >= 10.0
    discrete = discrete_window_efficiency(params)
    grid = np.linspace(n0, n1, 200_001)
    values = resource_ratio(params, grid)
    h = (n1 - n0) / (grid.size - 1)
    integral = h / 3.0 * (values[0] + values[-1] + 4 * values[1:-1:2].sum() + 2 * values[2:-2:2].sum())
    continuum = integral / (n1 - n0)
    assert abs(discrete - continuum) / continuum < 0.10


def test_discrete_window_exceeds_one():
    for m in (2.0, 5.0, 9.0):
        for p in (4.0, 10.0):
            params = ComplexityParams(m, p, 2.0)
            if not is_supercritical(params):
                continue
            try:
                assert discrete_window_efficiency(params) > 1.0
            except EmptyWindowError:
                pass  # degenerate narrow window is a distinct, allowed outcome


def test_empty_window_is_distinct_from_subcritical():
    # barely supercritical: peak just over 1, window width well under 1
    r = 2.0
    n_star = r / LN2
    params = ComplexityParams(1.0001 * math.e / n_star, 2.0, 1.0)
    assert is_supercritical(params)
    with pytest.raises(EmptyWindowError):
        discrete_window_efficiency(params)


def test_rescaling_strips_constants():
    params = ComplexityParams(2.0, math.e * LN2, 1.0)
    n_scaled, r_scaled = rescale_natural_units(params, math.e)
    assert n_scaled == pytest.approx(1.0)
    assert r_scaled == pytest.approx(1.0)


def test_rescaled_peak_equals_rescaled_ratio():
    rng = np.random.default_rng(19)
    for _ in range(20):
        params = ComplexityParams(*rng.uniform(0.5, 10.0, 3))
        n_star, _ = peak(params)
        n_scaled, r_scaled = rescale_natural_units(params, n_star)
        assert n_scaled == pytest.approx(r_scaled, rel=1e-12)


def test_rescaling_is_linear():
    a = ComplexityParams(2.0, 4.0, 2.0)
    b = ComplexityParams(2.0, 8.0, 2.0)  # r doubles
    _, ra = rescale_natural_units(a, 1.0)
    _, rb = rescale_natural_units(b, 1.0)
    assert rb == pytest.approx(2.0 * ra)


# --- heuristic fit ---

def test_fit_recovers_exact_monomial():
    data = [(n, (3.0 * n) ** 2) for n in (1, 2, 3, 5, 8)]
    m, p = fit_cost_heuristic(data)
    assert m == pytest.approx(3.0, abs=1e-9)
    assert p == pytest.approx(2.0, abs=1e-9)


def test_fit_lower_bounds_every_point():
    rng = np.random.default_rng(6)
    data = [(n, (2.0 * n) ** 1.7 * float(rng.uniform(1.0, 3.0))) for n in (1, 2, 4, 6, 9)]
    m, p = fit_cost_heuristic(data)
    for n, total in data:
        assert (m * n) ** p <= total * (1 + 1e-12)
    # the curve touches the minimum-residual point
    gaps = [total - (m * n) ** p for n, total in data]
    assert min(gaps) == pytest.approx(0.0, abs=1e-9 * max(t for _, t in data))


def test_fit_shift_keyed_to_minimum_residual():
    """An outlier above the cloud changes the slope but the bound still touches
    the lowest point rather than chasing the outlier."""
    base = [(n, (3.0 * n) ** 2) for n in (1, 2, 4, 8)]
    with_outlier = base + [(3, 10.0 * (3.0 * 3) ** 2)]
    m, p = fit_cost_heuristic(with_outlier)
    gaps = [total - (m * n) ** p for n, total in with_outlier]
    assert min(gaps) == pytest.approx(0.0, abs=1e-9 * max(t for _, t in with_outlier))
    assert all(g >= -1e-9 for g in gaps)


def test_fit_rejects_degenerate_data():
    with pytest.raises(ValueError):
        fit_cost_heuristic([(2, 10.0)])
    with pytest.raises(ValueError):
        fit_cost_heuristic([(2, 10.0), (2, 12.0)])


def test_fit_from_benchmark_ledgers(deuteron1, deuteron2):
    """The model's (m, p) can be estimated from this package's own baseline
    runs at one and two ansatz parameters."""
    from qsreg import EvalLedger, ObjectiveSpec, vqe_run

    data = []
    for n, (ansatz, observable) in ((1, deuteron1), (2, deuteron2)):
        spec = ObjectiveSpec(ansatz, observable, "shots", shots=2000, seed=1)
        ledger = EvalLedger()
        vqe_run(spec, np.zeros(ansatz.num_params), ledger=ledger)
        data.append((n, ledger.samples))
    m, p = fit_cost_heuristic(data)
    assert m > 0 and math.isfinite(m)
    assert math.isfinite(p)
    for n, total in data:
        assert (m * n) ** p <= total * (1 + 1e-9)


# --- sweeps ---

def test_threshold_sweep_shapes_and_nan_marking():
    m_values = np.array([0.05, 2.0, 6.0])
    r_values = np.array([1.0, 4.0])
    grid = threshold_sweep(m_values, r_values)
    assert grid.shape == (3, 2)
    assert math.isnan(grid[0, 0])  # subcritical corner
    params = ComplexityParams(2.0, 4.0, 1.0)
    assert grid[1, 1] == advantage_threshold(params)


def test_efficiency_sweep_finite_inside_typical_ranges():
    grid = efficiency_sweep(np.array(P_GRID), np.array(S_GRID), m=2.0)
    assert grid.shape == (5, 5)
    supercritical = ~np.isnan(grid)
    assert supercritical.any()
    assert np.all(np.isfinite(grid[supercritical]))
