"""Lambert W branches and the finite-window incomplete gamma integral."""
import decimal
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsreg import gen_upper_incomplete_gamma, lambert_w0, lambert_wm1


def _residual(w, x):
    return abs(w * math.exp(w) - x) / max(1.0, abs(x))


# --- principal branch ---

def test_w0_fixed_points():
    assert lambert_w0(0.0) == 0.0
    assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-14)
    assert lambert_w0(-1.0 / math.e) == -1.0


def test_w0_domain_error():
    with pytest.raises(ValueError):
        lambert_w0(-0.5)


def test_w0_residuals_log_spaced():
    xs = -1.0 / math.e + np.logspace(-14, 6, 10_000)
    worst = max(_residual(lambert_w0(float(x)), float(x)) for x in xs)
    assert worst <= 1e-12


# --- lower branch ---

def test_wm1_fixed_points():
    assert lambert_wm1(-1.0 / math.e) == -1.0
    assert lambert_wm1(-2.0 * math.exp(-2.0)) == pytest.approx(-2.0, abs=1e-13)


def test_wm1_matches_bisection_oracle():
    """Independent root bracketing on w in [-20, -1] for x = -0.05."""
    x = -0.05
    f = lambda w: w * math.exp(w) - x
    lo, hi = -20.0, -1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0) == (f(lo) > 0):
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    assert lambert_wm1(x) == pytest.approx(oracle, abs=1e-12)
    assert _residual(lambert_wm1(x), x) <= 1e-12


def test_wm1_domain_errors():
    with pytest.raises(ValueError):
        lambert_wm1(0.0)
    with pytest.raises(ValueError):
        lambert_wm1(0.2)
    with pytest.raises(ValueError):
        lambert_wm1(-1.0)


def test_wm1_residuals_log_spaced():
    near_branch = -1.0 / math.e + np.logspace(-14, -2, 5000)
    near_zero = -np.logspace(-12, np.log10(0.35), 5000)
    worst = max(
        _residual(lambert_wm1(float(x)), float(x))
        for x in np.concatenate([near_branch, near_zero])
    )
    assert worst <= 1e-12


def test_branch_ordering():
    """W0 >= -1 >= W-1 on the shared domain, equal only at the branch point."""
    for x in np.linspace(-1.0 / math.e, -1e-6, 200):
        w0, wm1 = lambert_w0(float(x)), lambert_wm1(float(x))
        assert w0 >= -1.0 - 1e-14
        assert wm1 <= -1.0 + 1e-14
        if x > -1.0 / math.e + 1e-12:
            assert w0 > wm1


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=-0.367879, max_value=1e6, allow_nan=False))
def test_w0_residual_property(x):
    assert _residual(lambert_w0(x), x) <= 1e-12


# --- incomplete gamma ---

def test_gamma_exponential_window():
    assert gen_upper_incomplete_gamma(1.0, 0.0, 60.0) == pytest.approx(1.0, rel=1e-10)
    assert gen_upper_incomplete_gamma(1.0, 0.0, math.log(2.0)) == pytest.approx(0.5, rel=1e-12)


def test_gamma_matches_fixed_simpson_oracle():
    """Dense composite Simpson on [0.5, 4] for a=3, written out independently."""
    a, x0, x1 = 3.0, 0.5, 4.0
    n = 100_001
    t = np.linspace(x0, x1, n)
    f = t ** (a - 1.0) * np.exp(-t)
    h = (x1 - x0) / (n - 1)
    oracle = h / 3.0 * (f[0] + f[-1] + 4 * f[1:-1:2].sum() + 2 * f[2:-2:2].sum())
    assert gen_upper_incomplete_gamma(a, x0, x1) == pytest.approx(oracle, rel=1e-10)


def test_gamma_endpoint_singularity_against_erf():
    """For a = 1/2 the window from zero equals sqrt(pi) * erf(sqrt(x1))."""
    for x1 in (0.5, 4.0, 25.0):
        expected = math.sqrt(math.pi) * math.erf(math.sqrt(x1))
        assert gen_upper_incomplete_gamma(0.5, 0.0, x1) == pytest.approx(expected, rel=1e-10)


def test_gamma_additivity():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = float(rng.uniform(0.3, 8.0))
        x0, xm, x1 = np.sort(rng.uniform(0.0, 12.0, 3))
        left = gen_upper_incomplete_gamma(a, x0, xm)
        right = gen_upper_incomplete_gamma(a, xm, x1)
        whole = gen_upper_incomplete_gamma(a, x0, x1)
        assert left + right == pytest.approx(whole, rel=1e-10, abs=1e-14)


def test_gamma_domain_errors():
    with pytest.raises(ValueError):
        gen_upper_incomplete_gamma(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        gen_upper_incomplete_gamma(1.0, -0.5, 1.0)
    with pytest.raises(ValueError):
        gen_upper_incomplete_gamma(1.0, 2.0, 1.0)


def test_gamma_degenerate_window_is_zero():
    assert gen_upper_incomplete_gamma(2.0, 1.5, 1.5) == 0.0


def test_gamma_accepts_infinite_upper_limit():
    assert gen_upper_incomplete_gamma(1.0, 0.0, math.inf) == pytest.approx(1.0, rel=1e-10)


def _window_by_series(a, x0, x1):
    """gamma(a, x1) - gamma(a, x0) from the lower-gamma power series
    gamma(a, x) = x^a e^-x sum_k x^k / (a (a+1) ... (a+k)), in 90-digit decimals."""
    with decimal.localcontext() as ctx:
        ctx.prec = 90
        a = decimal.Decimal(a)

        def lower(x):
            x = decimal.Decimal(x)
            if x == 0:
                return decimal.Decimal(0)
            term = total = 1 / a
            k = 0
            while term > total * decimal.Decimal("1e-70"):
                k += 1
                term *= x / (a + k)
                total += term
            return (a * x.ln() - x).exp() * total

        return float(lower(x1) - lower(x0))


@pytest.mark.parametrize("a, x0, x1, expected", [
    (2.0, 0.0, math.inf, 1.0),
    (2.0, 0.0, 200.0, 1.0 - 201.0 * math.exp(-200.0)),
    (10.0, 0.5, math.inf, math.factorial(9) * math.exp(-0.5) * sum(0.5**k / math.factorial(k) for k in range(10))),
])
def test_gamma_wide_windows_are_fast_and_exact(a, x0, x1, expected):
    """Windows much wider than the peak near t = a-1; these took up to 20 s."""
    start = time.perf_counter()
    value = gen_upper_incomplete_gamma(a, x0, x1)
    assert time.perf_counter() - start < 1.0
    assert value == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("a", [111.0, 150.0, 160.0])
def test_gamma_of_large_a_does_not_overflow(a):
    """t^(a-1) alone overflows a float here (near t = 900 at a = 111) although Gamma(a) does not."""
    assert gen_upper_incomplete_gamma(a, 0.0, math.inf) == pytest.approx(math.gamma(a), rel=1e-12)


@pytest.mark.parametrize("a", [170.0, 171.0])
def test_gamma_near_the_float_limit_does_not_overflow(a):
    """Gamma(171) = 7.3e306 is a float; the truncated upper limit must stay near enough the peak."""
    assert gen_upper_incomplete_gamma(a, 0.0, math.inf) == pytest.approx(math.gamma(a), rel=2e-13)


@pytest.mark.parametrize("a, x0, x1", [
    (0.0638, 1.83e-6, 113.04),
    (0.2, 1e-8, 10.0),
    (0.5, 1e-300, 1.0),
    (0.9, 1e-12, 50.0),
    (0.01, 1e-4, 120.0),
])
def test_gamma_windows_starting_just_above_zero(a, x0, x1):
    assert gen_upper_incomplete_gamma(a, x0, x1) == pytest.approx(_window_by_series(a, x0, x1), rel=1e-12)


def test_gamma_seeded_sweep_against_series():
    rng = np.random.default_rng(13)
    for _ in range(150):
        a = math.exp(rng.uniform(math.log(0.005), math.log(30.0)))
        x1 = math.exp(rng.uniform(math.log(1e-3), math.log(200.0)))
        x0 = x1 * (rng.uniform(0.0, 0.5) if rng.uniform() < 0.5 else math.exp(rng.uniform(math.log(1e-9), math.log(0.5))))
        expected = _window_by_series(a, x0, x1)
        assert gen_upper_incomplete_gamma(a, x0, x1) == pytest.approx(expected, rel=1e-12), (a, x0, x1)


@pytest.mark.parametrize("call", [
    lambda: lambert_w0("1"),
    lambda: lambert_w0(True),
    lambda: lambert_wm1(np.bool_(True)),
    lambda: lambert_wm1("-0.1"),
    lambda: gen_upper_incomplete_gamma("2", 0.0, 1.0),
    lambda: gen_upper_incomplete_gamma(2.0, False, 1.0),
    lambda: gen_upper_incomplete_gamma(2.0, 0.0, "1"),
    lambda: gen_upper_incomplete_gamma(2.0, 0.0, None),
])
def test_kernels_reject_booleans_and_strings(call):
    with pytest.raises(ValueError, match="must be a real number"):
        call()


def test_kernels_accept_numpy_numbers():
    assert lambert_w0(np.float64(math.e)) == pytest.approx(1.0, abs=1e-14)
    assert lambert_wm1(np.float32(-0.1)) == pytest.approx(lambert_wm1(float(np.float32(-0.1))))
    assert gen_upper_incomplete_gamma(np.int64(1), np.int32(0), np.float64(math.log(2.0))) == pytest.approx(0.5, rel=1e-12)
