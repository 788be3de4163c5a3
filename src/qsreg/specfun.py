"""Numerical kernels for the cost model: Lambert W and incomplete gamma.

Both real branches of Lambert W solve w*exp(w) = x: the principal branch W0
(w >= -1, defined for x >= -1/e) and the lower branch W-1 (w <= -1, defined
for -1/e <= x < 0).  The generalized upper incomplete gamma over [x0, x1] is
adaptive Simpson on t^(a-1)*exp(-t), split at its peak, by parts for a < 1.
"""
from __future__ import annotations

import math
import numbers

__all__ = ["lambert_w0", "lambert_wm1", "gen_upper_incomplete_gamma"]

_STEP_TOL = 1e-14
_MAX_ITER = 50


def _halley(w: float, x: float) -> float:
    """Halley refinement of w*exp(w) = x from a branch-appropriate start."""
    for _ in range(_MAX_ITER):
        ew = math.exp(w)
        f = w * ew - x
        if f == 0.0:
            return w
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        step = f / denom
        w -= step
        if abs(step) <= _STEP_TOL * max(1.0, abs(w)):
            break
    return w


def _real(value, name: str) -> float:
    # a boolean or a string would otherwise pass float() as a number
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _lambert_w(x, name: str, sign: float) -> float:
    """Solve w*exp(w) = x on W0 (``sign`` = +1) or W-1 (``sign`` = -1).

    The branches share the branch-point series in p = sign*sqrt(2(e*x+1)) and
    the asymptotic start log|x| - log|log|x||; only W0 starts from log1p(x)
    for moderate x, and only W-1 needs x < 0.
    """
    x = _real(x, "x")
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    if sign < 0.0 and x >= 0.0:
        raise ValueError(f"{name} requires x < 0, got {x}")
    t = math.e * x + 1.0
    if -1e-12 < t < 0.0:
        t = 0.0  # rounding just below the branch point
    if t < 0.0:
        raise ValueError(f"{name} requires x >= -1/e, got {x}")
    if t == 0.0:
        return -1.0
    p = sign * math.sqrt(2.0 * t)
    if t < 1e-12:
        # so close to the branch point that the series is already exact
        return -1.0 + p - p * p / 3.0
    if t <= 0.7:
        w = -1.0 + p - p * p / 3.0 + 11.0 * p**3 / 72.0
    elif sign > 0.0 and x < math.e:
        w = math.log1p(x)
    else:
        l1 = math.log(abs(x))
        l2 = math.log(abs(l1))
        w = l1 - l2 + l2 / l1
    return _halley(w, x)


def lambert_w0(x: float) -> float:
    """Principal branch W0(x) for x >= -1/e; residual <= 1e-12*max(1, |x|)."""
    return _lambert_w(x, "lambert_w0", 1.0)


def lambert_wm1(x: float) -> float:
    """Lower branch W-1(x) for -1/e <= x < 0; residual <= 1e-12*max(1, |x|)."""
    return _lambert_w(x, "lambert_wm1", -1.0)


def _simpson(fa: float, fm: float, fb: float, h: float) -> float:
    return h / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, depth) -> float:
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    if depth <= 0:
        return left + right
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return _adaptive_simpson(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1) + _adaptive_simpson(
        f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1
    )


def _integrate(f, a: float, b: float, rel_tol: float = 1e-13) -> float:
    """Integral of ``f`` over [a, b] for a < b by adaptive Simpson."""
    # 8 coarse Simpson panels: their sum sets the absolute tolerance scale, and
    # each panel then seeds its own adaptive refinement
    grid = [a + (b - a) * i / 16.0 for i in range(17)]
    fvals = [f(t) for t in grid]
    panels = [
        _simpson(fvals[i], fvals[i + 1], fvals[i + 2], grid[i + 2] - grid[i]) for i in range(0, 16, 2)
    ]
    coarse = 0.0
    # a plain left-to-right sum: sum() compensates its rounding on Python >= 3.12
    for whole in panels:
        coarse += whole
    tol = max(rel_tol * abs(coarse), 5e-324)
    total = 0.0
    for i, whole in zip(range(0, 16, 2), panels):
        total += _adaptive_simpson(
            f, grid[i], grid[i + 2], fvals[i], fvals[i + 1], fvals[i + 2], whole, tol / 8.0, 48
        )
    return total


def gen_upper_incomplete_gamma(a: float, x0: float, x1: float) -> float:
    """Integral of t^(a-1)*exp(-t) over [x0, x1], ~1e-12 relative for a >= 0.005.

    Requires a > 0, 0 <= x0 <= x1; an infinite x1 is truncated where the
    integrand underflows.  If x0 < a < 1 and x1 >= 2*x0 (always so from 0),
    integration by parts leaves [t^a*exp(-t)]/a and an a+1 integral bounded at
    t = 0; elsewhere that boundary term would cancel.  A window holding the
    peak t = a-1 is split there, so each half's coarse pass sees the peak.  The
    integrand is scaled by its largest value on the window and the scale applied
    last in logarithms, so a representable result does not overflow on the way.
    """
    a, x0, x1 = _real(a, "a"), _real(x0, "x0"), _real(x1, "x1")
    if not a > 0.0:
        raise ValueError("a must be positive")
    if x0 < 0.0 or math.isnan(x0) or math.isnan(x1):
        raise ValueError("need 0 <= x0 <= x1")
    if x1 < x0:
        raise ValueError("need x1 >= x0")
    if math.isinf(x1):
        # 40 widths sqrt(a) past the peak at a-1, plus the 745 e-folds that take exp(-t)
        # below the smallest float: the integrand has decayed to irrelevance there, yet
        # is near enough the peak that the scaled t^(a-1) stays a float for a <= 171
        x1 = max(x0, a - 1.0 + 40.0 * math.sqrt(a) + 745.0)
    if x0 == x1:
        return 0.0
    if x0 < a < 1.0 and x1 >= 2.0 * x0:
        boundary = x1**a * math.exp(-x1) - x0**a * math.exp(-x0)
        return (boundary + gen_upper_incomplete_gamma(a + 1.0, x0, x1)) / a
    # divide the integrand by its largest value on the window, at c, so that neither
    # t^(a-1) nor exp(-t) overflows on its own (u = 1 where c = 0, i.e. a = 1 from 0)
    c = min(max(a - 1.0, x0), x1)
    u, power, exp = c or 1.0, a - 1.0, math.exp  # locals: f runs thousands of times per call
    f = lambda t: (t / u) ** power * exp(c - t)
    if x0 < c < x1:
        total = _integrate(f, x0, c) + _integrate(f, c, x1)
    else:
        total = _integrate(f, x0, x1)
    return total * exp(power * math.log(u) - c)
