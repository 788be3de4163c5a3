"""Analytical cost model for the low-parameter-count regime.

The model compares the quantum-side cost of the iterative baseline solver
(lower-bounded by the monomial (m*n)^p in the number of ansatz parameters n)
against the lattice sampler, whose sample count per dimension is encoded in
bits as s = log2(2*S_max + 1).  Their quotient

    cost_ratio(n) = (m * n * 2^(-n/r))^p,      r = p / s

peaks at n = r/ln2.  When the peak exceeds one, the two crossings of
cost_ratio(n) = 1 come from the two real Lambert W branches; the upper
crossing rounds up to the parameter-count threshold below which the sampler
wins, and averaging the ratio up to that threshold gives the expected
efficiency gain, expressible through the generalized upper incomplete gamma
function.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import gen_upper_incomplete_gamma, lambert_w0, lambert_wm1

__all__ = [
    "SubcriticalError",
    "EmptyWindowError",
    "ComplexityParams",
    "ModelReport",
    "resource_ratio",
    "peak",
    "is_supercritical",
    "crossover_points",
    "window_width",
    "advantage_threshold",
    "efficiency",
    "efficiency_integral",
    "discrete_window_efficiency",
    "rescale_natural_units",
    "fit_cost_heuristic",
    "model_report",
    "threshold_sweep",
    "efficiency_sweep",
]

_LN2 = math.log(2.0)


class SubcriticalError(ValueError):
    """The peak ratio never exceeds one: the sampler never beats the baseline."""


class EmptyWindowError(ValueError):
    """The advantage window contains no usable integer span (floor(width) = 0)."""


@dataclass(frozen=True)
class ComplexityParams:
    """Model parameters: baseline scale m, baseline power p, bits/dimension s.

    ``r = p/s`` is the derived quantity almost everything depends on; only
    overall efficiency magnitudes feel p and s separately.
    """

    m: float
    p: float
    s: float

    def __post_init__(self) -> None:
        for name in ("m", "p", "s"):
            value = float(getattr(self, name))
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be a positive finite real")
            object.__setattr__(self, name, value)

    @property
    def r(self) -> float:
        return self.p / self.s


def resource_ratio(params: ComplexityParams, n):
    """Baseline-to-sampler cost quotient (m*n*2^(-n/r))^p; n may be an array."""
    n = np.asarray(n, dtype=float)
    if np.any(n <= 0.0):
        raise ValueError("n must be positive")
    value = (params.m * n * np.exp2(-n / params.r)) ** params.p
    return float(value) if value.ndim == 0 else value


def peak(params: ComplexityParams) -> tuple[float, float]:
    """Location r/ln2 of the interior maximum and the ratio value there."""
    n_star = params.r / _LN2
    return n_star, (params.m * n_star / math.e) ** params.p


def is_supercritical(params: ComplexityParams) -> bool:
    """True iff the peak exceeds one, i.e. m * n_star > e."""
    n_star, _ = peak(params)
    return params.m * n_star > math.e


def crossover_points(params: ComplexityParams) -> tuple[float, float] | None:
    """Both roots of resource_ratio(n) = 1, or None in the subcritical regime.

    The roots are -n_star * W(bi)(-1/(m*n_star)) for the two real branches; at
    criticality (m*n_star = e) the branches coincide and both roots equal
    n_star.
    """
    n_star, _ = peak(params)
    arg = -1.0 / (params.m * n_star)
    if arg < -1.0 / math.e:
        return None
    if arg == -1.0 / math.e:
        return n_star, n_star
    return -n_star * lambert_w0(arg), -n_star * lambert_wm1(arg)


def window_width(params: ComplexityParams) -> float:
    """Width n_upper - n_lower of the advantage window (requires supercritical)."""
    if not is_supercritical(params):
        raise SubcriticalError("no advantage window at or below criticality")
    n_lower, n_upper = crossover_points(params)
    return n_upper - n_lower


def _snap_integer(value: float, tol: float = 1e-9) -> float:
    # guards ceil() against roots that are integers up to rounding error
    nearest = round(value)
    return float(nearest) if abs(value - nearest) < tol else value


def advantage_threshold(params: ComplexityParams) -> int:
    """Parameter count a = ceil(n_upper) below which the sampler is cheaper."""
    if not is_supercritical(params):
        raise SubcriticalError("no advantage threshold at or below criticality")
    return int(math.ceil(_snap_integer(crossover_points(params)[1])))


def efficiency(params: ComplexityParams) -> float:
    """Average ratio over n in [1, a] via the incomplete-gamma closed form.

    Substituting t = n*s*ln2 turns (1/a) * integral_1^a resource_ratio dn into
    (1/(a*s*ln2)) * (m/(s*ln2))^p * Gamma(p+1, s*ln2, a*s*ln2) exactly.
    """
    a = advantage_threshold(params)
    scale = params.s * _LN2
    gamma = gen_upper_incomplete_gamma(params.p + 1.0, scale, a * scale)
    return (params.m / scale) ** params.p * gamma / (a * scale)


def efficiency_integral(params: ComplexityParams, num_points: int = 200_001) -> float:
    """The defining average (1/a) * integral_1^a resource_ratio dn, by quadrature.

    Exposed alongside :func:`efficiency` so the closed form can be
    cross-checked; uses composite Simpson on an odd uniform grid.
    """
    a = advantage_threshold(params)
    if a <= 1:
        return 0.0
    if num_points % 2 == 0:
        num_points += 1
    grid = np.linspace(1.0, float(a), num_points)
    values = resource_ratio(params, grid)
    h = (grid[-1] - grid[0]) / (num_points - 1)
    integral = h / 3.0 * (
        values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-2:2].sum()
    )
    return float(integral) / a


def discrete_window_efficiency(params: ComplexityParams) -> float:
    """Literal discrete window average: sum of ratios over the integers inside
    [n_lower, n_upper], divided by floor(window width).

    Raises :class:`SubcriticalError` at or below criticality and, distinctly,
    :class:`EmptyWindowError` when the window holds no integers or its floored
    width degenerates to zero.
    """
    if not is_supercritical(params):
        raise SubcriticalError("no advantage window at or below criticality")
    n_lower, n_upper = crossover_points(params)
    first = math.ceil(_snap_integer(n_lower))
    last = math.floor(_snap_integer(n_upper))
    width = math.floor(_snap_integer(n_upper - n_lower))
    if last < first or width < 1:
        raise EmptyWindowError(
            f"window [{n_lower:.6g}, {n_upper:.6g}] has no usable integer span"
        )
    total = float(np.sum(resource_ratio(params, np.arange(first, last + 1, dtype=float))))
    return total / width


def rescale_natural_units(params: ComplexityParams, n: float) -> tuple[float, float]:
    """Strip the e and ln2 factors: returns (n/e, r/(e*ln2)).

    In these units the peak location equals the rescaled ratio itself.
    """
    return float(n) / math.e, params.r / (math.e * _LN2)


def fit_cost_heuristic(samples_by_n) -> tuple[float, float]:
    """Fit the lower-bounding monomial (m*n)^p to measured sample counts.

    Ordinary least squares in log-log space fixes the power p; the intercept
    is then shifted down until the curve touches the lowest point, so the
    returned (m, p) lower-bounds every observation.
    """
    data = [(float(n), float(total)) for n, total in samples_by_n]
    if len(data) < 2:
        raise ValueError("need at least two (n, samples) points")
    if any(n <= 0 or total <= 0 for n, total in data):
        raise ValueError("n and sample counts must be positive")
    log_n = np.array([math.log(n) for n, _ in data])
    log_s = np.array([math.log(total) for _, total in data])
    if np.ptp(log_n) == 0.0:
        raise ValueError("need at least two distinct n values")
    slope, intercept = np.polyfit(log_n, log_s, 1)
    if abs(slope) < 1e-12:
        raise ValueError("degenerate fit: flat sample counts")
    intercept_lb = float(np.min(log_s - slope * log_n))
    m = math.exp(intercept_lb / slope)
    return m, float(slope)


@dataclass(frozen=True)
class ModelReport:
    """Everything the model says about one parameter set."""

    params: ComplexityParams
    peak_location: float
    peak_ratio: float
    advantage_possible: bool
    n_lower: float | None = None
    n_upper: float | None = None
    window_width: float | None = None
    threshold: int | None = None
    efficiency: float | None = None


def model_report(params: ComplexityParams) -> ModelReport:
    n_star, peak_value = peak(params)
    if not is_supercritical(params):
        return ModelReport(params, n_star, peak_value, advantage_possible=False)
    n_lower, n_upper = crossover_points(params)
    return ModelReport(
        params=params,
        peak_location=n_star,
        peak_ratio=peak_value,
        advantage_possible=True,
        n_lower=n_lower,
        n_upper=n_upper,
        window_width=n_upper - n_lower,
        threshold=advantage_threshold(params),
        efficiency=efficiency(params),
    )


def threshold_sweep(m_values, r_values) -> np.ndarray:
    """Threshold a over an (m, r) grid; NaN marks subcritical cells.

    Rows follow ``m_values``, columns follow ``r_values``.
    """
    m_values = np.asarray(m_values, dtype=float)
    r_values = np.asarray(r_values, dtype=float)
    out = np.empty((m_values.size, r_values.size))
    for i, m in enumerate(m_values):
        for j, r in enumerate(r_values):
            # p = r at s = 1 gives r = p/s exactly; a depends on (m, r) only
            params = ComplexityParams(m=m, p=r, s=1.0)
            out[i, j] = advantage_threshold(params) if is_supercritical(params) else math.nan
    return out


def efficiency_sweep(p_values, s_values, m: float) -> np.ndarray:
    """Efficiency E over a (p, s) grid at fixed m; NaN marks subcritical cells.

    Rows follow ``p_values``, columns follow ``s_values``.
    """
    p_values = np.asarray(p_values, dtype=float)
    s_values = np.asarray(s_values, dtype=float)
    out = np.empty((p_values.size, s_values.size))
    for i, p in enumerate(p_values):
        for j, s in enumerate(s_values):
            params = ComplexityParams(m=m, p=float(p), s=float(s))
            out[i, j] = efficiency(params) if is_supercritical(params) else math.nan
    return out
