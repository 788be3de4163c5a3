"""Classical minimization on the periodic parameter domain.

Two consumers: the baseline eigensolver loop, a simplex descent on the
(possibly stochastic) quantum objective, and deterministic global
minimization of a fitted trigonometric model by a grid scan plus Newton
steps.  The scan names its grid by the per-axis counts M, takes the model's
per-axis tables from the fit's cache, and computes values in blocks of
``_GRID_BLOCK_CELLS``, the one setting that sizes every block.  Parameters
live on a torus, so simplex vertices and Newton steps are wrapped into
]-pi, pi] before every evaluation instead of being clamped.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .objective import EvalLedger, ObjectiveSpec, evaluate, evaluate_batch
from .regression import (
    FourierBasis,
    FourierModel,
    SampleSet,
    _check_bandwidths,
    _check_integer,
    _check_real,
    fit_fourier_model,
    lattice_axes,
    uniform_lattice,
    wrap_angles,
)

__all__ = [
    "wrap_angles",
    "OptimizationResult",
    "nelder_mead_minimize",
    "regression_global_minimize",
    "vqe_run",
    "qsr_run",
]

# standard simplex coefficients: reflection, expansion, contraction, shrink
_RHO, _CHI, _GAMMA, _SIGMA = 1.0, 2.0, 0.5, 0.5
# edge of the initial simplex along each axis, in radians
_INIT_STEP = 0.25

# model minimization: Newton starts taken from the grid scan, the Hessian eigenvalue
# floor relative to sum|c|, the step length (radians) that retires a start, and a step cap
_NEWTON_STARTS = 8
_EIGENVALUE_FLOOR = 1e-8
_MIN_STEP = 1e-10
_NEWTON_MAX_STEPS = 100
# the scan's bound is lowered by this times sum|c|: far above the rounding of a bound or a grid value
_BOUND_MARGIN = 1e-12
# values per block of the grid scan: the block's numpy calls, not its cells, dominate below this
_GRID_BLOCK_CELLS = 2**14


# eq=False: compared by identity, as the regression records are
@dataclass(eq=False)
class OptimizationResult:
    theta_min: np.ndarray
    value_min: float
    evaluations: int
    converged: bool


class _BudgetExhausted(Exception):
    pass


def nelder_mead_minimize(
    f,
    theta0,
    max_evals: int = 500,
    xtol: float = 1e-6,
    ftol: float | None = 1e-6,
) -> OptimizationResult:
    """Nelder-Mead simplex descent with coefficients (1, 2, 0.5, 0.5).

    Every candidate is wrapped into ]-pi, pi] before evaluation.  Termination
    needs both the vertex spread <= ``xtol`` and the value spread <= ``ftol``
    (``ftol=None`` disables the value test, which keeps the search path
    invariant under positive rescaling of ``f``).  An exhausted evaluation
    budget sets ``converged=False`` instead of raising.  The initial simplex
    steps 0.25 rad along each axis from ``theta0``.
    """
    theta0 = wrap_angles(theta0)
    n = theta0.size
    if n < 1:
        raise ValueError("need at least one parameter")
    max_evals = _check_integer(max_evals, "max_evals", minimum=1)
    xtol = _check_real(xtol, "xtol", minimum=0.0)
    ftol_val = math.inf if ftol is None else _check_real(ftol, "ftol", minimum=0.0)
    evals = 0

    def call(x: np.ndarray) -> float:
        nonlocal evals
        if evals >= max_evals:
            raise _BudgetExhausted
        value = float(f(wrap_angles(x)))
        evals += 1
        return value

    sim = [theta0.copy()]
    fsim = []
    converged = False
    try:
        fsim.append(call(sim[0]))
        for i in range(n):
            vertex = theta0.copy()
            vertex[i] += _INIT_STEP
            sim.append(vertex)
            fsim.append(call(vertex))
        sim = np.asarray(sim)
        fsim = np.asarray(fsim)

        while True:
            order = np.argsort(fsim, kind="stable")
            sim, fsim = sim[order], fsim[order]
            x_spread = np.max(np.abs(sim[1:] - sim[0]))
            f_spread = np.max(np.abs(fsim[1:] - fsim[0]))
            if x_spread <= xtol and f_spread <= ftol_val:
                converged = True
                break

            centroid = sim[:-1].mean(axis=0)
            reflected = centroid + _RHO * (centroid - sim[-1])
            f_reflected = call(reflected)
            if f_reflected < fsim[0]:
                expanded = centroid + _CHI * (reflected - centroid)
                f_expanded = call(expanded)
                if f_expanded < f_reflected:
                    sim[-1], fsim[-1] = expanded, f_expanded
                else:
                    sim[-1], fsim[-1] = reflected, f_reflected
            elif f_reflected < fsim[-2]:
                sim[-1], fsim[-1] = reflected, f_reflected
            else:
                if f_reflected < fsim[-1]:
                    contracted = centroid + _GAMMA * (reflected - centroid)
                    f_contracted = call(contracted)
                    accept = f_contracted <= f_reflected
                else:
                    contracted = centroid - _GAMMA * (centroid - sim[-1])
                    f_contracted = call(contracted)
                    accept = f_contracted < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = contracted, f_contracted
                else:
                    for i in range(1, n + 1):
                        shrunk = sim[0] + _SIGMA * (sim[i] - sim[0])
                        # call may abort on budget; update the pair only after it returns
                        f_shrunk = call(shrunk)
                        sim[i], fsim[i] = shrunk, f_shrunk
    except _BudgetExhausted:
        converged = False

    sim = np.asarray(sim)
    fsim = np.asarray(fsim)
    best = int(np.argsort(fsim, kind="stable")[0])
    return OptimizationResult(
        theta_min=wrap_angles(sim[best]),
        value_min=float(fsim[best]),
        evaluations=evals,
        converged=converged,
    )


def regression_global_minimize(model: FourierModel) -> OptimizationResult:
    """Deterministic global minimization of a fitted model.

    The grid over ]-pi, pi]^n has M_j = 8*(2*S_j+1) points per axis, and its
    8 best cells (ties to the lexicographically smallest point) are found
    without computing most of it: the coefficients are contracted once over
    axes 1..n-1 into a (2*S_0+1) x C partial P, and no value in column x is
    below b[x] = P[0, x] - sum_k hypot(P[2k-1, x], P[2k, x]).  Only columns
    with b[x] - 1e-12 * sum|c| at most the 8th-best value of the 8
    lowest-bound columns are computed and ranked (:func:`_grid_best_cells`),
    so memory is P plus one bound per column.  Newton's method then runs from
    those 8 cells at once, with the model's exact gradient and Hessian.  Each
    step is saddle-free (Hessian eigenvalues replaced by max(|lambda|, 1e-8 *
    sum|c|)) and is halved until the value does not rise.  A start retires once its full or halved step is
    under 1e-10 radians or a step leaves its value unchanged, and all stop
    after a fixed number of steps.  The lowest Newton end replaces the best
    cell if it is not higher.  All of this is invariant under positive
    rescaling of the model: bit-exact for binary scales.

    The scan bounds values, not basins: Bernstein's inequality puts the best
    grid value within sigma^2 * (max - min) / 4 of the model minimum,
    sigma = sum_j pi*S_j/M_j, i.e. within 0.0096 * n^2 of the model's range,
    and the result is never above the best grid value.  The global basin is
    found when one of the 8 best cells lies in it; a deeper basin that holds
    none of them can still be missed.

    ``evaluations`` counts the grid points, computed or ruled out, plus every
    point at which the values, gradients and Hessians were evaluated (the 8
    starts and each trial step).
    """
    counts = [8 * (2 * s + 1) for s in model.bandwidths]
    starts, start_values = _grid_best_cells(model, counts)
    evaluations = math.prod(counts)

    # the smallest normal float keeps the all-zero model (zero gradient, zero floor) off 0/0
    floor = max(_EIGENVALUE_FLOOR * float(np.sum(np.abs(model.coefficients))), np.finfo(float).tiny)
    theta = starts.copy()
    value, gradient, hessian = model._value_derivatives(theta)
    evaluations += len(theta)
    active = np.ones(len(theta), dtype=bool)
    for _ in range(_NEWTON_MAX_STEPS):
        pending = np.flatnonzero(active)
        if pending.size == 0:
            break
        eigenvalues, eigenvectors = np.linalg.eigh(hessian[pending])
        scale = np.maximum(np.abs(eigenvalues), floor)
        along = (gradient[pending][:, None, :] @ eigenvectors)[:, 0, :] / scale
        step = -(eigenvectors @ along[:, :, None])[:, :, 0]
        while pending.size:
            # a start whose full or halved step is this small has converged or failed to descend
            moving = np.max(np.abs(step), axis=1) >= _MIN_STEP
            active[pending[~moving]] = False
            pending, step = pending[moving], step[moving]
            if pending.size == 0:
                break
            trial = wrap_angles(theta[pending] + step)
            trial_value, trial_gradient, trial_hessian = model._value_derivatives(trial)
            evaluations += len(trial)
            accept = trial_value <= value[pending]
            taken = pending[accept]
            # a step that leaves the value unchanged is round-off wander on a flat floor
            active[taken[trial_value[accept] == value[taken]]] = False
            theta[taken], value[taken] = trial[accept], trial_value[accept]
            gradient[taken], hessian[taken] = trial_gradient[accept], trial_hessian[accept]
            pending, step = pending[~accept], 0.5 * step[~accept]

    best = int(np.argmin(value))
    if value[best] <= start_values[0]:
        theta_min, value_min = theta[best], value[best]
    else:
        theta_min, value_min = starts[0], start_values[0]
    return OptimizationResult(wrap_angles(theta_min), float(value_min), evaluations, True)


def _grid_best_cells(model: FourierModel, counts) -> tuple[np.ndarray, np.ndarray]:
    """The ``_NEWTON_STARTS`` lowest cells of ``uniform_lattice(counts)`` as points
    and values, ordered by value and then by flat (lexicographic) index.

    The grid's values are ``table @ partial`` (:meth:`FourierModel._grid_partial`),
    one column x per cell of axes 1..n-1.  Column x's values are a trigonometric
    polynomial in theta_0, so by the triangle inequality none is below
    b[x] = partial[0, x] - sum_k hypot(partial[2k-1, x], partial[2k, x]), the
    exact minimum over a continuous theta_0 when S_0 = 1.  The 8th-best value
    over the 8 lowest-bound columns is an incumbent.  Only the columns with
    b[x] - 1e-12 * sum|c| <= incumbent can hold a cell that ranks, so only their
    values are computed, in blocks of about ``_GRID_BLOCK_CELLS``, and ranked.
    A model whose columns all pass, such as a constant one, is ranked whole.
    """
    table, partial = model._grid_partial(counts)
    rows, columns = len(table), partial.shape[1]
    keep = min(_NEWTON_STARTS, rows * columns)
    lower = _column_lower_bounds(partial, float(np.sum(np.abs(model.coefficients))))
    seeds = np.flatnonzero(lower <= _smallest(lower, keep).max())[:keep]
    incumbent = _smallest(_leading_axis_values(table, partial[:, seeds]).reshape(-1), keep).max()
    candidates = np.flatnonzero(lower <= incumbent)

    best_values = np.empty(0)
    best_index = np.empty(0, dtype=np.int64)
    width = max(1, _GRID_BLOCK_CELLS // rows)
    for first in range(0, len(candidates), width):
        chosen = candidates[first:first + width]
        block = _leading_axis_values(table, partial[:, chosen]).reshape(-1)
        if best_values.size == keep:
            # a cell tying the k-th best may have the smaller flat index, so it stays in the pool
            pool = np.flatnonzero(block <= best_values[-1])
        else:
            pool = np.arange(block.size)
        if pool.size > keep:
            # of these only the block's own k best, ties included, can enter
            pool = pool[block[pool] <= _smallest(block[pool], keep).max()]
        if pool.size == 0:
            continue  # the one pass most blocks take: none of their cells can enter
        row, column = np.divmod(pool, len(chosen))
        values = np.concatenate([best_values, block[pool]])
        index = np.concatenate([best_index, row * columns + chosen[column]])
        order = np.lexsort((index, values))[:keep]
        best_values, best_index = values[order], index[order]
    cells = np.unravel_index(best_index, counts)
    points = np.stack([coords[c] for coords, c in zip(lattice_axes(counts), cells)], axis=-1)
    return points, best_values


def _column_lower_bounds(partial: np.ndarray, scale: float) -> np.ndarray:
    """Each column's bound of :func:`_grid_best_cells` less the margin.

    ``scale`` is sum|c|, which bounds every entry of ``partial``: the
    amplitudes are ``scale`` times those of ``partial / scale``, whose squares
    can neither overflow nor lose more than the margin to underflow.  Computed
    in blocks of ``_GRID_BLOCK_CELLS`` columns, so the only array over all
    columns is ``lower``.
    """
    columns = partial.shape[1]
    lower = np.empty(columns)
    # the all-zero model has all bounds zero; the unit scale keeps it off 0/0
    unit = 1.0 / scale if scale > 0 else 1.0
    step = _GRID_BLOCK_CELLS
    for first in range(0, columns, step):
        part = partial[:, first:first + step]
        squares = np.multiply(part[1:], unit)
        np.square(squares, out=squares)
        amplitudes = squares[0::2]
        amplitudes += squares[1::2]
        np.sqrt(amplitudes, out=amplitudes)
        bound = np.subtract(part[0], _BOUND_MARGIN * scale, out=lower[first:first + step])
        for amplitude in amplitudes:
            bound -= np.multiply(amplitude, scale, out=amplitude)
    return lower


def _smallest(values: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` smallest entries of a 1-D array, in no order (all of them if it has no more)."""
    return values if values.size <= count else np.partition(values, count - 1)[:count]


def _leading_axis_values(table: np.ndarray, partial: np.ndarray) -> np.ndarray:
    """``table @ partial`` summed over the leading index in order, one product and one sum at a time.

    Each value's rounding then depends on its own row and column only, not on
    which others are computed with it, so any subset of a grid's columns gives
    the values of the whole grid bit for bit.  A BLAS product promises no such
    thing across shapes.
    """
    values = np.multiply(table[:, :1], partial[0])
    term = np.empty_like(values)
    for index in range(1, table.shape[1]):
        values += np.multiply(table[:, index:index + 1], partial[index], out=term)
    return values


def _shots_ftol(spec: ObjectiveSpec) -> float:
    # observable 1-norm bounds |<H>|, a natural value scale for lax stopping
    return 1e-2 * max(1.0, spec.observable.one_norm)


def vqe_run(
    spec: ObjectiveSpec,
    theta0,
    ledger: EvalLedger | None = None,
    max_evals: int | None = None,
    xtol: float | None = None,
    ftol: float | None = None,
) -> OptimizationResult:
    """Baseline eigensolver loop: simplex descent on the live objective.

    Every optimizer evaluation is one sample and one query in the ledger.  In
    shots mode each evaluation draws a fresh child stream (indexed by the
    running evaluation count), so the objective is genuinely stochastic while
    the whole run stays bit-reproducible for fixed seeds and options.
    Defaults follow the mode: exact runs stop at ftol 1e-6, shot runs at the
    laxer 1e-2 times the observable's 1-norm.
    """
    n = spec.num_params
    if max_evals is None:
        max_evals = 200 * n if spec.mode == "exact" else 100 * n
    if xtol is None:
        xtol = 1e-6 if spec.mode == "exact" else 2e-2
    if ftol is None:
        ftol = 1e-6 if spec.mode == "exact" else _shots_ftol(spec)
    ledger = ledger if ledger is not None else EvalLedger()
    counter = itertools.count()

    def live_objective(theta: np.ndarray) -> float:
        return evaluate(spec, theta, ledger, sample_index=next(counter))

    return nelder_mead_minimize(live_objective, theta0, max_evals=max_evals, xtol=xtol, ftol=ftol)


def qsr_run(
    spec: ObjectiveSpec,
    bandwidth_override=None,
    oversample_factor: float = 1.0,
    ledger: EvalLedger | None = None,
) -> tuple[FourierModel, OptimizationResult, EvalLedger]:
    """Sampling-regression eigensolver: lattice, one batched query, fit, solve.

    Builds the uniform lattice for the ansatz bandwidths (or an override,
    which may undersample; an ``oversample_factor`` > 1 densifies each axis),
    evaluates all lattice points in a single batched query, fits the
    trigonometric model, and minimizes the model classically.  Returns the
    fitted model, the optimization result and the ledger, whose counts are
    samples = lattice size and queries = 1.
    """
    ansatz = spec.ansatz
    if bandwidth_override is None:
        bandwidths = tuple(ansatz.bandwidths)
    else:
        bandwidths = _check_bandwidths(bandwidth_override)
        if len(bandwidths) != ansatz.num_params:
            raise ValueError(
                f"bandwidth override needs {ansatz.num_params} entries, got {len(bandwidths)}"
            )
    oversample_factor = _check_real(oversample_factor, "oversample_factor", minimum=1.0)
    counts = [
        max(2 * s + 1, int(np.ceil(oversample_factor * (2 * s + 1) - 1e-9)))
        for s in bandwidths
    ]
    ledger = ledger if ledger is not None else EvalLedger()

    points = uniform_lattice(counts)
    values = evaluate_batch(spec, points, ledger)
    samples = SampleSet(
        points,
        values,
        metadata={
            "mode": spec.mode,
            "shots": spec.shots,
            "seed": spec.seed,
            "oversample_factor": oversample_factor,
            "undersampled": any(s < t for s, t in zip(bandwidths, ansatz.bandwidths)),
        },
    )
    model = fit_fourier_model(samples, FourierBasis(bandwidths))
    result = regression_global_minimize(model)
    return model, result, ledger
