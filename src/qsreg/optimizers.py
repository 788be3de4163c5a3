"""Classical minimization on the periodic parameter domain.

Two consumers: the baseline eigensolver loop driving the (possibly
stochastic) quantum objective, and deterministic global minimization of a
fitted trigonometric model.  Parameters live on a torus, so simplex vertices
are wrapped into ]-pi, pi] before every evaluation instead of being clamped.
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


@dataclass
class OptimizationResult:
    theta_min: np.ndarray
    value_min: float
    evaluations: int
    converged: bool
    trace: list | None = None


class _BudgetExhausted(Exception):
    pass


def nelder_mead_minimize(
    f,
    theta0,
    max_evals: int = 500,
    xtol: float = 1e-6,
    ftol: float | None = 1e-6,
    init_step: float = 0.25,
    record_trace: bool = False,
) -> OptimizationResult:
    """Nelder-Mead simplex descent with coefficients (1, 2, 0.5, 0.5).

    Every candidate is wrapped into ]-pi, pi] before evaluation.  Termination
    needs both the vertex spread <= ``xtol`` and the value spread <= ``ftol``
    (``ftol=None`` disables the value test, which keeps the search path
    invariant under positive rescaling of ``f``).  An exhausted evaluation
    budget sets ``converged=False`` instead of raising.  The initial simplex
    steps ``init_step`` along each axis from ``theta0``.
    """
    theta0 = wrap_angles(theta0)
    n = theta0.size
    if n < 1:
        raise ValueError("need at least one parameter")
    if max_evals < 1:
        raise ValueError("max_evals must be >= 1")
    ftol_val = math.inf if ftol is None else float(ftol)
    trace: list | None = [] if record_trace else None
    evals = 0

    def call(x: np.ndarray) -> float:
        nonlocal evals
        if evals >= max_evals:
            raise _BudgetExhausted
        xw = wrap_angles(x)
        value = float(f(xw))
        evals += 1
        if trace is not None:
            trace.append((xw.copy(), value))
        return value

    sim = [theta0.copy()]
    fsim = []
    converged = False
    try:
        fsim.append(call(sim[0]))
        for i in range(n):
            vertex = theta0.copy()
            vertex[i] += init_step
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
        trace=trace,
    )


def regression_global_minimize(model: FourierModel) -> OptimizationResult:
    """Deterministic global minimization of a fitted model.

    A lexicographic grid scan over ]-pi, pi]^n, evaluated separably, picks the
    best cell (ties break to the lexicographically smallest point); a simplex
    polish, run with the value-spread test disabled so the outcome is exactly
    invariant under positive rescaling of the model, replaces it if lower.
    The scan bounds values, not basins: with M_j = 8*(2*S_j+1) points per
    axis, Bernstein's inequality puts the best grid value within
    sigma^2 * (max - min) / 4 of the model minimum, sigma = sum_j pi*S_j/M_j,
    i.e. within 0.0096 * n^2 of the model's range.  A shallower basin whose
    floor lies closer to a grid point can still win the scan, and the local
    polish then stays in it.
    """
    bandwidths = model.bandwidths
    counts = [8 * (2 * s + 1) for s in bandwidths]
    axes = lattice_axes(counts)
    values = model.evaluate_grid(axes)
    best = np.unravel_index(np.argmin(values), values.shape)
    theta0 = np.array([coords[i] for coords, i in zip(axes, best)])
    value0 = float(values[best])
    evaluations = int(values.size)

    spacing = 2.0 * np.pi / max(counts)
    polish = nelder_mead_minimize(
        model.evaluate,
        theta0,
        max_evals=800 * len(bandwidths),
        xtol=1e-9,
        ftol=None,
        init_step=0.5 * spacing,
    )
    evaluations += polish.evaluations
    if polish.value_min <= value0:
        theta, value = polish.theta_min, polish.value_min
    else:
        theta, value = theta0, value0
    return OptimizationResult(theta, float(value), evaluations, True)


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
    record_trace: bool = False,
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

    return nelder_mead_minimize(
        live_objective,
        theta0,
        max_evals=max_evals,
        xtol=xtol,
        ftol=ftol,
        record_trace=record_trace,
    )


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
    oversample_factor = float(oversample_factor)
    if not math.isfinite(oversample_factor) or oversample_factor < 1.0:
        raise ValueError("oversample_factor must be a finite number >= 1")
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
