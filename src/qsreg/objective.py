"""Expectation-value objective h(theta) with sample/query accounting.

A *sample* is one objective evaluation at one parameter point; a *query* is
one backend round trip (a batched request counts once).  Shot-mode evaluation
measures every non-identity term independently with the full shot budget; the
identity weight is added classically and never consumes shots.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .observables import ObservableSum
from .regression import _check_integer
from .statevector import child_seed, exact_expectation, sampled_expectation

if TYPE_CHECKING:
    from .ansatz import Ansatz

__all__ = ["MODES", "EvalLedger", "ObjectiveSpec", "evaluate", "evaluate_batch"]

MODES = ("exact", "shots")


@dataclass
class EvalLedger:
    """Running counts of objective samples, backend queries and measurements.

    ``measurements`` counts shot-consuming (point, term) pairs times shots.
    """

    samples: int = 0
    queries: int = 0
    measurements: int = 0

    def as_dict(self) -> dict:
        return {
            "samples": self.samples,
            "queries": self.queries,
            "measurements": self.measurements,
        }


@dataclass(frozen=True)
class ObjectiveSpec:
    """Pairs an ansatz with an observable and fixes the evaluation mode."""

    ansatz: Ansatz
    observable: ObservableSum
    mode: str = "exact"
    shots: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.ansatz.num_qubits != self.observable.num_qubits:
            raise ValueError(
                f"ansatz acts on {self.ansatz.num_qubits} qubits but observable "
                f"on {self.observable.num_qubits}"
            )
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "shots" and self.shots is None:
            raise ValueError("shots mode needs shots >= 1")
        if self.shots is not None:
            object.__setattr__(self, "shots", _check_integer(self.shots, "shots", minimum=1))
        object.__setattr__(self, "seed", _check_integer(self.seed, "seed", minimum=0))

    @property
    def num_params(self) -> int:
        return self.ansatz.num_params


def _evaluate_points(
    spec: ObjectiveSpec, points: np.ndarray, ledger: EvalLedger | None, first_index: int
) -> np.ndarray:
    """The one evaluator: objective values at the rows of ``points`` as one query.

    Row ``i`` draws its shots from the streams of sample index ``first_index + i``.
    """
    if points.ndim != 2 or points.shape[0] == 0 or points.shape[1] != spec.num_params:
        raise ValueError(
            f"parameter points have shape {points.shape}, expected (k >= 1, {spec.num_params})"
        )
    if not np.all(np.isfinite(points)):
        raise ValueError("parameter points must be finite")
    values = np.empty(points.shape[0])
    measured = 0
    for row, theta in enumerate(points):
        state = spec.ansatz.state(theta)
        total = 0.0
        for term_index, (weight, pauli) in enumerate(spec.observable.terms):
            if pauli.is_identity:
                total += weight
            elif spec.mode == "exact":
                total += weight * exact_expectation(state, pauli)
            else:
                rng = child_seed(spec.seed, first_index + row, term_index)
                total += weight * sampled_expectation(state, pauli, spec.shots, rng)
                measured += spec.shots
        values[row] = total
    if ledger is not None:
        ledger.samples += points.shape[0]
        ledger.queries += 1
        ledger.measurements += measured
    return values


def evaluate(spec: ObjectiveSpec, theta, ledger: EvalLedger | None = None, sample_index: int = 0) -> float:
    """One objective sample; increments the ledger by one sample and one query.

    Exact mode is deterministic.  Shot mode is deterministic given
    ``(spec.seed, sample_index)``: each (point, term) pair owns an independent
    child random stream, so results do not depend on evaluation order.
    """
    point = np.atleast_1d(np.asarray(theta, dtype=float))[None]
    return float(_evaluate_points(spec, point, ledger, sample_index)[0])


def evaluate_batch(spec: ObjectiveSpec, thetas, ledger: EvalLedger | None = None) -> np.ndarray:
    """Evaluate many points as a single backend query.

    Increments samples by ``len(thetas)`` but queries by one only; this is the
    mechanism by which a Nyquist-lattice run reaches a single query.
    """
    return _evaluate_points(spec, np.atleast_2d(np.asarray(thetas, dtype=float)), ledger, 0)
