"""Expectation-value objective h(theta) with sample/query accounting.

A *sample* is one objective evaluation at one parameter point; a *query* is
one backend round trip (a batched request counts once).  Shot-mode evaluation
measures every non-identity term independently with the full shot budget; the
identity weight is added classically and never consumes shots.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ansatz import Ansatz
from .observables import ObservableSum
from .statevector import child_seed, exact_expectation, sampled_expectation

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
        if self.mode == "shots":
            if self.shots is None or int(self.shots) < 1:
                raise ValueError("shots mode needs shots >= 1")
            if int(self.seed) < 0:
                raise ValueError("seed must be non-negative")

    @property
    def num_params(self) -> int:
        return self.ansatz.num_params


def _check_theta(spec: ObjectiveSpec, theta) -> np.ndarray:
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape != (spec.num_params,):
        raise ValueError(
            f"parameter vector has shape {theta.shape}, expected ({spec.num_params},)"
        )
    if not np.all(np.isfinite(theta)):
        raise ValueError("parameter vector must be finite")
    return theta


def _single_value(spec: ObjectiveSpec, theta: np.ndarray, sample_index: int) -> tuple[float, int]:
    state = spec.ansatz.state(theta)
    total = 0.0
    measured = 0
    for term_index, (weight, pauli) in enumerate(spec.observable.terms):
        if pauli.is_identity:
            total += weight
        elif spec.mode == "exact":
            total += weight * exact_expectation(state, pauli)
        else:
            rng = child_seed(spec.seed, sample_index, term_index)
            total += weight * sampled_expectation(state, pauli, int(spec.shots), rng)
            measured += int(spec.shots)
    return total, measured


def evaluate(spec: ObjectiveSpec, theta, ledger: EvalLedger | None = None, sample_index: int = 0) -> float:
    """One objective sample; increments the ledger by one sample and one query.

    Exact mode is deterministic.  Shot mode is deterministic given
    ``(spec.seed, sample_index)``: each (point, term) pair owns an independent
    child random stream, so results do not depend on evaluation order.
    """
    theta = _check_theta(spec, theta)
    value, measured = _single_value(spec, theta, sample_index)
    if ledger is not None:
        ledger.samples += 1
        ledger.queries += 1
        ledger.measurements += measured
    return value


def evaluate_batch(spec: ObjectiveSpec, thetas, ledger: EvalLedger | None = None) -> np.ndarray:
    """Evaluate many points as a single backend query.

    Increments samples by ``len(thetas)`` but queries by one only; this is the
    mechanism by which a Nyquist-lattice run reaches a single query.
    """
    points = np.atleast_2d(np.asarray(thetas, dtype=float))
    if points.size == 0:
        raise ValueError("evaluate_batch needs at least one parameter point")
    if points.shape[1] != spec.num_params:
        raise ValueError(
            f"points have dimension {points.shape[1]}, expected {spec.num_params}"
        )
    if not np.all(np.isfinite(points)):
        raise ValueError("parameter points must be finite")
    values = np.empty(points.shape[0])
    measured_total = 0
    for index, theta in enumerate(points):
        values[index], measured = _single_value(spec, theta, index)
        measured_total += measured
    if ledger is not None:
        ledger.samples += points.shape[0]
        ledger.queries += 1
        ledger.measurements += measured_total
    return values
