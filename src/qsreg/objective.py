"""Expectation-value objective h(theta) with sample/query accounting.

A *sample* is one objective evaluation at one parameter point; a *query* is
one backend round trip (a batched request counts once).  Exact and shot mode
share one measurement path: the batch is rotated once into each
qubit-wise-commuting measurement basis of the observable and the outcome
table |amplitude|^2 is taken once per basis.  Exact mode reads each term off
that table; shot mode draws every non-identity term's histogram from it with
the full shot budget.  Each sample owns one random stream
``(seed, sample_index)``, consumed group by group in group order.  The
identity weight is added classically and never consumes shots.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
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
        return asdict(self)


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

    All rows are simulated as one batch, and each measurement group of the
    observable is evaluated on the whole batch at once.  In shot mode row
    ``i`` draws from the one stream of sample index ``first_index + i``.
    """
    if points.ndim != 2 or points.shape[0] == 0 or points.shape[1] != spec.num_params:
        raise ValueError(
            f"parameter points have shape {points.shape}, expected (k >= 1, {spec.num_params})"
        )
    if not np.all(np.isfinite(points)):
        raise ValueError("parameter points must be finite")
    states = spec.ansatz.states(points)
    terms = spec.observable.terms
    groups = spec.observable.measurement_groups
    shots = spec.shots if spec.mode == "shots" else 0
    if shots:
        rngs = [np.random.default_rng(child_seed(spec.seed, first_index + row)) for row in range(len(points))]
    values = np.zeros(points.shape[0])
    for group in groups:
        paulis = tuple(terms[index][1] for index in group)
        if shots:
            measured = sampled_expectation(states, paulis, shots, rngs)
        else:
            measured = exact_expectation(states, paulis)
        for column, index in enumerate(group):
            values += terms[index][0] * measured[:, column]
    values += sum(weight for weight, pauli in terms if pauli.is_identity)
    if ledger is not None:
        ledger.samples += points.shape[0]
        ledger.queries += 1
        ledger.measurements += points.shape[0] * sum(map(len, groups)) * shots
    return values


def evaluate(spec: ObjectiveSpec, theta, ledger: EvalLedger | None = None, sample_index: int = 0) -> float:
    """One objective sample; increments the ledger by one sample and one query.

    Exact mode is deterministic.  Shot mode is deterministic given
    ``(spec.seed, sample_index)``: each sample owns an independent child
    random stream, so results do not depend on evaluation order.
    """
    point = np.atleast_1d(np.asarray(theta, dtype=float))[None]
    return float(_evaluate_points(spec, point, ledger, sample_index)[0])


def evaluate_batch(spec: ObjectiveSpec, thetas, ledger: EvalLedger | None = None) -> np.ndarray:
    """Evaluate many points as a single backend query.

    Increments samples by ``len(thetas)`` but queries by one only; this is the
    mechanism by which a Nyquist-lattice run reaches a single query.
    """
    return _evaluate_points(spec, np.atleast_2d(np.asarray(thetas, dtype=float)), ledger, 0)
