"""The four benchmark workloads: inputs, the one timed operation, and its checks.

Every workload is a closed loop of one kind of operation.  Operation ``i``
of a run with seed ``n`` takes its input from ``numpy.random.default_rng([n, i, 0])``,
so a seed fixes an endless input list and two runs with one seed see the same
inputs in the same order.  ``setup`` and ``prepare`` build qsreg's problem
objects (they are what a cold start times); ``operate`` is the timed call;
``check`` compares its output with the oracles in ``oracles.py``, which never
call qsreg.
"""
from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import qsreg
from qsreg import ComplexityParams, EvalLedger, ObjectiveSpec, model_report, parse_observable, qsr_run, vqe_run
from qsreg.cli import load_problem

import circuits
import oracles

SHOTS = 10_000
# the paper's table row: deuteron-2 sampled at the uniform S = 2 bound, 25 lattice points
DEUTERON_BANDWIDTHS = (2, 2)
LADDER_QUBITS = 4
LADDER_PARAMS = 4
LADDER_TERMS = 8
OFF_LATTICE_POINTS = 64
RANDOM_SEARCH_POINTS = 4096
MAX_MEDIAN_ERROR_PERCENT = 1.0


class CheckFailed(Exception):
    """An operation's output disagrees with an oracle or a property of the method."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def input_rng(seed: int, index: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, index, stream])


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[], Any]
    prepare: Callable[[Any, int, int], Any]
    operate: Callable[[Any], Any]
    oracle: Callable[[], Any]
    check: Callable[[Any, Any, Any], dict]
    check_run: Callable[[list[dict]], str | None]
    ledger: Callable[[Any], dict]


# ---------------------------------------------------------------- deuteron-2


class DeuteronOracle:
    """Dense Hamiltonian and circuit copy of deuteron-2, read from the raw data file."""

    def __init__(self) -> None:
        path = Path(qsreg.__file__).parent / "data" / "deuteron-3q.json"
        doc = json.loads(path.read_text())
        terms = [(float(t["weight"]), t["pauli"]) for t in doc["terms"]]
        self.h = oracles.dense_hamiltonian(doc["num_qubits"], terms)
        self.ground = oracles.ground_energy(self.h)
        self.measured_terms = sum(1 for _, ops in terms if set(ops) != {"I"})
        self.energy_at_zero = self.energy(np.zeros(2))

    def energy(self, theta) -> float:
        return float(oracles.energies(circuits.DEUTERON_2, self.h, np.asarray(theta)[None, :])[0])


def _deuteron_setup():
    return load_problem("deuteron-2")


def _deuteron_prepare(problem, seed: int, index: int) -> ObjectiveSpec:
    ansatz, observable = problem
    shot_seed = int(input_rng(seed, index).integers(0, 2**31))
    return ObjectiveSpec(ansatz, observable, mode="shots", shots=SHOTS, seed=shot_seed)


def _qsr_shots_operate(spec: ObjectiveSpec):
    _, result, ledger = qsr_run(spec, bandwidth_override=DEUTERON_BANDWIDTHS)
    return result, ledger


def _qsr_shots_check(oracle: DeuteronOracle, spec, output) -> dict:
    result, ledger = output
    samples = math.prod(2 * s + 1 for s in DEUTERON_BANDWIDTHS)
    expect(
        (ledger.samples, ledger.queries, ledger.measurements)
        == (samples, 1, samples * oracle.measured_terms * SHOTS),
        f"ledger {ledger.as_dict()}",
    )
    energy = oracle.energy(result.theta_min)
    expect(energy >= oracle.ground - 1e-9, f"energy {energy} below lambda_min {oracle.ground}")
    return {"error_percent": abs(energy - oracle.ground) / abs(oracle.ground) * 100.0}


def _qsr_shots_check_run(details: list[dict]) -> None:
    median = statistics.median(d["error_percent"] for d in details)
    expect(median <= MAX_MEDIAN_ERROR_PERCENT, f"median error {median}% > {MAX_MEDIAN_ERROR_PERCENT}%")


def _vqe_shots_operate(spec: ObjectiveSpec):
    ledger = EvalLedger()
    result = vqe_run(spec, np.zeros(spec.num_params), ledger=ledger)
    return result, ledger


def _vqe_shots_check(oracle: DeuteronOracle, spec, output) -> dict:
    result, ledger = output
    expect(ledger.queries == ledger.samples, f"ledger {ledger.as_dict()}")
    expect(
        ledger.measurements == ledger.samples * oracle.measured_terms * SHOTS,
        f"ledger {ledger.as_dict()}",
    )
    energy = oracle.energy(result.theta_min)
    expect(energy >= oracle.ground - 1e-9, f"energy {energy} below lambda_min {oracle.ground}")
    expect(energy < oracle.energy_at_zero, f"energy {energy} not below the start {oracle.energy_at_zero}")
    return {}


# ---------------------------------------------------------------- ladders


@dataclass(frozen=True)
class LadderInput:
    seed: int
    index: int
    circuit: circuits.Circuit
    terms: list
    spec: ObjectiveSpec


def _ladder_prepare(_, seed: int, index: int) -> LadderInput:
    rng = input_rng(seed, index)
    circuit = circuits.random_ladder(rng, LADDER_QUBITS, LADDER_PARAMS)
    terms = circuits.random_pauli_sum(rng, LADDER_QUBITS, LADDER_TERMS)
    observable = parse_observable(circuits.hamiltonian_json(LADDER_QUBITS, terms))
    return LadderInput(seed, index, circuit, terms, ObjectiveSpec(circuits.to_ansatz(circuit), observable))


def _qsr_exact_operate(inp: LadderInput):
    return qsr_run(inp.spec)


def _qsr_exact_check(_, inp: LadderInput, output) -> dict:
    model, result, ledger = output
    samples = math.prod(2 * s + 1 for s in inp.circuit.bandwidths)
    expect(
        (ledger.samples, ledger.queries, ledger.measurements) == (samples, 1, 0),
        f"ledger {ledger.as_dict()}",
    )
    h = oracles.dense_hamiltonian(inp.circuit.num_qubits, inp.terms)
    ground = oracles.ground_energy(h)
    one_norm = sum(abs(w) for w, _ in inp.terms)
    rng = input_rng(inp.seed, inp.index, stream=1)
    points = rng.uniform(-np.pi, np.pi, size=(RANDOM_SEARCH_POINTS, inp.circuit.num_params))
    truth = oracles.energies(inp.circuit, h, points)
    misfit = float(np.max(np.abs(model.evaluate_many(points[:OFF_LATTICE_POINTS]) - truth[:OFF_LATTICE_POINTS])))
    expect(misfit <= 1e-9 * one_norm, f"model misfit {misfit} off the lattice")
    at_min = float(oracles.energies(inp.circuit, h, result.theta_min[None, :])[0])
    expect(abs(result.value_min - at_min) <= 1e-9, f"value_min {result.value_min} vs oracle {at_min}")
    expect(result.value_min >= ground - 1e-9, f"value_min {result.value_min} below lambda_min {ground}")
    # Reported, not a failure: on about one ladder in 500 the grid scan picks a cell in the
    # wrong basin and qsr_run returns a local minimum (see the FOUND line in CHANGES.md).
    # A check that fails on some seeds only would make the failed share differ between runs.
    gap = result.value_min - float(truth.min())
    return {"above_random_search": gap if gap > 1e-9 else 0.0}


def _qsr_exact_check_run(details: list[dict]) -> str:
    gaps = [d["above_random_search"] for d in details if d["above_random_search"] > 0]
    return (f"value_min above the random-search minimum (a local minimum) on {len(gaps)} of "
            f"{len(details)} operations" + (f", by up to {max(gaps):.3g}" if gaps else ""))


# ---------------------------------------------------------------- cost model


def _cost_prepare(_, seed: int, index: int) -> ComplexityParams:
    """Draw (m, p, s) until supercritical (m * n_star > e); subcritical reports return at once."""
    rng = input_rng(seed, index)
    while True:
        m = math.exp(rng.uniform(math.log(0.5), math.log(10.0)))
        p = rng.uniform(2.0, 20.0)
        s = math.log2(2 * int(rng.integers(1, 6)) + 1)
        if m * p / (s * math.log(2.0)) > math.e:
            return ComplexityParams(m=m, p=p, s=s)


def _close(value, reference, rel: float) -> bool:
    return value is not None and abs(value - reference) <= rel * abs(reference)


def _cost_check(_, params: ComplexityParams, report) -> dict:
    ref = oracles.cost_model(params.m, params.p, params.s)
    expect(report.advantage_possible, "supercritical draw reported no advantage window")
    expect(_close(report.n_lower, ref["n_lower"], 1e-10), f"n_lower {report.n_lower} vs {ref['n_lower']}")
    expect(_close(report.n_upper, ref["n_upper"], 1e-10), f"n_upper {report.n_upper} vs {ref['n_upper']}")
    expect(report.threshold == ref["threshold"], f"threshold {report.threshold} vs {ref['threshold']}")
    expect(_close(report.efficiency, ref["efficiency"], 1e-8), f"efficiency {report.efficiency} vs {ref['efficiency']}")
    return {}


def _no_run_check(details: list[dict]) -> None:
    return None


def _none():
    return None


def _ledger_of(output) -> dict:
    return output[-1].as_dict()


def _no_ledger(_) -> dict:
    return {"samples": 0, "queries": 0, "measurements": 0}


def _cost_oracle():
    import scipy.special  # noqa: F401  -- loaded before the timed loop, not during its first check


def _cost_operate(params: ComplexityParams):
    return model_report(params)


WORKLOADS = {
    "qsr-shots": Workload("qsr-shots", _deuteron_setup, _deuteron_prepare, _qsr_shots_operate,
                          DeuteronOracle, _qsr_shots_check, _qsr_shots_check_run, _ledger_of),
    "vqe-shots": Workload("vqe-shots", _deuteron_setup, _deuteron_prepare, _vqe_shots_operate,
                          DeuteronOracle, _vqe_shots_check, _no_run_check, _ledger_of),
    "qsr-exact": Workload("qsr-exact", _none, _ladder_prepare, _qsr_exact_operate,
                          _none, _qsr_exact_check, _qsr_exact_check_run, _ledger_of),
    "cost-model": Workload("cost-model", _none, _cost_prepare, _cost_operate,
                           _cost_oracle, _cost_check, _no_run_check, _no_ledger),
}
