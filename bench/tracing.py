"""Spans around qsreg's public calls, recorded from outside the package.

A :class:`Tracer` replaces each traced name in the namespace where its caller
looks it up (a module global or a class attribute) with a wrapper that
records a span: its operation, id, parent span, name, start and end in
nanoseconds, and a few counts read off the result.  Spans stay in memory and
are written out when the run ends.  Outside an operation the wrappers only
pass the call through.
"""
from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

import qsreg.ansatz
import qsreg.cli
import qsreg.complexity
import qsreg.objective
import qsreg.optimizers
import qsreg.regression

import workloads


def _matrix_shape(result) -> dict:
    return {"rows": int(result.shape[0]), "cols": int(result.shape[1])}


def _evaluations(result) -> dict:
    return {"evals": int(result.evaluations)}


# (namespace the caller looks the name up in, attribute, span name, counts read off the result)
TRACED = (
    (workloads, "qsr_run", "optimizers.qsr_run", None),
    (workloads, "vqe_run", "optimizers.vqe_run", None),
    (workloads, "model_report", "complexity.model_report", None),
    (workloads, "load_problem", "cli.load_problem", None),
    (workloads, "parse_observable", "observables.parse_observable", None),
    (qsreg.cli, "parse_observable", "observables.parse_observable", None),
    (qsreg.optimizers, "evaluate_batch", "objective.evaluate_batch", None),
    (qsreg.optimizers, "evaluate", "objective.evaluate", None),
    (qsreg.optimizers, "fit_fourier_model", "regression.fit", None),
    (qsreg.optimizers, "regression_global_minimize", "optimizers.regression_global_minimize", None),
    (qsreg.optimizers, "nelder_mead_minimize", "optimizers.nelder_mead_minimize", _evaluations),
    (qsreg.objective, "exact_expectation", "statevector.exact_expectation", None),
    (qsreg.objective, "sampled_expectation", "statevector.sampled_expectation", None),
    (qsreg.ansatz, "apply_circuit", "statevector.apply_circuit", None),
    (qsreg.ansatz.Ansatz, "build", "ansatz.build", None),
    (qsreg.regression.FourierBasis, "design_matrix", "regression.design_matrix", _matrix_shape),
    (qsreg.regression.FourierModel, "evaluate", "regression.model_evaluate", None),
    (qsreg.complexity, "efficiency", "complexity.efficiency", None),
    (qsreg.complexity, "crossover_points", "complexity.crossover_points", None),
    (qsreg.complexity, "gen_upper_incomplete_gamma", "specfun.gen_upper_incomplete_gamma", None),
    (qsreg.complexity, "lambert_w0", "specfun.lambert_w0", None),
    (qsreg.complexity, "lambert_wm1", "specfun.lambert_wm1", None),
)


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (op, id, parent, name, start_ns, end_ns, counts)
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, original, name, counts):
        def traced(*args, **kwargs):
            if self.op is None:
                return original(*args, **kwargs)
            span_id = len(self.spans) + len(self._stack)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            result = None
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                extra = counts(result) if counts is not None and result is not None else None
                self.spans.append((self.op, span_id, parent, name, start, end, extra))

        traced.__wrapped__ = original
        return traced

    def __enter__(self) -> "Tracer":
        for owner, attr, name, counts in TRACED:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counts))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, span_id, parent, name, start, end, extra in self.spans:
                fh.write(json.dumps({"op": op, "id": span_id, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end, **(extra or {})}) + "\n")


def summarize(spans: list[tuple]) -> dict:
    """Per span name: calls, inclusive ns and self ns summed over all operations.

    Self time is a span's duration minus the durations of its direct children.
    Spans are also keyed by ``"<parent name>/<name>"`` so a call can be told
    apart by who made it (the Nelder-Mead polish from the VQE loop, say).
    """
    child_ns: dict[int, int] = defaultdict(int)
    names: dict[int, str] = {}
    for _, span_id, parent, name, start, end, _ in spans:
        names[span_id] = name
        if parent is not None:
            child_ns[parent] += end - start
    totals: dict[str, dict] = defaultdict(lambda: {"calls": 0, "incl_ns": 0, "self_ns": 0, "rows": 0,
                                                   "max_cells": 0, "evals": 0})
    for _, span_id, parent, name, start, end, extra in spans:
        duration = end - start
        keys = (name, f"{names.get(parent, '')}/{name}")
        for key in keys:
            entry = totals[key]
            entry["calls"] += 1
            entry["incl_ns"] += duration
            entry["self_ns"] += duration - child_ns[span_id]
            if extra:
                entry["rows"] += extra.get("rows", 0)
                entry["max_cells"] = max(entry["max_cells"], extra.get("rows", 0) * extra.get("cols", 0))
                entry["evals"] += extra.get("evals", 0)
    return dict(totals)


def layer_metrics(spans: list[tuple], num_ops: int, ledgers: list[dict], setup: dict) -> dict:
    """The benchmark's per-layer metrics: per operation means, except the per-run set-up times."""
    totals = summarize(spans)
    empty = {"calls": 0, "incl_ns": 0, "self_ns": 0, "rows": 0, "max_cells": 0, "evals": 0}

    def get(key: str) -> dict:
        return totals.get(key, empty)

    def per_op(value: float) -> float:
        return value / num_ops

    def ms(ns: float) -> float:
        return per_op(ns) / 1e6

    def us(ns: float) -> float:
        return per_op(ns) / 1e3

    samples = sum(led["samples"] for led in ledgers)
    objective_ns = get("objective.evaluate_batch")["incl_ns"] + get("objective.evaluate")["incl_ns"]
    grid = get("optimizers.qsr_run/optimizers.regression_global_minimize")
    grid_points = get("optimizers.regression_global_minimize/regression.design_matrix")
    polish = get("optimizers.regression_global_minimize/optimizers.nelder_mead_minimize")
    vqe = get("optimizers.vqe_run/optimizers.nelder_mead_minimize")
    lambert_ns = get("specfun.lambert_w0")["incl_ns"] + get("specfun.lambert_wm1")["incl_ns"]
    return {
        "statevector.sampled_expectation.calls": per_op(get("statevector.sampled_expectation")["calls"]),
        "statevector.sampled_expectation.ms": ms(get("statevector.sampled_expectation")["incl_ns"]),
        "statevector.exact_expectation.calls": per_op(get("statevector.exact_expectation")["calls"]),
        "statevector.exact_expectation.ms": ms(get("statevector.exact_expectation")["incl_ns"]),
        "statevector.apply_circuit.calls": per_op(get("statevector.apply_circuit")["calls"]),
        "statevector.apply_circuit.ms": ms(get("statevector.apply_circuit")["incl_ns"]),
        "ansatz.build.ms": ms(get("ansatz.build")["incl_ns"]),
        "objective.evaluate_batch.ms": ms(get("objective.evaluate_batch")["incl_ns"]),
        "objective.evaluate.ms": ms(get("objective.evaluate")["incl_ns"]),
        "objective.us_per_sample": objective_ns / 1e3 / samples if samples else 0.0,
        "objective.samples": per_op(samples),
        "objective.queries": per_op(sum(led["queries"] for led in ledgers)),
        "objective.measurements": per_op(sum(led["measurements"] for led in ledgers)),
        "regression.fit.ms": ms(get("regression.fit")["incl_ns"]),
        "regression.design_matrix.ms": ms(get("regression.design_matrix")["incl_ns"]),
        "regression.design_matrix.rows": per_op(get("regression.design_matrix")["rows"]),
        "regression.design_matrix.mb": get("regression.design_matrix")["max_cells"] * 8 / 2**20,
        "regression.model_evaluate.calls": per_op(get("regression.model_evaluate")["calls"]),
        "regression.model_evaluate.ms": ms(get("regression.model_evaluate")["incl_ns"]),
        "optimizers.grid_scan.ms": ms(grid["self_ns"]),
        "optimizers.grid_scan.points": per_op(grid_points["rows"]),
        "optimizers.polish.ms": ms(polish["incl_ns"]),
        "optimizers.polish.evals": per_op(polish["evals"]),
        "optimizers.nelder_mead.self_ms": ms(vqe["self_ns"]),
        "optimizers.vqe.evals": per_op(vqe["evals"]),
        "complexity.efficiency.ms": ms(get("complexity.efficiency")["incl_ns"]),
        "complexity.crossover_points.us": us(get("complexity.crossover_points")["incl_ns"]),
        "specfun.gen_upper_incomplete_gamma.ms": ms(get("specfun.gen_upper_incomplete_gamma")["incl_ns"]),
        "specfun.lambert_w.us": us(lambert_ns),
        "setup.import_qsreg.ms": setup["import_qsreg_ms"],
        "cli.load_problem.ms": setup["load_problem_ms"],
        "observables.parse_observable.ms": setup["parse_observable_ms"],
    }


def write_report(stem, tracer: Tracer, times_ms: list, metrics: dict) -> None:
    """Spans as JSON lines, and the per-name totals that account for the traced operation time."""
    tracer.write_spans(stem.with_suffix(".spans.jsonl"))
    ops = len(times_ms)
    totals = summarize(tracer.spans)
    layers = {
        name: {"calls": t["calls"] / ops, "incl_ms": t["incl_ns"] / 1e6 / ops, "self_ms": t["self_ns"] / 1e6 / ops}
        for name, t in sorted(totals.items()) if "/" not in name
    }
    roots = {span_id for _, span_id, parent, *_ in tracer.spans if parent is None}
    # the layers' self times under an entry point add up to the durations of its direct children
    layered_ns = sum(end - start for _, _, parent, _, start, end, _ in tracer.spans if parent in roots)
    summary = {
        "ops": ops,
        "spans_per_op": len(tracer.spans) / ops,
        "traced_op_ms_p50": statistics.median(times_ms),
        "traced_op_ms_mean": sum(times_ms) / ops,
        # op time outside every layer below the entry point (qsr_run, vqe_run, model_report):
        # the entry point's own code plus the timer and wrapper cost around it
        "unattributed_ms_per_op": (sum(times_ms) - layered_ns / 1e6) / ops,
        "layers": layers,
        "metrics": metrics,
    }
    stem.with_suffix(".summary.json").write_text(json.dumps(summary, indent=2) + "\n")


# unit of every per-layer metric, in the order layer_metrics reports them
UNITS = {
    name: ("count" if name.endswith((".calls", ".samples", ".queries", ".measurements", ".rows", ".points", ".evals"))
           else "MB" if name.endswith(".mb") else "us" if name.endswith((".us", "us_per_sample")) else "ms")
    for name in layer_metrics([], 1, [], {"import_qsreg_ms": 0, "load_problem_ms": 0, "parse_observable_ms": 0})
}
