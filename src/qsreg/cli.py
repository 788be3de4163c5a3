"""Command-line front end: benchmark runs, comparison tables, model sweeps.

Subcommands: ``run``, ``table1``, ``complexity``, ``landscape``,
``verify-bandwidth``.  All outputs are plain JSON or CSV; besides ``--out``,
only a qsr ``run`` writes a file, its fitted model.  Exit codes: 0 success,
1 runtime error, 2 configuration error.  ``RunConfig`` checks every solver
setting of ``run``, ``table1`` and ``landscape``.  Relative output paths are
resolved against ``$QSREG_OUTPUT_DIR`` when that variable is set.  An output
path that is empty or a directory, or whose directory does not exist (other than
a creatable ``$QSREG_OUTPUT_DIR``, made at the first write), is a configuration
error before any solver, sweep or grid runs.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .ansatz import Ansatz, _parse_circuit, exact_objective, verify_bandwidth
from .complexity import (
    ComplexityParams,
    _LN2,
    advantage_threshold,
    crossover_points,
    efficiency,
    efficiency_sweep,
    is_supercritical,
    peak,
    threshold_sweep,
)
from .objective import EvalLedger, ObjectiveSpec, evaluate_batch
from .observables import ObservableSum, exact_spectrum, parse_observable
from .optimizers import qsr_run, vqe_run
from .regression import FourierModel, _check_bandwidths, _check_integer, _check_real, uniform_lattice

__all__ = ["RunConfig", "ConfigError", "load_problem", "main"]

DEFAULT_SHOTS = 10_000
DEFAULT_M = 2.0
OUTPUT_DIR_ENV = "QSREG_OUTPUT_DIR"

# problem name -> (bundled circuit file, bundled Hamiltonian file)
PROBLEMS = {
    "deuteron-1": ("deuteron-1-circuit.json", "deuteron-2q.json"),
    "deuteron-2": ("deuteron-2-circuit.json", "deuteron-3q.json"),
}

# the solver settings that the other algorithm reads; giving one is a configuration error
_FOREIGN_SETTINGS = {
    "qsr": ("theta0", "max_evals", "xtol", "ftol"),
    "vqe": ("bandwidths", "oversample", "model_out"),
}

class ConfigError(ValueError):
    """An invalid setting or usage; the command line exits 2 on it."""


def load_problem(name: str) -> tuple[Ansatz, ObservableSum]:
    """The bundled problem's (ansatz, observable) pair, parsed once per process."""
    if not isinstance(name, str) or name not in PROBLEMS:
        raise ConfigError(f"unknown problem {name!r}; available: {sorted(PROBLEMS)}")
    return _parse_problem(name)


@functools.cache
def _parse_problem(name: str) -> tuple[Ansatz, ObservableSum]:
    # both objects are frozen, so every caller can share them
    circuit, hamiltonian = (resources.files("qsreg").joinpath("data", f).read_text() for f in PROBLEMS[name])
    return _parse_circuit(name, circuit), parse_observable(hamiltonian)


@dataclass
class RunConfig:
    """The checked settings of one solver run.  ``spec`` is the run's ``ObjectiveSpec``, built
    once here; its own checks are the value checks of the mode, shots and seed."""

    problem: str
    algorithm: str
    mode: str = "exact"
    shots: int | None = None
    seed: int = 0
    bandwidths: list[int] | None = None
    oversample: float | None = None
    theta0: list[float] | None = None
    max_evals: int | None = None
    xtol: float | None = None
    ftol: float | None = None
    model_out: str | None = None
    spec: ObjectiveSpec = dataclasses.field(init=False, repr=False)

    def __post_init__(self) -> None:
        ansatz, observable = load_problem(self.problem)
        if self.algorithm not in ("vqe", "qsr"):
            raise ConfigError("algorithm must be 'vqe' or 'qsr'")
        if self.mode == "exact" and self.shots is not None:
            raise ConfigError("shots is read in shots mode only; set the mode to shots or leave shots out")
        if self.mode == "shots" and self.shots is None:
            self.shots = DEFAULT_SHOTS
        try:
            self.spec = ObjectiveSpec(ansatz, observable, mode=self.mode, shots=self.shots, seed=self.seed)
            self.shots, self.seed = self.spec.shots, self.spec.seed
            if self.bandwidths is not None:
                self.bandwidths = list(_check_bandwidths(self.bandwidths))
            if self.oversample is not None:
                self.oversample = _check_real(self.oversample, "oversample", minimum=1.0)
            if self.theta0 is not None:
                if np.ndim(self.theta0) != 1:
                    raise ValueError(f"theta0 must be a list of finite real numbers, got {self.theta0!r}")
                self.theta0 = [_check_real(t, "theta0", minimum=-np.inf) for t in self.theta0]
            if self.max_evals is not None:
                self.max_evals = _check_integer(self.max_evals, "max_evals", minimum=1)
            if self.xtol is not None:
                self.xtol = _check_real(self.xtol, "xtol", minimum=0.0)
            if self.ftol is not None:
                self.ftol = _check_real(self.ftol, "ftol", minimum=0.0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        foreign = [name for name in _FOREIGN_SETTINGS[self.algorithm] if getattr(self, name) is not None]
        if foreign:
            raise ConfigError(f"the {self.algorithm} algorithm does not read {', '.join(foreign)}")
        if self.algorithm == "qsr":
            if self.oversample is None:
                self.oversample = 1.0
            if self.model_out is None:
                self.model_out = f"{self.problem}-qsr-model.json"
        if self.bandwidths is not None and len(self.bandwidths) != ansatz.num_params:
            raise ConfigError(f"bandwidths needs {ansatz.num_params} entries, got {len(self.bandwidths)}")
        if self.theta0 is not None and len(self.theta0) != ansatz.num_params:
            raise ConfigError(f"theta0 needs {ansatz.num_params} entries")
        if not isinstance(self.model_out, (str, type(None))):
            raise ConfigError(f"model_out must be a path string or None, got {self.model_out!r}")


def _check_out(path: str | None) -> str | None:
    """The output path resolved against ``$QSREG_OUTPUT_DIR`` (``None`` if not given); creates nothing.
    ``ConfigError`` if it is empty, a directory, or in a missing directory other than that one,
    which must be creatable: nothing there, and its nearest existing ancestor a writable directory."""
    if path is None:
        return None
    if not path:
        raise ConfigError("output path is empty")
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    if os.path.isdir(path):
        raise ConfigError(f"output path {path!r} is a directory")
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        if not (base and os.path.normpath(directory) == os.path.normpath(base)):
            raise ConfigError(f"output directory {directory!r} does not exist")
        ancestor = os.path.abspath(directory)
        while not os.path.lexists(ancestor):
            ancestor = os.path.dirname(ancestor)
        if not (os.path.isdir(ancestor) and os.access(ancestor, os.W_OK | os.X_OK)):
            raise ConfigError(f"output directory {directory!r} cannot be created")
    return path


def _error_percent(energy: float, ground: float) -> float:
    return abs(energy - ground) / abs(ground) * 100.0


def execute_run(config: RunConfig) -> tuple[dict, FourierModel | None]:
    """Run one solver configuration; return the result document and the
    fitted model (``None`` for vqe).  Nothing is written: ``cmd_run`` saves
    the model and sets the document's ``model_path`` to the resolved path.

    The reported ``energy`` is the noiseless expectation value of the
    observable at the returned parameters, i.e. the eigenvalue estimate that
    goes with the returned state; the raw optimizer objective (stochastic in
    shots mode) is reported separately as ``objective_value``.  Error% is
    |energy - lambda_min| / |lambda_min| * 100 against dense diagonalization.
    These diagnostics run outside the sample/query ledger.
    """
    spec = config.spec
    ansatz, observable = spec.ansatz, spec.observable
    ledger = EvalLedger()
    model = None
    result_doc: dict = {
        "problem": config.problem,
        "algorithm": config.algorithm,
        "mode": spec.mode,
        "shots": spec.shots,
        "seed": spec.seed,
    }

    if config.algorithm == "qsr":
        model, opt, ledger = qsr_run(
            spec,
            bandwidth_override=config.bandwidths,
            oversample_factor=config.oversample,
            ledger=ledger,
        )
        result_doc["bandwidths"] = list(model.bandwidths)
        result_doc["oversample_factor"] = config.oversample
        result_doc["model_path"] = config.model_out
        result_doc["residual_norm"] = model.metadata.get("residual_norm")
    else:
        opt = vqe_run(
            spec,
            np.zeros(ansatz.num_params) if config.theta0 is None else np.array(config.theta0),
            ledger=ledger,
            max_evals=config.max_evals,
            xtol=config.xtol,
            ftol=config.ftol,
        )

    ground = exact_spectrum(observable).min_eigenvalue
    energy = exact_objective(ansatz, observable, opt.theta_min)
    result_doc.update(
        energy=energy,
        objective_value=opt.value_min,
        theta_min=[float(t) for t in opt.theta_min],
        converged=bool(opt.converged),
        evaluations=int(opt.evaluations),
        ledger=ledger.as_dict(),
        exact_ground_energy=ground,
        error_percent=_error_percent(energy, ground),
    )
    return result_doc, model


def _table_rows(mode: str, shots: int | None, seed: int) -> list[dict]:
    rows = []
    for problem in PROBLEMS:
        ansatz = load_problem(problem)[0]
        # QSR samples each problem at the uniform bound: its largest S_j on every axis
        uniform = (max(ansatz.bandwidths),) * ansatz.num_params
        for algorithm in ("vqe", "qsr"):
            # exact-mode baseline rows get tight stopping so the table's
            # noiseless errors sit at numerical precision
            tight = algorithm == "vqe" and mode == "exact"
            config = RunConfig(problem=problem, algorithm=algorithm, mode=mode, shots=shots, seed=seed,
                               bandwidths=uniform if algorithm == "qsr" else None,
                               ftol=1e-12 if tight else None, xtol=1e-8 if tight else None,
                               max_evals=4000 if tight else None)
            doc, _ = execute_run(config)
            rows.append(
                {
                    "n": ansatz.num_params,
                    "algorithm": algorithm.upper(),
                    "samples": doc["ledger"]["samples"],
                    "queries": doc["ledger"]["queries"],
                    "error_percent": doc["error_percent"],
                }
            )
    return rows


def cmd_table1(args) -> int:
    out = _check_out(args.out)
    rows = _table_rows(args.mode, args.shots, args.seed)
    header = f"{'n':>2}  {'Algorithm':<9}  {'Samples':>8}  {'Queries':>8}  {'Error%':>12}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['n']:>2}  {row['algorithm']:<9}  {row['samples']:>8}  "
            f"{row['queries']:>8}  {row['error_percent']:>12.6g}"
        )
    if out:
        lines = [",".join(rows[0])] + [",".join(str(value) for value in row.values()) for row in rows]
        _emit_csv("\n".join(lines), out)
    return 0


def cmd_run(args) -> int:
    # every RunConfig init field is a `run` flag of the same name
    values = {field.name: getattr(args, field.name) for field in dataclasses.fields(RunConfig) if field.init}
    values["bandwidths"] = _parse_list(args.bandwidths, int, "integers")
    values["theta0"] = _parse_list(args.theta0, float, "floats")
    config = RunConfig(**values)
    out, model_out = _check_out(args.out), _check_out(config.model_out)
    if out and model_out and os.path.realpath(out) == os.path.realpath(model_out):
        raise ConfigError(f"the result and the model would both be written to {os.path.realpath(out)!r}")
    doc, model = execute_run(config)
    if model is not None:
        doc["model_path"] = model_out
        model.save(_make_output_dir(model_out))
    _emit_json(doc, out)
    return 0


def _parse_list(text: str | None, convert, noun: str) -> list | None:
    """Comma-separated values through ``convert``; ``noun`` names them in the error."""
    if text is None:
        return None
    try:
        return [convert(part) for part in str(text).split(",")]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated {noun}, got {text!r}") from exc


def _parse_range(text: str) -> np.ndarray:
    parts = str(text).split(":")
    if len(parts) != 3:
        raise ConfigError(f"range must be lo:hi:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"range must be lo:hi:count, got {text!r}") from exc
    if count < 1:
        raise ConfigError("range count must be >= 1")
    # every swept model value (m, r, p or s) must be a positive finite real
    if not (np.isfinite(lo) and np.isfinite(hi) and lo > 0.0 and hi > 0.0):
        raise ConfigError(f"range bounds must be positive finite reals, got {text!r}")
    return np.linspace(lo, hi, count)


def _params_from_args(args) -> tuple[ComplexityParams, bool]:
    """Build model params from exactly (m, p, s) or (m, r); the flag says which."""
    given = tuple(getattr(args, flag) is not None for flag in ("p", "s", "r"))
    if given == (True, True, False):
        return ComplexityParams(m=args.m, p=args.p, s=args.s), True
    if given == (False, False, True):
        # only (m, r)-dependent quantities are meaningful for this synthetic pair
        return ComplexityParams(m=args.m, p=args.r, s=1.0), False
    raise ConfigError("provide either --p and --s, or --r, and no other model value")


def _model_document(params: ComplexityParams, full: bool) -> dict:
    """The cost-model report.  The (m, r) form holds what m and r determine; ``full``
    (p and s given) adds the peak ratio, p, s and the efficiency."""
    doc = {"m": params.m, "r": params.r, "peak_location": params.r / _LN2}
    if full:
        doc["peak_ratio"] = peak(params)[1]
    doc["advantage"] = is_supercritical(params)
    if doc["advantage"]:
        n_lower, n_upper = crossover_points(params)
        doc.update(
            n_lower=n_lower,
            n_upper=n_upper,
            window_width=n_upper - n_lower,
            threshold=advantage_threshold(params),
        )
    if full:
        doc.update(p=params.p, s=params.s)
        if doc["advantage"]:
            doc["efficiency"] = efficiency(params)
    return doc


# the flags each complexity action reads; any other model flag given is a configuration error
_COMPLEXITY_FLAGS = {
    ("threshold", None): ("m", "p", "s", "r"),
    ("sweep", "threshold"): ("what", "m_range", "r_range"),
    ("sweep", "efficiency"): ("what", "m", "p_range", "s_range"),
}


def cmd_complexity(args) -> int:
    what = (args.what or "threshold") if args.action == "sweep" else None
    own = _COMPLEXITY_FLAGS[args.action, what]
    foreign = [flag for flag in ("what", "m", "p", "s", "r", "m_range", "r_range", "p_range", "s_range")
               if getattr(args, flag) is not None and flag not in own]
    if foreign:
        name = args.action if what is None else f"sweep --what {what}"
        flags = ", ".join("--" + flag.replace("_", "-") for flag in foreign)
        raise ConfigError(f"complexity {name} does not take {flags}")
    if args.m is None:
        args.m = DEFAULT_M
    # the model values ComplexityParams would reject are configuration errors
    for flag in ("m", "p", "s", "r"):
        value = getattr(args, flag)
        if value is not None and not (np.isfinite(value) and value > 0.0):
            raise ConfigError(f"--{flag} must be a positive finite real, got {value!r}")
    out = _check_out(args.out)
    if args.action == "threshold":
        _emit_json(_model_document(*_params_from_args(args)), out)
        return 0
    if what == "threshold":
        if args.m_range is None or args.r_range is None:
            raise ConfigError("threshold sweep needs --m-range and --r-range")
        m_values = _parse_range(args.m_range)
        r_values = _parse_range(args.r_range)
        matrix = threshold_sweep(m_values, r_values)
        _emit_grid_csv("m/r", m_values, r_values, matrix, out)
    else:
        if args.p_range is None or args.s_range is None:
            raise ConfigError("efficiency sweep needs --p-range, --s-range and --m")
        p_values = _parse_range(args.p_range)
        s_values = _parse_range(args.s_range)
        matrix = efficiency_sweep(p_values, s_values, args.m)
        _emit_grid_csv("p/s", p_values, s_values, matrix, out)
    return 0


def _make_output_dir(path: str) -> str:
    """Create the missing ``$QSREG_OUTPUT_DIR`` of a path from ``_check_out``; return the path."""
    os.makedirs(os.path.normpath(os.path.dirname(path)), exist_ok=True)
    return path


def _write_out(text: str, path: str) -> None:
    """Write ``text`` to a path from ``_check_out``."""
    with open(_make_output_dir(path), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _emit_json(doc: dict, out: str | None) -> None:
    """Print the document, and write it to the resolved path ``out`` as well when given."""
    text = json.dumps(doc, indent=2)
    print(text)
    if out:
        _write_out(text, out)


def _emit_csv(text: str, out: str | None, note: str = "") -> None:
    """Write the CSV to the resolved path ``out`` and report it (plus ``note``), or print it."""
    if out:
        _write_out(text, out)
        print(f"wrote {out}{note}")
    else:
        print(text)


def _emit_grid_csv(corner: str, row_values, col_values, matrix, out: str | None) -> None:
    """Grid CSV: header row carries the column-axis values, first column the
    row-axis values, one matrix per file."""
    lines = [[corner] + [f"{v:.10g}" for v in col_values]]
    for value, row in zip(row_values, matrix):
        lines.append([f"{value:.10g}"] + [f"{cell:.10g}" for cell in row])
    _emit_csv("\n".join(",".join(line) for line in lines), out)


def cmd_landscape(args) -> int:
    ansatz = load_problem(args.problem)[0]
    if ansatz.num_params > 2:
        raise ValueError("landscape export supports at most two parameters")
    config = RunConfig(problem=args.problem, algorithm="qsr", mode=args.mode, shots=args.shots,
                       seed=args.seed, bandwidths=_parse_list(args.bandwidths, int, "integers"))
    out = _check_out(args.out)
    resolution = int(args.resolution)
    if resolution < 2:
        raise ConfigError("resolution must be >= 2")
    grid = uniform_lattice([resolution] * ansatz.num_params)
    raw = evaluate_batch(config.spec, grid)
    model, _, _ = qsr_run(config.spec, bandwidth_override=config.bandwidths)
    predicted = model.evaluate_many(grid)

    header = list(ansatz.param_names) + ["raw", "model"]
    rows = [
        [f"{v:.12g}" for v in grid[i]] + [f"{raw[i]:.12g}", f"{predicted[i]:.12g}"]
        for i in range(grid.shape[0])
    ]
    text = "\n".join([",".join(header)] + [",".join(r) for r in rows])
    _emit_csv(text, out, f" ({grid.shape[0]} rows)")
    return 0


def cmd_verify_bandwidth(args) -> int:
    report = verify_bandwidth(*load_problem(args.problem))
    if args.json:
        doc = {
            "problem": args.problem,
            "passed": report.passed,
            "axes": [dataclasses.asdict(c) for c in report.checks],
        }
        print(json.dumps(doc, indent=2))
    else:
        for line in report.summary_lines():
            print(line)
        print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ``ConfigError``, so ``main`` prints it as an error document."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qsreg",
        description="Nyquist-lattice sampling regression and baseline eigensolver benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # flags that several subcommands share, each declared once here
    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("--problem", required=True, choices=sorted(PROBLEMS))

    def solver(mode="exact"):
        flags = argparse.ArgumentParser(add_help=False)
        flags.add_argument("--mode", choices=["exact", "shots"], default=mode)
        flags.add_argument("--shots", type=int, default=None)
        flags.add_argument("--seed", type=int, default=0)
        return flags

    run = sub.add_parser("run", parents=[problem, solver()], help="execute one solver run, emit result JSON")
    run.add_argument("--algorithm", required=True, choices=["vqe", "qsr"])
    run.add_argument("--bandwidths", help="comma-separated override, e.g. 2,2")
    run.add_argument("--oversample", type=float, default=None, help="qsr; default 1")
    run.add_argument("--theta0", help="comma-separated start point (vqe)")
    run.add_argument("--max-evals", type=int, default=None)
    run.add_argument("--xtol", type=float, default=None)
    run.add_argument("--ftol", type=float, default=None)
    run.add_argument("--out", help="write result JSON here as well")
    run.add_argument("--model-out", help="persisted model path (qsr)")
    run.set_defaults(func=cmd_run)

    table = sub.add_parser("table1", parents=[solver("shots")], help="four-row solver comparison table")
    table.add_argument("--out", help="also write rows as CSV")
    table.set_defaults(func=cmd_table1)

    comp = sub.add_parser("complexity", help="cost-model reports and sweeps")
    comp.add_argument("action", choices=["threshold", "sweep"])
    comp.add_argument("--m", type=float, help=f"default {DEFAULT_M}")
    comp.add_argument("--p", type=float, default=None)
    comp.add_argument("--s", type=float, default=None)
    comp.add_argument("--r", type=float, default=None)
    comp.add_argument("--what", choices=["threshold", "efficiency"], help="sweep only; default threshold")
    comp.add_argument("--m-range", help="lo:hi:count")
    comp.add_argument("--r-range", help="lo:hi:count")
    comp.add_argument("--p-range", help="lo:hi:count")
    comp.add_argument("--s-range", help="lo:hi:count")
    comp.add_argument("--out")
    comp.set_defaults(func=cmd_complexity)

    land = sub.add_parser("landscape", parents=[problem, solver()],
                          help="export raw vs reconstructed landscape CSV")
    land.add_argument("--resolution", type=int, default=41)
    land.add_argument("--bandwidths", help="comma-separated override for the model")
    land.add_argument("--out")
    land.set_defaults(func=cmd_landscape)

    verify = sub.add_parser("verify-bandwidth", parents=[problem],
                            help="check the derived bandwidths by an FFT scan")
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=cmd_verify_bandwidth)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(json.dumps({"error": {"type": "config", "message": str(exc)}}))
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
