"""Command-line front end: benchmark runs, comparison tables, model sweeps.

Subcommands: ``run``, ``table1``, ``complexity``, ``landscape``,
``verify-bandwidth``.  All outputs are plain JSON or CSV; besides ``--out``,
only a qsr ``run`` writes a file, its fitted model.  Exit codes: 0 success,
1 runtime error, 2 configuration error.  ``RunConfig`` checks every solver
setting of ``run``, ``table1`` and ``landscape``.  Relative output paths are
resolved against ``$QSREG_OUTPUT_DIR`` when that variable is set.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .ansatz import Ansatz, deuteron_ansatz_1, deuteron_ansatz_2, exact_objective, verify_bandwidth
from .complexity import (
    ComplexityParams,
    efficiency,
    efficiency_sweep,
    is_supercritical,
    model_report,
    peak,
    threshold_sweep,
)
from .objective import EvalLedger, ObjectiveSpec, evaluate_batch
from .observables import ObservableSum, exact_spectrum, parse_observable
from .optimizers import qsr_run, vqe_run
from .regression import FourierModel, _check_bandwidths, _check_integer, _check_real, lattice_axes, uniform_lattice

__all__ = ["RunConfig", "ConfigError", "load_problem", "main"]

DEFAULT_SHOTS = 10_000
OUTPUT_DIR_ENV = "QSREG_OUTPUT_DIR"

# problem name -> (ansatz factory, bundled Hamiltonian file)
PROBLEMS = {
    "deuteron-1": (deuteron_ansatz_1, "deuteron-2q.json"),
    "deuteron-2": (deuteron_ansatz_2, "deuteron-3q.json"),
}

# Table-style comparison rows pin the lattice the benchmark historically used:
# the two-parameter problem is sampled at the uniform bound S=2 per axis.
TABLE_BANDWIDTHS = {"deuteron-1": None, "deuteron-2": (2, 2)}


class ConfigError(ValueError):
    """Invalid run configuration (unknown keys, bad values)."""


def load_problem(name: str) -> tuple[Ansatz, ObservableSum]:
    if name not in PROBLEMS:
        raise ConfigError(f"unknown problem {name!r}; available: {sorted(PROBLEMS)}")
    factory, filename = PROBLEMS[name]
    text = resources.files("qsreg").joinpath("data", filename).read_text()
    return factory(), parse_observable(text)


@dataclass
class RunConfig:
    """Serializable configuration for a single solver run."""

    problem: str
    algorithm: str
    mode: str = "exact"
    shots: int | None = None
    seed: int = 0
    bandwidths: list[int] | None = None
    oversample: float = 1.0
    theta0: list[float] | None = None
    max_evals: int | None = None
    xtol: float | None = None
    ftol: float | None = None
    out: str | None = None
    model_out: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.problem, str) or self.problem not in PROBLEMS:
            raise ConfigError(f"unknown problem {self.problem!r}")
        if self.algorithm not in ("vqe", "qsr"):
            raise ConfigError("algorithm must be 'vqe' or 'qsr'")
        if self.mode not in ("exact", "shots"):
            raise ConfigError("mode must be 'exact' or 'shots'")
        if self.mode == "shots" and self.shots is None:
            self.shots = DEFAULT_SHOTS
        try:
            if self.shots is not None:
                self.shots = _check_integer(self.shots, "shots", minimum=1)
            self.seed = _check_integer(self.seed, "seed", minimum=0)
            if self.bandwidths is not None:
                self.bandwidths = list(_check_bandwidths(self.bandwidths))
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
        num_params = PROBLEMS[self.problem][0]().num_params
        if self.bandwidths is not None and len(self.bandwidths) != num_params:
            raise ConfigError(f"bandwidths needs {num_params} entries, got {len(self.bandwidths)}")
        if self.theta0 is not None and len(self.theta0) != num_params:
            raise ConfigError(f"theta0 needs {num_params} entries")
        for name in ("out", "model_out"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ConfigError(f"{name} must be a path string or null, got {getattr(self, name)!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "problem" not in doc or "algorithm" not in doc:
            raise ConfigError("config needs at least 'problem' and 'algorithm'")
        try:
            return cls(**doc)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _resolve_out(path: str) -> str:
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        os.makedirs(base, exist_ok=True)
        return os.path.join(base, path)
    return path


def _error_percent(energy: float, ground: float) -> float:
    return abs(energy - ground) / abs(ground) * 100.0


def execute_run(config: RunConfig) -> tuple[dict, FourierModel | None]:
    """Run one solver configuration; return the result document and the
    fitted model (``None`` for vqe).  Nothing is written: ``cmd_run`` saves
    the model at the document's ``model_path``, resolved as an output path.

    The reported ``energy`` is the noiseless expectation value of the
    observable at the returned parameters, i.e. the eigenvalue estimate that
    goes with the returned state; the raw optimizer objective (stochastic in
    shots mode) is reported separately as ``objective_value``.  Error% is
    |energy - lambda_min| / |lambda_min| * 100 against dense diagonalization.
    These diagnostics run outside the sample/query ledger.
    """
    ansatz, observable = load_problem(config.problem)
    spec = ObjectiveSpec(ansatz, observable, mode=config.mode, shots=config.shots, seed=config.seed)
    ledger = EvalLedger()
    model = None
    result_doc: dict = {
        "problem": config.problem,
        "algorithm": config.algorithm,
        "mode": config.mode,
        "shots": config.shots,
        "seed": config.seed,
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
        result_doc["model_path"] = config.model_out or f"{config.problem}-qsr-model.json"
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


def _table_rows(mode: str, shots: int, seed: int) -> list[dict]:
    rows = []
    for n, problem in ((1, "deuteron-1"), (2, "deuteron-2")):
        for algorithm in ("vqe", "qsr"):
            # exact-mode baseline rows get tight stopping so the table's
            # noiseless errors sit at numerical precision
            tight = algorithm == "vqe" and mode == "exact"
            config = RunConfig(
                problem=problem,
                algorithm=algorithm,
                mode=mode,
                shots=shots,  # checked in exact mode too, where no shot is taken
                seed=seed,
                bandwidths=TABLE_BANDWIDTHS[problem] if algorithm == "qsr" else None,
                ftol=1e-12 if tight else None,
                xtol=1e-8 if tight else None,
                max_evals=4000 if tight else None,
            )
            doc, _ = execute_run(config)
            rows.append(
                {
                    "n": n,
                    "algorithm": algorithm.upper(),
                    "samples": doc["ledger"]["samples"],
                    "queries": doc["ledger"]["queries"],
                    "error_percent": doc["error_percent"],
                }
            )
    return rows


def cmd_table1(args) -> int:
    rows = _table_rows(args.mode, args.shots, args.seed)
    header = f"{'n':>2}  {'Algorithm':<9}  {'Samples':>8}  {'Queries':>8}  {'Error%':>12}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['n']:>2}  {row['algorithm']:<9}  {row['samples']:>8}  "
            f"{row['queries']:>8}  {row['error_percent']:>12.6g}"
        )
    if args.out:
        path = _resolve_out(args.out)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["n", "algorithm", "samples", "queries", "error_percent"]
            )
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {path}")
    return 0


def cmd_run(args) -> int:
    if args.config:
        text = Path(args.config).read_text(encoding="utf-8")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed config file: {exc}") from exc
        config = RunConfig.from_dict(doc)
    else:
        if not args.problem or not args.algorithm:
            raise ConfigError("run needs --problem and --algorithm (or --config)")
        # every RunConfig field is a `run` flag of the same name
        values = {field.name: getattr(args, field.name) for field in dataclasses.fields(RunConfig)}
        values["bandwidths"] = _parse_list(args.bandwidths, int, "integers")
        values["theta0"] = _parse_list(args.theta0, float, "floats")
        config = RunConfig(**values)
    doc, model = execute_run(config)
    if model is not None:
        doc["model_path"] = _resolve_out(doc["model_path"])
        model.save(doc["model_path"])
    _emit_json(doc, config.out)
    return 0


def _parse_list(text: str | None, convert, noun: str) -> list | None:
    """Comma-separated values through ``convert``; ``noun`` names them in the error."""
    if text is None:
        return None
    try:
        return [convert(part) for part in str(text).split(",") if part != ""]
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
    """Build model params from (m, p, s) or from (m, r); flag says which."""
    if args.p is not None and args.s is not None:
        return ComplexityParams(m=args.m, p=args.p, s=args.s), True
    if args.r is not None:
        # only (m, r)-dependent quantities are meaningful for this synthetic pair
        return ComplexityParams(m=args.m, p=args.r, s=1.0), False
    raise ConfigError("provide either --p and --s, or --r")


def cmd_complexity(args) -> int:
    # the model values ComplexityParams would reject are configuration errors
    for flag in ("m", "p", "s", "r"):
        value = getattr(args, flag)
        if value is not None and not (np.isfinite(value) and value > 0.0):
            raise ConfigError(f"--{flag} must be a positive finite real, got {value!r}")
    if args.action == "threshold":
        params, full = _params_from_args(args)
        n_star, peak_value = peak(params)
        doc = {"m": params.m, "r": params.r, "peak_location": n_star, "peak_ratio": peak_value}
        if is_supercritical(params):
            report = model_report(params)
            doc.update(
                advantage=True,
                n_lower=report.n_lower,
                n_upper=report.n_upper,
                window_width=report.window_width,
                threshold=report.threshold,
            )
            if full:
                doc.update(p=params.p, s=params.s, efficiency=report.efficiency)
        else:
            doc["advantage"] = False
        _emit_json(doc, args.out)
        return 0
    if args.action == "efficiency":
        if args.p is None or args.s is None:
            raise ConfigError("efficiency needs --m, --p and --s")
        params = ComplexityParams(m=args.m, p=args.p, s=args.s)
        if not is_supercritical(params):
            _emit_json({"m": params.m, "p": params.p, "s": params.s, "advantage": False}, args.out)
            return 0
        doc = {
            "m": params.m,
            "p": params.p,
            "s": params.s,
            "r": params.r,
            "advantage": True,
            "efficiency": efficiency(params),
        }
        _emit_json(doc, args.out)
        return 0
    if args.action == "sweep":
        if args.what == "threshold":
            if args.m_range is None or args.r_range is None:
                raise ConfigError("threshold sweep needs --m-range and --r-range")
            m_values = _parse_range(args.m_range)
            r_values = _parse_range(args.r_range)
            matrix = threshold_sweep(m_values, r_values)
            _emit_grid_csv("m/r", m_values, r_values, matrix, args.out)
        else:
            if args.p_range is None or args.s_range is None:
                raise ConfigError("efficiency sweep needs --p-range, --s-range and --m")
            p_values = _parse_range(args.p_range)
            s_values = _parse_range(args.s_range)
            matrix = efficiency_sweep(p_values, s_values, args.m)
            _emit_grid_csv("p/s", p_values, s_values, matrix, args.out)
        return 0
    raise ConfigError(f"unknown complexity action {args.action!r}")


def _write_out(text: str, out: str) -> str:
    path = _resolve_out(out)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return path


def _emit_json(doc: dict, out: str | None) -> None:
    """Print the document, and write it to ``out`` as well when given."""
    text = json.dumps(doc, indent=2)
    print(text)
    if out:
        _write_out(text, out)


def _emit_csv(text: str, out: str | None, note: str = "") -> None:
    """Write the CSV to ``out`` and report the path (plus ``note``), or print it."""
    if out:
        print(f"wrote {_write_out(text, out)}{note}")
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
    ansatz, observable = load_problem(args.problem)
    if ansatz.num_params > 2:
        raise ValueError("landscape export supports at most two parameters")
    config = RunConfig(
        problem=args.problem,
        algorithm="qsr",
        mode=args.mode,
        shots=args.shots,  # checked in exact mode too
        seed=args.seed,
        bandwidths=_parse_list(args.bandwidths, int, "integers"),
    )
    spec = ObjectiveSpec(ansatz, observable, mode=config.mode, shots=config.shots, seed=config.seed)
    resolution = int(args.resolution)
    if resolution < 2:
        raise ConfigError("resolution must be >= 2")
    counts = [resolution] * ansatz.num_params
    grid = uniform_lattice(counts)
    raw = evaluate_batch(spec, grid)
    model, _, _ = qsr_run(spec, bandwidth_override=config.bandwidths)
    predicted = model.evaluate_grid(lattice_axes(counts)).ravel()

    header = list(ansatz.param_names) + ["raw", "model"]
    rows = [
        [f"{v:.12g}" for v in grid[i]] + [f"{raw[i]:.12g}", f"{predicted[i]:.12g}"]
        for i in range(grid.shape[0])
    ]
    text = "\n".join([",".join(header)] + [",".join(r) for r in rows])
    _emit_csv(text, args.out, f" ({grid.shape[0]} rows)")
    return 0


def cmd_verify_bandwidth(args) -> int:
    ansatz, observable = load_problem(args.problem)
    try:
        report = verify_bandwidth(
            ansatz,
            observable,
            grid_points_per_axis=args.grid,
            tolerance=args.tolerance,
            slices_per_axis=args.slices,
            seed=args.seed,
        )
    except ValueError as exc:
        # on a bundled problem verify_bandwidth only rejects its arguments
        raise ConfigError(str(exc)) from exc
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsreg",
        description="Nyquist-lattice sampling regression and baseline eigensolver benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one solver run, emit result JSON")
    run.add_argument("--config", help="JSON config file (unknown keys rejected)")
    run.add_argument("--problem", choices=sorted(PROBLEMS))
    run.add_argument("--algorithm", choices=["vqe", "qsr"])
    run.add_argument("--mode", choices=["exact", "shots"], default="exact")
    run.add_argument("--shots", type=int, default=None)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--bandwidths", help="comma-separated override, e.g. 2,2")
    run.add_argument("--oversample", type=float, default=1.0)
    run.add_argument("--theta0", help="comma-separated start point (vqe)")
    run.add_argument("--max-evals", type=int, default=None)
    run.add_argument("--xtol", type=float, default=None)
    run.add_argument("--ftol", type=float, default=None)
    run.add_argument("--out", help="write result JSON here as well")
    run.add_argument("--model-out", help="persisted model path (qsr)")
    run.set_defaults(func=cmd_run)

    table = sub.add_parser("table1", help="four-row solver comparison table")
    table.add_argument("--mode", choices=["exact", "shots"], default="shots")
    table.add_argument("--shots", type=int, default=DEFAULT_SHOTS)
    table.add_argument("--seed", type=int, default=0)
    table.add_argument("--out", help="also write rows as CSV")
    table.set_defaults(func=cmd_table1)

    comp = sub.add_parser("complexity", help="cost-model reports and sweeps")
    comp.add_argument("action", choices=["threshold", "efficiency", "sweep"])
    comp.add_argument("--m", type=float, default=2.0)
    comp.add_argument("--p", type=float, default=None)
    comp.add_argument("--s", type=float, default=None)
    comp.add_argument("--r", type=float, default=None)
    comp.add_argument("--what", choices=["threshold", "efficiency"], default="threshold")
    comp.add_argument("--m-range", help="lo:hi:count")
    comp.add_argument("--r-range", help="lo:hi:count")
    comp.add_argument("--p-range", help="lo:hi:count")
    comp.add_argument("--s-range", help="lo:hi:count")
    comp.add_argument("--out")
    comp.set_defaults(func=cmd_complexity)

    land = sub.add_parser("landscape", help="export raw vs reconstructed landscape CSV")
    land.add_argument("--problem", required=True, choices=sorted(PROBLEMS))
    land.add_argument("--resolution", type=int, default=41)
    land.add_argument("--mode", choices=["exact", "shots"], default="exact")
    land.add_argument("--shots", type=int, default=DEFAULT_SHOTS)
    land.add_argument("--seed", type=int, default=0)
    land.add_argument("--bandwidths", help="comma-separated override for the model")
    land.add_argument("--out")
    land.set_defaults(func=cmd_landscape)

    verify = sub.add_parser("verify-bandwidth", help="check declared bandwidth annotations")
    verify.add_argument("--problem", required=True, choices=sorted(PROBLEMS))
    verify.add_argument("--grid", type=int, default=64)
    verify.add_argument("--tolerance", type=float, default=1e-8)
    verify.add_argument("--slices", type=int, default=5)
    verify.add_argument("--seed", type=int, default=202)
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=cmd_verify_bandwidth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(json.dumps({"error": {"type": "config", "message": str(exc)}}))
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
