"""Command-line surface: result JSONs, tables, sweeps, landscape export."""
import csv
import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qsreg import FourierModel, ObjectiveSpec, qsr_run, uniform_lattice
from qsreg.cli import ConfigError, RunConfig, build_parser, load_problem, main


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


# --- run ---

def test_run_qsr_exact_result_json(capsys, tmp_path):
    model_path = tmp_path / "model.json"
    out_path = tmp_path / "result.json"
    code, out = _run(
        capsys,
        [
            "run",
            "--problem", "deuteron-1",
            "--algorithm", "qsr",
            "--mode", "exact",
            "--model-out", str(model_path),
            "--out", str(out_path),
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ledger"]["samples"] == 3
    assert doc["ledger"]["queries"] == 1
    assert doc["error_percent"] <= 1e-8
    assert doc["energy"] == pytest.approx(doc["exact_ground_energy"], rel=1e-10)
    assert json.loads(out_path.read_text()) == doc
    loaded = FourierModel.load(model_path)
    assert loaded.bandwidths == (1,)


def test_run_qsr_table_configuration(capsys, tmp_path):
    code, out = _run(
        capsys,
        [
            "run",
            "--problem", "deuteron-2",
            "--algorithm", "qsr",
            "--mode", "shots",
            "--shots", "2000",
            "--seed", "4",
            "--bandwidths", "2,2",
            "--model-out", str(tmp_path / "m.json"),
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ledger"]["samples"] == 25
    assert doc["ledger"]["queries"] == 1
    assert doc["bandwidths"] == [2, 2]


def test_run_vqe_is_reproducible(capsys, tmp_path):
    argv = [
        "run",
        "--problem", "deuteron-1",
        "--algorithm", "vqe",
        "--mode", "shots",
        "--shots", "1000",
        "--seed", "7",
    ]
    code_a, out_a = _run(capsys, argv)
    code_b, out_b = _run(capsys, argv)
    assert code_a == code_b == 0
    assert json.loads(out_a) == json.loads(out_b)


def test_run_rejects_shots_in_exact_mode(capsys):
    """An exact run that was given a shot count would print it next to 0 measurements."""
    command = ["run", "--problem", "deuteron-2", "--algorithm", "vqe", "--shots", "1000", "--seed", "1"]
    code, out = _run(capsys, command)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "config"
    assert "shots mode only" in json.loads(out)["error"]["message"]


@pytest.mark.parametrize("field, value", [("oversample", math.inf), ("oversample", math.nan),
                                          ("theta0", [math.nan])])
def test_config_rejects_non_finite_numbers(field, value):
    with pytest.raises(ConfigError, match="finite"):
        RunConfig(problem="deuteron-1", algorithm="qsr", **{field: value})


@pytest.mark.parametrize("flags", [["--algorithm", "vqe", "--theta0", "nan"],
                                   ["--algorithm", "qsr", "--oversample", "inf"],
                                   ["--algorithm", "qsr", "--bandwidths", "2,,2"],
                                   ["--algorithm", "vqe", "--theta0", "0.1,,0.2"]])
def test_run_rejects_non_finite_flags_with_exit_2(capsys, flags):
    """An empty list entry was dropped, so `--bandwidths 2,,2` ran as 2,2 and exited 0."""
    code, out = _run(capsys, ["run", "--problem", "deuteron-1", *flags])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "config"


@pytest.mark.parametrize("bandwidths", [[1.5, 2.5], [1, -1], [1, math.inf], [True, 2]])
def test_config_rejects_non_integer_bandwidths(bandwidths):
    with pytest.raises(ConfigError, match="bandwidths"):
        RunConfig(problem="deuteron-2", algorithm="qsr", bandwidths=bandwidths)


def test_run_rejects_wrong_bandwidth_count_with_exit_2(capsys, tmp_path):
    code, out = _run(capsys, ["run", "--problem", "deuteron-2", "--algorithm", "qsr",
                              "--bandwidths", "2", "--model-out", str(tmp_path / "m.json")])
    assert code == 2
    doc = json.loads(out)
    assert doc["error"]["type"] == "config"
    assert "2 entries" in doc["error"]["message"]


@pytest.mark.parametrize("field, value", [("shots", 100.7), ("shots", True), ("shots", "100"),
                                          ("seed", 2.9), ("seed", False)])
def test_config_rejects_non_integer_shots_and_seed(field, value):
    """int() would truncate these: 100.7 shots ran as 100, seed 2.9 as 2."""
    with pytest.raises(ConfigError, match=field):
        RunConfig(problem="deuteron-1", algorithm="qsr", mode="shots", **{field: value})


@pytest.mark.parametrize("flags", [["--max-evals", "0"], ["--max-evals", "-3"], ["--xtol", "nan"],
                                   ["--xtol", "-0.001"], ["--ftol", "-1"], ["--ftol", "inf"]])
def test_run_rejects_bad_solver_flags_with_exit_2(capsys, flags):
    """These exited 1 with a bare ValueError, or ran the whole budget and returned converged: false."""
    code, out = _run(capsys, ["run", "--problem", "deuteron-1", "--algorithm", "vqe", *flags])
    assert code == 2
    doc = json.loads(out)
    assert doc["error"]["type"] == "config"
    assert flags[0][2:].replace("-", "_") in doc["error"]["message"]


@pytest.mark.parametrize("field, value", [("max_evals", 2.5), ("max_evals", True), ("max_evals", "10"),
                                          ("xtol", "abc"), ("xtol", False), ("ftol", -1.0),
                                          ("oversample", "abc"), ("oversample", True),
                                          ("theta0", ["a"]), ("theta0", [True]), ("theta0", 0.5)])
def test_config_rejects_bad_solver_settings(field, value):
    """A fractional or boolean max_evals ran 3 or 1 evaluations; non-numeric values exited 1."""
    with pytest.raises(ConfigError, match=field):
        RunConfig(problem="deuteron-1", algorithm="vqe", **{field: value})


def test_config_keeps_null_tolerances_and_normalises_numbers():
    config = RunConfig(problem="deuteron-1", algorithm="vqe", max_evals=np.int64(7), xtol=np.float32(0.5),
                       ftol=None, theta0=[np.float64(0.25)])
    assert (config.max_evals, config.xtol, config.ftol, config.theta0) == (7, 0.5, None, [0.25])
    assert config.oversample is None
    assert type(config.max_evals) is int and type(config.xtol) is float
    config = RunConfig(problem="deuteron-1", algorithm="qsr", oversample=2)
    assert config.oversample == 2.0 and type(config.oversample) is float


@pytest.mark.parametrize("algorithm, flag, value, config_value", [
    ("qsr", "--theta0", "0.1,0.2", [0.1, 0.2]), ("qsr", "--max-evals", "5", 5), ("qsr", "--xtol", "0.1", 0.1),
    ("qsr", "--ftol", "0.1", 0.1), ("vqe", "--bandwidths", "2,2", [2, 2]), ("vqe", "--oversample", "2", 2),
    ("vqe", "--model-out", "m.json", "m.json"),
])
def test_run_rejects_a_setting_its_algorithm_does_not_read(capsys, tmp_path, monkeypatch, algorithm, flag, value,
                                                           config_value):
    """These ran with the setting silently dropped and exited 0; ``RunConfig`` itself refuses the same value."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QSREG_OUTPUT_DIR", raising=False)
    field = flag[2:].replace("-", "_")
    message = f"the {algorithm} algorithm does not read {field}"
    code, out = _run(capsys, ["run", "--problem", "deuteron-2", "--algorithm", algorithm, flag, value])
    assert code == 2
    assert json.loads(out)["error"] == {"type": "config", "message": message}
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ConfigError) as caught:
        RunConfig(problem="deuteron-2", algorithm=algorithm, **{field: config_value})
    assert str(caught.value) == message


def test_config_accepts_numpy_integers():
    config = RunConfig(problem="deuteron-1", algorithm="qsr", mode="shots",
                       shots=np.int64(100), seed=np.uint32(2))
    assert (config.shots, config.seed) == (100, 2)
    assert type(config.shots) is int and type(config.seed) is int
    assert (config.spec.shots, config.spec.seed) == (config.shots, config.seed)


def test_shots_mode_defaults_shot_count():
    config = RunConfig(problem="deuteron-1", algorithm="qsr", mode="shots")
    assert config.shots == 10_000


@pytest.mark.parametrize("field, value", [("model_out", 1), ("problem", ["x"])])
def test_config_rejects_non_string_paths_and_problem(field, value):
    """A numeric model_out wrote to fd 1 and closed it; a list problem failed as unhashable."""
    with pytest.raises(ConfigError, match=field):
        RunConfig(**{"problem": "deuteron-1", "algorithm": "qsr", field: value})


def test_every_run_config_field_is_a_run_flag():
    """``cmd_run`` reads each ``RunConfig`` init field from the ``run`` flag of the same name."""
    args = vars(build_parser().parse_args(["run", "--problem", "deuteron-1", "--algorithm", "qsr"]))
    assert {field.name for field in dataclasses.fields(RunConfig) if field.init} <= set(args)


@pytest.mark.parametrize("argv, mode", [(["run", "--problem", "deuteron-1", "--algorithm", "qsr"], "exact"),
                                        (["table1"], "shots"), (["landscape", "--problem", "deuteron-1"], "exact")])
def test_solver_flag_defaults(argv, mode):
    """The three subcommands declare these flags in one place; table1 alone defaults to shots mode."""
    args = build_parser().parse_args(argv)
    assert (args.mode, args.shots, args.seed) == (mode, None, 0)


def test_output_dir_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("QSREG_OUTPUT_DIR", str(tmp_path / "outputs"))
    code, out = _run(
        capsys,
        ["run", "--problem", "deuteron-1", "--algorithm", "qsr",
         "--model-out", "m.json", "--out", "r.json"],
    )
    assert code == 0
    assert (tmp_path / "outputs" / "m.json").exists()
    assert (tmp_path / "outputs" / "r.json").exists()


def test_run_parses_its_problem_once(capsys, tmp_path, monkeypatch):
    """Checking the config and running it each parsed the circuit again."""
    import qsreg.cli as cli_mod

    calls = []
    parse = cli_mod._parse_circuit

    def counted(name, text):
        calls.append(name)
        return parse(name, text)

    monkeypatch.setattr(cli_mod, "_parse_circuit", counted)
    cli_mod._parse_problem.cache_clear()
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QSREG_OUTPUT_DIR", raising=False)
    code, _ = _run(capsys, ["run", "--problem", "deuteron-2", "--algorithm", "qsr"])
    assert code == 0
    assert calls == ["deuteron-2"]


def test_load_problem_rejects_an_unhashable_name():
    """A list name raised TypeError from the name check; the cache must not see it either."""
    with pytest.raises(ConfigError, match="unknown problem"):
        load_problem(["deuteron-1"])


# every output flag of every subcommand, each pointing into missing/
_OUTPUT_CASES = [
    ["run", "--problem", "deuteron-2", "--algorithm", "vqe", "--out", "missing/r.json"],
    ["run", "--problem", "deuteron-2", "--algorithm", "qsr", "--model-out", "missing/m.json"],
    ["table1", "--mode", "exact", "--out", "missing/t.csv"],
    ["landscape", "--problem", "deuteron-2", "--out", "missing/l.csv"],
    ["complexity", "threshold", "--m", "2", "--r", "4", "--out", "missing/c.json"],
    ["complexity", "sweep", "--m-range", "1:10:3", "--r-range", "1:8:3", "--out", "missing/a.csv"],
]


def _run_without_work(capsys, tmp_path, monkeypatch, argv):
    """Run ``argv`` in ``tmp_path``, outputs under ``outputs/``, with every solver, sweep and grid forbidden."""
    import qsreg.cli as cli_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("work ran before the output path was checked")

    for name in ("qsr_run", "vqe_run", "evaluate_batch", "threshold_sweep", "efficiency_sweep", "peak"):
        monkeypatch.setattr(cli_mod, name, forbidden)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("QSREG_OUTPUT_DIR", str(tmp_path / "outputs"))
    code, out = _run(capsys, argv)
    assert code == 2
    assert len(out.splitlines()) == 1
    return json.loads(out)["error"]


@pytest.mark.parametrize("argv", _OUTPUT_CASES)
def test_missing_output_directory_fails_before_any_work(capsys, tmp_path, monkeypatch, argv):
    """The run used to print its result and then a second error document, exiting 1; the refused
    command then still created ``$QSREG_OUTPUT_DIR``."""
    assert _run_without_work(capsys, tmp_path, monkeypatch, argv) == {
        "type": "config",
        "message": f"output directory {str(tmp_path / 'outputs' / 'missing')!r} does not exist",
    }
    assert not (tmp_path / "outputs").exists()


@pytest.mark.parametrize("argv", _OUTPUT_CASES)
def test_output_directory_that_cannot_be_created_fails_before_any_work(capsys, tmp_path, monkeypatch, argv):
    """A file at ``$QSREG_OUTPUT_DIR`` was found only by the first write, after the work; a run
    printed its result and then a second error document, exiting 1."""
    argv = [value.removeprefix("missing/") for value in argv]
    (tmp_path / "outputs").write_text("")
    assert _run_without_work(capsys, tmp_path, monkeypatch, argv) == {
        "type": "config",
        "message": f"output directory {str(tmp_path / 'outputs')!r} cannot be created",
    }
    assert (tmp_path / "outputs").read_text() == ""


@pytest.mark.parametrize("argv", _OUTPUT_CASES)
def test_empty_output_path_fails_before_any_work(capsys, tmp_path, monkeypatch, argv):
    """`run --model-out ""` ran the solver and then exited 1; every other empty path was
    dropped, and the command exited 0."""
    argv = ["" if value.startswith("missing/") else value for value in argv]
    assert _run_without_work(capsys, tmp_path, monkeypatch, argv) == {
        "type": "config",
        "message": "output path is empty",
    }
    assert not (tmp_path / "outputs").exists()


@pytest.mark.parametrize("argv", _OUTPUT_CASES)
def test_output_path_that_is_a_directory_fails_before_any_work(capsys, tmp_path, monkeypatch, argv):
    """`run --out <dir>` printed its result and then an IsADirectoryError document, exiting 1;
    table1 and complexity did all their work first."""
    target = next(value for value in argv if value.startswith("missing/"))
    (tmp_path / "outputs" / target).mkdir(parents=True)
    assert _run_without_work(capsys, tmp_path, monkeypatch, argv) == {
        "type": "config",
        "message": f"output path {str(tmp_path / 'outputs' / target)!r} is a directory",
    }


def test_default_model_path_that_is_a_directory_fails_before_any_work(capsys, tmp_path, monkeypatch):
    """The run exited 1 with IsADirectoryError after the solver had run."""
    (tmp_path / "outputs" / "deuteron-2-qsr-model.json").mkdir(parents=True)
    argv = ["run", "--problem", "deuteron-2", "--algorithm", "qsr"]
    assert _run_without_work(capsys, tmp_path, monkeypatch, argv) == {
        "type": "config",
        "message": f"output path {str(tmp_path / 'outputs' / 'deuteron-2-qsr-model.json')!r} is a directory",
    }


@pytest.mark.parametrize("paths", [["--out", "m.json", "--model-out", "m.json"],
                                   ["--out", "./m.json", "--model-out", "m.json"],
                                   ["--out", "deuteron-2-qsr-model.json"]])
def test_run_refuses_one_file_for_result_and_model(capsys, tmp_path, monkeypatch, paths):
    """The result document overwrote the saved model, which then no longer loaded, and the run exited 0."""
    argv = ["run", "--problem", "deuteron-2", "--algorithm", "qsr", *paths]
    path = tmp_path / "outputs" / paths[-1]
    assert _run_without_work(capsys, tmp_path, monkeypatch, argv) == {
        "type": "config",
        "message": f"the result and the model would both be written to {str(path)!r}",
    }


# --- table1 ---

def test_table1_exact_mode(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("QSREG_OUTPUT_DIR", str(tmp_path))
    out_csv = tmp_path / "table.csv"
    code, out = _run(capsys, ["table1", "--mode", "exact", "--seed", "1", "--out", "table.csv"])
    assert code == 0
    # only --out is written: no model file in the working or output directory
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    by_key = {(r["n"], r["algorithm"]): r for r in rows}
    assert int(by_key[("1", "QSR")]["samples"]) == 3
    assert int(by_key[("1", "QSR")]["queries"]) == 1
    assert int(by_key[("2", "QSR")]["samples"]) == 25
    assert int(by_key[("2", "QSR")]["queries"]) == 1
    for row in rows:
        assert float(row["error_percent"]) < 1e-6
        assert int(row["samples"]) >= int(row["queries"])
    # the same line ending as every other CSV the CLI writes
    text = out_csv.read_bytes().decode()
    assert "\r" not in text and text.endswith("\n")
    assert text.splitlines()[0] == "n,algorithm,samples,queries,error_percent"


@pytest.mark.parametrize("mode", ["exact", "shots"])
def test_table1_rejects_zero_shots_in_either_mode(capsys, mode):
    code, out = _run(capsys, ["table1", "--mode", mode, "--shots", "0"])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "config"


def test_table1_rejects_shots_in_exact_mode(capsys):
    """The same rule as `run`: a shot count is read in shots mode only."""
    code, out = _run(capsys, ["table1", "--mode", "exact", "--shots", "5"])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "config"
    assert "shots mode only" in json.loads(out)["error"]["message"]


# --- complexity ---

def test_complexity_threshold_against_bisection(capsys):
    code, out = _run(capsys, ["complexity", "threshold", "--m", "2", "--r", "4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["advantage"] is True

    ratio = lambda n: 2.0 * n * 2.0 ** (-n / 4.0) - 1.0
    n_star = 4.0 / math.log(2.0)

    def bisect(lo, hi):
        flo = ratio(lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (ratio(mid) > 0) == (flo > 0):
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    hi = n_star
    while ratio(hi) > 0:
        hi *= 2
    assert doc["n_lower"] == pytest.approx(bisect(1e-9, n_star), abs=1e-9)
    assert doc["n_upper"] == pytest.approx(bisect(n_star, hi), abs=1e-9)
    assert doc["threshold"] == math.ceil(doc["n_upper"])


def test_complexity_threshold_in_m_r_form_prints_exactly_the_window(capsys):
    code, out = _run(capsys, ["complexity", "threshold", "--m", "2", "--r", "4"])
    assert code == 0
    assert out == """{
  "m": 2.0,
  "r": 4.0,
  "peak_location": 5.7707801635558535,
  "advantage": true,
  "n_lower": 0.5499985151188046,
  "n_upper": 21.779630218440825,
  "window_width": 21.22963170332202,
  "threshold": 22
}
"""


def test_complexity_threshold_in_m_r_form_prints_no_peak_ratio(capsys):
    """The (m, r) form printed the peak ratio of s = 1, and at r = 150 that ratio
    overflowed and the command exited 1, although the threshold is 1769."""
    code, out = _run(capsys, ["complexity", "threshold", "--m", "2", "--r", "150"])
    assert code == 0, out
    doc = json.loads(out)
    assert "peak_ratio" not in doc
    assert doc["threshold"] == 1769


def test_complexity_threshold_in_m_r_form_computes_no_efficiency(capsys):
    """At r = 120 the unprinted efficiency of (p = r, s = 1) overflowed and the command exited 1."""
    code, out = _run(capsys, ["complexity", "threshold", "--m", "2", "--r", "120"])
    assert code == 0
    doc = json.loads(out)
    assert doc["threshold"] == 1371
    assert "efficiency" not in doc


def test_complexity_subcritical_point(capsys):
    code, out = _run(capsys, ["complexity", "threshold", "--m", "0.1", "--r", "1"])
    assert code == 0
    assert json.loads(out)["advantage"] is False


def test_complexity_efficiency_report(capsys):
    code, out = _run(capsys, ["complexity", "threshold", "--m", "2", "--p", "8", "--s", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["advantage"] is True
    assert doc["efficiency"] > 1.0


@pytest.mark.parametrize("model, keys", [
    (["--m", "2", "--p", "8", "--s", "2"], ["m", "r", "peak_location", "peak_ratio", "advantage", "n_lower",
                                            "n_upper", "window_width", "threshold", "p", "s", "efficiency"]),
    (["--m", "0.1", "--p", "1", "--s", "1"], ["m", "r", "peak_location", "peak_ratio", "advantage", "p", "s"]),
])
def test_complexity_threshold_in_m_p_s_form_prints_the_full_report(capsys, model, keys):
    """One document for (m, p, s), super- or subcritical: the efficiency only inside the window."""
    code, out = _run(capsys, ["complexity", "threshold", *model])
    assert code == 0
    assert list(json.loads(out)) == keys


def test_complexity_efficiency_of_a_large_power_is_finite(capsys):
    """At p = 110 the value is 7.7e225; the gamma integrand overflowed and the command exited 1."""
    code, out = _run(capsys, ["complexity", "threshold", "--m", "2", "--p", "110", "--s", "1"])
    assert code == 0, out
    assert math.isfinite(json.loads(out)["efficiency"])


def test_complexity_efficiency_sweep_csv(capsys, tmp_path):
    out_csv = tmp_path / "eff.csv"
    code, _ = _run(
        capsys,
        ["complexity", "sweep", "--what", "efficiency", "--m", "2",
         "--p-range", "2:20:5", "--s-range", "2:5:4", "--out", str(out_csv)],
    )
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0].startswith("p/s,")
    assert len(lines) == 6  # header + 5 p rows
    cells = np.array([line.split(",")[1:] for line in lines[1:]], dtype=float)
    assert cells.shape == (5, 4)
    assert np.all(np.isfinite(cells[~np.isnan(cells)]))


def test_complexity_threshold_sweep_csv(capsys, tmp_path):
    out_csv = tmp_path / "thr.csv"
    code, _ = _run(
        capsys,
        ["complexity", "sweep", "--what", "threshold",
         "--m-range", "0.5:10:8", "--r-range", "1:8:6", "--out", str(out_csv)],
    )
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) == 9


@pytest.mark.parametrize("argv", [
    ["landscape", "--problem", "deuteron-1", "--resolution", "7"],
    ["complexity", "sweep", "--what", "threshold", "--m-range", "0.5:10:4", "--r-range", "1:8:3"],
    ["complexity", "sweep", "--what", "efficiency", "--m", "2",
     "--p-range", "2:20:3", "--s-range", "2:5:2"],
])
def test_csv_commands_print_what_out_writes(capsys, tmp_path, argv):
    code, printed = _run(capsys, argv)
    assert code == 0
    out_csv = tmp_path / "grid.csv"
    code, note = _run(capsys, [*argv, "--out", str(out_csv)])
    assert code == 0
    written = out_csv.read_text()
    assert printed == written
    rows = f" ({len(written.splitlines()) - 1} rows)" if argv[0] == "landscape" else ""
    assert note == f"wrote {out_csv}{rows}\n"


def test_complexity_requires_parameters(capsys):
    code, out = _run(capsys, ["complexity", "threshold", "--m", "2"])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "config"


@pytest.mark.parametrize("model", [
    ["--p", "3", "--s", "1", "--r", "50"],
    ["--p", "3", "--r", "4"],
    ["--s", "1", "--r", "4"],
    ["--s", "1"],
])
def test_complexity_takes_exactly_m_r_or_m_p_s(capsys, model):
    """A model value outside the (m, r) or (m, p, s) form was dropped without a word."""
    code, out = _run(capsys, ["complexity", "threshold", "--m", "2", *model])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "config"


@pytest.mark.parametrize("argv", [
    ["threshold", "--m", "-1", "--r", "2"],
    ["threshold", "--m", "2", "--p", "nan", "--s", "1"],
    ["threshold", "--m", "2", "--r", "inf"],
    ["threshold", "--m", "nan", "--r", "2"],
    ["threshold", "--m", "2", "--p", "8", "--s", "0"],
    ["sweep", "--what", "threshold", "--m-range", "nan:5:3", "--r-range", "1:8:3"],
    ["sweep", "--what", "threshold", "--m-range", "0:5:3", "--r-range", "1:inf:3"],
    ["sweep", "--what", "efficiency", "--m", "-2", "--p-range", "2:20:3", "--s-range", "2:5:3"],
    ["sweep", "--what", "efficiency", "--m", "2", "--p-range", "2:20:3", "--s-range", "2:nan:3"],
])
def test_complexity_rejects_bad_model_values_with_exit_2(capsys, argv):
    code, out = _run(capsys, ["complexity", *argv])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "config"


@pytest.mark.parametrize("argv", [
    ["sweep", "--what", "threshold", "--m-range", "0.5:10:4", "--r-range", "1:8:3", "--p", "5"],
    ["threshold", "--m", "2", "--r", "4", "--m-range", "1:2:3"],
    ["sweep", "--what", "efficiency", "--p-range", "2:4:2", "--s-range", "1:2:2", "--m", "2",
     "--m-range", "1:2:2", "--r", "3"],
])
def test_complexity_rejects_flags_of_another_action(capsys, argv):
    """A flag the action does not read was dropped, and the command exited 0."""
    code, out = _run(capsys, ["complexity", *argv])
    assert code == 2
    assert len(out.splitlines()) == 1
    assert json.loads(out)["error"]["type"] == "config"


# --- landscape ---

def test_landscape_exact_grid(capsys, tmp_path):
    out_csv = tmp_path / "landscape.csv"
    code, _ = _run(
        capsys,
        ["landscape", "--problem", "deuteron-2", "--resolution", "41",
         "--mode", "exact", "--out", str(out_csv)],
    )
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "theta,eta,raw,model"
    assert len(lines) == 1 + 41 * 41
    data = np.array([line.split(",") for line in lines[1:]], dtype=float)
    assert np.max(np.abs(data[:, 2] - data[:, 3])) <= 1e-8


def test_landscape_shots_grid_tracks_noise(capsys, tmp_path, deuteron2):
    shots = 2000
    out_csv = tmp_path / "landscape.csv"
    code, _ = _run(
        capsys,
        ["landscape", "--problem", "deuteron-2", "--resolution", "7",
         "--mode", "shots", "--shots", str(shots), "--seed", "11",
         "--out", str(out_csv)],
    )
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    data = np.array([line.split(",") for line in lines[1:]], dtype=float)
    _, obs = deuteron2
    sigma = math.sqrt(sum(w * w for w, p in obs.terms if not p.is_identity) / shots)
    assert np.max(np.abs(data[:, 2] - data[:, 3])) < 8 * sigma


def test_landscape_model_column_matches_fitted_model(capsys, tmp_path, deuteron2):
    """The model column is the fitted model's ``evaluate_many`` on the lattice, as printed."""
    out_csv = tmp_path / "landscape.csv"
    code, _ = _run(capsys, ["landscape", "--problem", "deuteron-2", "--out", str(out_csv)])
    assert code == 0
    column = [line.split(",")[3] for line in out_csv.read_text().splitlines()[1:]]
    model, _, _ = qsr_run(ObjectiveSpec(*deuteron2))
    assert column == [f"{value:.12g}" for value in model.evaluate_many(uniform_lattice([41, 41]))]


@pytest.mark.parametrize("flags", [["--bandwidths", "2"], ["--mode", "shots", "--shots", "0"], ["--seed", "-1"],
                                   ["--shots", "0"], ["--shots", "5"], ["--bandwidths", "2,,2"]])
def test_landscape_config_errors_exit_2(capsys, tmp_path, monkeypatch, flags):
    """One RunConfig checks both commands, so `run` prints the same error document."""
    monkeypatch.chdir(tmp_path)
    code, out = _run(capsys, ["landscape", "--problem", "deuteron-2", "--resolution", "5", *flags])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "config"
    assert _run(capsys, ["run", "--problem", "deuteron-2", "--algorithm", "qsr", *flags]) == (code, out)


def test_landscape_rejects_too_many_parameters(capsys, monkeypatch):
    import qsreg.cli as cli_mod
    from qsreg.ansatz import Ansatz

    honest = load_problem("deuteron-2")[0]
    wide = Ansatz("wide", 3, 3, (1, 1, 1), ("a", "b", "c"),
                  lambda t: honest.builder(t[:2]))
    observable = load_problem("deuteron-2")[1]
    monkeypatch.setattr(cli_mod, "load_problem", lambda name: (wide, observable))
    code, out = _run(capsys, ["landscape", "--problem", "deuteron-2"])
    assert code == 1
    assert "two parameters" in json.loads(out)["error"]["message"]


# --- verify-bandwidth ---

def test_verify_bandwidth_command(capsys):
    code, out = _run(capsys, ["verify-bandwidth", "--problem", "deuteron-1", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["axes"][0]["observed"] == 1


def test_verify_bandwidth_text_output(capsys):
    code, out = _run(capsys, ["verify-bandwidth", "--problem", "deuteron-2"])
    assert code == 0
    assert "PASS" in out
    assert "eta" in out


@pytest.mark.parametrize("argv", [
    ["complexity", "efficiency", "--m", "2", "--p", "8", "--s", "2"],
    ["verify-bandwidth", "--problem", "deuteron-2", "--grid", "64"],
    ["verify-bandwidth", "--problem", "deuteron-2", "--tolerance", "1e-8"],
    ["verify-bandwidth", "--problem", "deuteron-2", "--slices", "5"],
    ["verify-bandwidth", "--problem", "deuteron-2", "--seed", "202"],
    ["run", "--config", "c.json"],
])
def test_inputs_without_a_caller_are_usage_errors(capsys, argv):
    """The efficiency action printed the threshold report, and the verify-bandwidth
    flags only restated the defaults; each exited 0.  A `run --config` file ran instead of the flags."""
    code, out = _run(capsys, argv)
    assert code == 2
    assert len(out.splitlines()) == 1
    assert json.loads(out)["error"]["type"] == "config"


# --- entry point ---

def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "qsreg.cli", "complexity", "threshold", "--m", "2", "--r", "4"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["advantage"] is True


@pytest.mark.parametrize("argv", [
    ["run", "--problem", "nope", "--algorithm", "qsr"],
    ["landscape", "--problem", "deuteron-1", "--resolution", "1.5"],
    ["complexity", "bogus"],
    ["run", "--seed", "x"],
    ["no-such-command"],
    [],
    ["run", "--problem", "deuteron-1"],
])
def test_usage_errors_print_one_error_document_and_exit_2(capsys, argv):
    """argparse printed its usage text to stderr and nothing on stdout."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["error"]["type"] == "config"
    assert captured.err == ""


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert "--problem" in capsys.readouterr().out
