"""Command-line surface: result JSONs, tables, sweeps, landscape export."""
import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qsreg import FourierModel, ObjectiveSpec, qsr_run, uniform_lattice
from qsreg.cli import ConfigError, RunConfig, load_problem, main


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


def test_run_from_config_file(capsys, tmp_path):
    config = {
        "problem": "deuteron-1",
        "algorithm": "qsr",
        "mode": "exact",
        "model_out": str(tmp_path / "m.json"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out = _run(capsys, ["run", "--config", str(path)])
    assert code == 0
    assert json.loads(out)["ledger"]["samples"] == 3


def test_config_rejects_unknown_keys(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"problem": "deuteron-1", "algorithm": "qsr", "wobble": 3}))
    code, out = _run(capsys, ["run", "--config", str(path)])
    assert code == 2
    doc = json.loads(out)
    assert doc["error"]["type"] == "config"
    assert "wobble" in doc["error"]["message"]


@pytest.mark.parametrize("document", [5, "abc", [], None])
def test_config_file_must_hold_an_object(capsys, tmp_path, document):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    code, out = _run(capsys, ["run", "--config", str(path)])
    assert code == 2
    assert json.loads(out)["error"] == {"type": "config", "message": "config must be a JSON object"}


def test_config_dataclass_round_trip():
    config = RunConfig(problem="deuteron-2", algorithm="vqe", mode="shots", seed=3)
    clone = RunConfig.from_dict(config.to_dict())
    assert clone == config
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"problem": "deuteron-1"})
    with pytest.raises(ConfigError):
        RunConfig(problem="deuteron-1", algorithm="vqe", mode="shots", shots=0)


@pytest.mark.parametrize("field, value", [("oversample", math.inf), ("oversample", math.nan),
                                          ("theta0", [math.nan])])
def test_config_rejects_non_finite_numbers(field, value):
    with pytest.raises(ConfigError, match="finite"):
        RunConfig(problem="deuteron-1", algorithm="qsr", **{field: value})


@pytest.mark.parametrize("flags", [["--algorithm", "vqe", "--theta0", "nan"],
                                   ["--algorithm", "qsr", "--oversample", "inf"]])
def test_run_rejects_non_finite_flags_with_exit_2(capsys, flags):
    code, out = _run(capsys, ["run", "--problem", "deuteron-1", *flags])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "config"


@pytest.mark.parametrize("bandwidths", [[1.5, 2.5], [1, -1], [1, math.inf], [True, 2]])
def test_config_rejects_non_integer_bandwidths(capsys, tmp_path, bandwidths):
    with pytest.raises(ConfigError, match="bandwidths"):
        RunConfig(problem="deuteron-2", algorithm="qsr", bandwidths=bandwidths)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"problem": "deuteron-2", "algorithm": "qsr", "bandwidths": bandwidths}))
    code, out = _run(capsys, ["run", "--config", str(path)])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "config"


def test_run_rejects_wrong_bandwidth_count_with_exit_2(capsys, tmp_path):
    code, out = _run(capsys, ["run", "--problem", "deuteron-2", "--algorithm", "qsr",
                              "--bandwidths", "2", "--model-out", str(tmp_path / "m.json")])
    assert code == 2
    doc = json.loads(out)
    assert doc["error"]["type"] == "config"
    assert "2 entries" in doc["error"]["message"]


@pytest.mark.parametrize("field, value", [("shots", 100.7), ("shots", True), ("shots", "100"),
                                          ("seed", 2.9), ("seed", False)])
def test_config_rejects_non_integer_shots_and_seed(capsys, tmp_path, field, value):
    """int() would truncate these: 100.7 shots ran as 100, seed 2.9 as 2."""
    with pytest.raises(ConfigError, match=field):
        RunConfig(problem="deuteron-1", algorithm="qsr", mode="shots", **{field: value})
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"problem": "deuteron-1", "algorithm": "qsr", "mode": "shots",
                                "model_out": str(tmp_path / "m.json"), field: value}))
    code, out = _run(capsys, ["run", "--config", str(path)])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "config"


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
def test_config_rejects_bad_solver_settings(capsys, tmp_path, field, value):
    """A fractional or boolean max_evals ran 3 or 1 evaluations; non-numeric values exited 1."""
    with pytest.raises(ConfigError, match=field):
        RunConfig(problem="deuteron-1", algorithm="vqe", **{field: value})
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"problem": "deuteron-1", "algorithm": "vqe", field: value}))
    code, out = _run(capsys, ["run", "--config", str(path)])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "config"


def test_config_keeps_null_tolerances_and_normalises_numbers():
    config = RunConfig(problem="deuteron-1", algorithm="vqe", max_evals=np.int64(7), xtol=np.float32(0.5),
                       ftol=None, theta0=[np.float64(0.25)], oversample=2)
    assert (config.max_evals, config.xtol, config.ftol, config.theta0, config.oversample) == (7, 0.5, None, [0.25], 2.0)
    assert type(config.max_evals) is int and type(config.xtol) is float


def test_config_accepts_numpy_integers():
    config = RunConfig(problem="deuteron-1", algorithm="qsr", mode="shots",
                       shots=np.int64(100), seed=np.uint32(2))
    assert (config.shots, config.seed) == (100, 2)
    assert type(config.shots) is int and type(config.seed) is int


def test_shots_mode_defaults_shot_count():
    config = RunConfig(problem="deuteron-1", algorithm="qsr", mode="shots")
    assert config.shots == 10_000


@pytest.mark.parametrize("field, value", [("model_out", 1), ("out", True), ("out", ["a"]), ("problem", ["x"])])
def test_config_rejects_non_string_paths_and_problem(capsys, tmp_path, monkeypatch, field, value):
    """A numeric model_out wrote to fd 1 and closed it, out: true printed the result twice,
    a list out failed after the whole solver ran, a list problem failed as unhashable."""
    doc = {"problem": "deuteron-1", "algorithm": "qsr", field: value}
    with pytest.raises(ConfigError, match=field):
        RunConfig.from_dict(doc)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QSREG_OUTPUT_DIR", raising=False)
    (tmp_path / "config.json").write_text(json.dumps(doc))
    code, out = _run(capsys, ["run", "--config", "config.json"])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "config"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


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


@pytest.mark.parametrize("mode", ["exact", "shots"])
def test_table1_rejects_zero_shots_in_either_mode(capsys, mode):
    code, out = _run(capsys, ["table1", "--mode", mode, "--shots", "0"])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "config"


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


def test_complexity_subcritical_point(capsys):
    code, out = _run(capsys, ["complexity", "threshold", "--m", "0.1", "--r", "1"])
    assert code == 0
    assert json.loads(out)["advantage"] is False


def test_complexity_efficiency_report(capsys):
    code, out = _run(capsys, ["complexity", "efficiency", "--m", "2", "--p", "8", "--s", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["advantage"] is True
    assert doc["efficiency"] > 1.0


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


@pytest.mark.parametrize("argv", [
    ["threshold", "--m", "-1", "--r", "2"],
    ["threshold", "--m", "2", "--p", "nan", "--s", "1"],
    ["threshold", "--m", "2", "--r", "inf"],
    ["threshold", "--m", "nan", "--r", "2"],
    ["efficiency", "--m", "2", "--p", "8", "--s", "0"],
    ["sweep", "--what", "threshold", "--m-range", "nan:5:3", "--r-range", "1:8:3"],
    ["sweep", "--what", "threshold", "--m-range", "0:5:3", "--r-range", "1:inf:3"],
    ["sweep", "--what", "efficiency", "--m", "-2", "--p-range", "2:20:3", "--s-range", "2:5:3"],
    ["sweep", "--what", "efficiency", "--m", "2", "--p-range", "2:20:3", "--s-range", "2:nan:3"],
])
def test_complexity_rejects_bad_model_values_with_exit_2(capsys, argv):
    code, out = _run(capsys, ["complexity", *argv])
    assert code == 2
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
    """The separably evaluated model column agrees with the fitted model's own
    evaluation on the lattice, up to the 12 significant digits printed."""
    out_csv = tmp_path / "landscape.csv"
    code, _ = _run(capsys, ["landscape", "--problem", "deuteron-2", "--out", str(out_csv)])
    assert code == 0
    column = np.array([line.split(",")[3] for line in out_csv.read_text().splitlines()[1:]], dtype=float)
    model, _, _ = qsr_run(ObjectiveSpec(*deuteron2))
    expected = model.evaluate_many(uniform_lattice([41, 41]))
    tolerance = 1e-12 * np.abs(model.coefficients).sum() + 5e-12 * np.abs(expected)
    assert np.all(np.abs(column - expected) <= tolerance)


@pytest.mark.parametrize("flags", [["--bandwidths", "2"], ["--mode", "shots", "--shots", "0"], ["--seed", "-1"],
                                   ["--shots", "0"]])
def test_landscape_config_errors_exit_2(capsys, tmp_path, monkeypatch, flags):
    """One RunConfig checks both commands, so `run` prints the same error document."""
    monkeypatch.chdir(tmp_path)
    code, out = _run(capsys, ["landscape", "--problem", "deuteron-2", "--resolution", "5", *flags])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "config"
    assert _run(capsys, ["run", "--problem", "deuteron-2", "--algorithm", "qsr", *flags]) == (code, out)


def test_landscape_rejects_too_many_parameters(capsys, monkeypatch):
    import qsreg.cli as cli_mod
    from qsreg.ansatz import Ansatz, deuteron_ansatz_2

    honest = deuteron_ansatz_2()
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


@pytest.mark.parametrize("flags", [["--tolerance", "nan"], ["--tolerance", "inf"], ["--slices", "0"]])
def test_verify_bandwidth_rejects_bad_settings_with_exit_2(capsys, flags):
    code, out = _run(capsys, ["verify-bandwidth", "--problem", "deuteron-2", *flags])
    assert code == 2
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
