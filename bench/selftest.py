"""Quick self-test of the benchmark: every workload briefly, untraced and traced.

Usage, from the root of a checkout:

    python3 bench/selftest.py

For each workload it runs ``run.py`` for one second with ``--trace 0`` and
``--trace 1`` and checks that the last output line has exactly the result
keys, that every operation passed its checks, that the metrics are exactly
the ones ``BENCHMARK.json`` names with their units, and that the traced layers
account for the operation time.  It then copies ``BENCHMARK.json`` and the
benchmark directory, without the program, into ``bench/out/bare`` and checks
that the benchmark exits non-zero there without printing a result.  Exits
non-zero on the first failure.  Takes under a minute.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180
# share of the traced operation time the layers may leave unattributed
MAX_UNATTRIBUTED = 0.05


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False,
    )


def check_result(done: subprocess.CompletedProcess, expected: dict, positive: bool) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}:\n{done.stderr}")
    doc = json.loads(done.stdout.strip().splitlines()[-1])
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(doc)}")
    if not (doc["correct"] is True and isinstance(doc["attempted"], int) and doc["attempted"] >= 1 and doc["failed"] == 0):
        raise AssertionError(f"run not clean: {doc['correct']=}, {doc['attempted']=}, {doc['failed']=}\n{done.stderr}")
    units = {name: metric["unit"] for name, metric in doc["metrics"].items()}
    if units != expected:
        raise AssertionError(f"metrics {units} differ from {expected}")
    for name, metric in doc["metrics"].items():
        value = metric["value"]
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0 and (value > 0 or not positive)):
            raise AssertionError(f"metric {name} = {value!r}")
    return doc


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        check_result(run(ROOT, workload, 0), end_to_end, positive=True)
        check_result(run(ROOT, workload, 1), per_layer, positive=False)
        summary = json.loads((HERE / "out" / f"{workload}-seed7.summary.json").read_text())
        share = summary["unattributed_ms_per_op"] / summary["traced_op_ms_mean"]
        if not 0 <= share <= MAX_UNATTRIBUTED:
            raise AssertionError(f"{workload}: layers leave {share:.1%} of the traced operation time unattributed")
        print(f"ok {workload}: {summary['ops']} traced ops, {share:.2%} unattributed")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare)
    done = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        raise AssertionError(f"without the program the benchmark exited {done.returncode} and printed {done.stdout!r}")
    print("ok: without the program the benchmark exits", done.returncode, "and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
