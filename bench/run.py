"""Time to solution of qsreg's QSR and VQE solvers and its cost model, per workload.

Usage, from the root of a checkout:

    python3 bench/run.py --workload qsr-shots --seed 1 --seconds 20 --trace 0

One process drives one workload as a closed loop: each operation starts when
the previous one has returned.  The run first times several cold starts in
fresh interpreters (``coldstart.py``), then runs untimed warm-up operations,
then operates for ``--seconds`` and afterwards checks every operation's output
against the oracles.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
also writes its spans and a per-layer summary under ``bench/out/``.
"""
import os

# one compute thread (BLAS included): fewer than the 2 cores of the reference machine,
# and set before numpy loads so it holds for the whole process
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _variable in THREAD_VARIABLES:
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
COLD_STARTS = 7
WARMUP_OPS = 2
# warm-up inputs come from indices no timed operation uses
WARMUP_INDEX = 1 << 40
COLD_START_TIMEOUT_S = 60


def import_qsreg():
    """Import qsreg from this checkout's ``src``; any other copy is refused."""
    sys.path.insert(0, str(SRC))
    try:
        import qsreg
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import qsreg from {SRC}: {exc}") from None
    if SRC.resolve() not in Path(qsreg.__file__).resolve().parents:
        raise SystemExit(f"bench: imported qsreg from {qsreg.__file__}, not from {SRC}")
    return qsreg


def cold_starts(workload: str, seed: int, trace: bool) -> dict:
    """Median over COLD_STARTS fresh interpreters, after one untimed start."""
    command = [sys.executable, str(HERE / "coldstart.py"), "--workload", workload, "--seed", str(seed)]
    if trace:
        command.append("--trace")
    docs = []
    for _ in range(COLD_STARTS + 1):
        done = subprocess.run(command, cwd=HERE.parent, capture_output=True, text=True,
                              timeout=COLD_START_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise SystemExit(f"bench: cold start failed:\n{done.stderr}")
        docs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return {key: statistics.median(doc[key] for doc in docs[1:]) for key in docs[1]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    import_qsreg()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    trace = bool(args.trace)

    setup = cold_starts(workload.name, args.seed, trace)

    problem = workload.setup()
    for k in range(WARMUP_OPS):
        workload.operate(workload.prepare(problem, args.seed, WARMUP_INDEX + k))

    oracle = workload.oracle()
    tracer = tracing.Tracer()
    times_ms, ledgers, details, errors = [], [], [], []
    attempted = 0
    with tracer if trace else contextlib.nullcontext():
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            index = attempted
            attempted += 1
            inp = workload.prepare(problem, args.seed, index)
            tracer.op = index
            began = time.perf_counter_ns()
            try:
                output = workload.operate(inp)
            except Exception as exc:  # a raising operation is a failed one; the loop goes on
                errors.append(f"op {index}: {type(exc).__name__}: {exc}")
                continue
            finally:
                ended = time.perf_counter_ns()
                tracer.op = None
            times_ms.append((ended - began) / 1e6)
            ledgers.append(workload.ledger(output))
            # checked at once, untimed, so that no output outlives its operation
            try:
                details.append(workload.check(oracle, inp, output))
            except workloads.CheckFailed as exc:
                errors.append(f"op {index}: check failed: {exc}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = attempted - len(details)
    note = None
    try:
        note = workload.check_run(details)
        run_ok = True
    except workloads.CheckFailed as exc:
        errors.append(f"run: check failed: {exc}")
        run_ok = False

    if not times_ms:
        raise SystemExit("bench: no operation completed:\n" + "\n".join(errors[:20]))
    if trace:
        metrics = tracing.layer_metrics(tracer.spans, len(times_ms), ledgers, setup)
        units = tracing.UNITS
        OUT.mkdir(exist_ok=True)
        tracing.write_report(OUT / f"{workload.name}-seed{args.seed}", tracer, times_ms, metrics)
    else:
        metrics = {
            "setup_s": setup["setup_s"],
            "op_ms_p50": statistics.median(times_ms),
            "ops_per_s": len(times_ms) / (sum(times_ms) / 1e3),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "op_ms_p50": "ms", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

    for line in errors[:20]:
        print(f"bench: {line}", file=sys.stderr)
    print(f"{workload.name} seed {args.seed}: {attempted} attempted, {failed} failed, "
          f"{len(times_ms)} timed in {args.seconds:g} s")
    if len(times_ms) >= 100:  # a p90 with at least ten operations beyond it
        print(f"  op_ms p90 {statistics.quantiles(times_ms, n=10)[-1]:.6g} ms over {len(times_ms)} operations")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    if note:
        print(f"  {note}")
    print(json.dumps({
        "correct": failed == 0 and run_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
