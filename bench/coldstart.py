"""One cold start: import qsreg in a fresh interpreter and build one workload's problem objects.

Prints one JSON line with ``setup_s`` (import plus build, in seconds) and the
import time in ms; with ``--trace`` also the time spent in ``load_problem``
and ``parse_observable``.  The import of the benchmark's own modules between
the two timed parts is not counted.  ``run.py`` starts this script several
times per run and reports the median.
"""
import argparse
import contextlib
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    import qsreg  # noqa: F401
    import qsreg.cli  # noqa: F401
    imported = time.perf_counter()

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer()
    tracer.op = 0
    with tracer if args.trace else contextlib.nullcontext():
        built_from = time.perf_counter()
        workload.prepare(workload.setup(), args.seed, 0)
        built = time.perf_counter()

    totals = tracing.summarize(tracer.spans)
    doc = {"setup_s": (imported - start) + (built - built_from), "import_qsreg_ms": (imported - start) * 1e3}
    if args.trace:
        for key, name in (("load_problem_ms", "cli.load_problem"), ("parse_observable_ms", "observables.parse_observable")):
            doc[key] = totals.get(name, {"incl_ns": 0})["incl_ns"] / 1e6
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
