"""Run one reqqual benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout: the package is imported from
the checkout's src/ directory.  The last line of standard output is the
result object {"correct", "attempted", "failed", "metrics"}; the line
before it holds the run's provenance and per-pass details.  Exit code 2
means the arguments or the checkout were unusable and no result was
printed; 1 means the workload could not complete.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: with 2 BLAS threads the appropriate-preset fit
# varied by 13% between runs, with 1 thread by 3.5%.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"


def main(argv=None) -> int:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    package = ROOT / "src" / "reqqual"
    if not (package / "__init__.py").is_file():
        print(f"error: no reqqual sources under {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(package.parent))
    started = time.perf_counter()
    try:
        reqqual = importlib.import_module("reqqual")
        importlib.import_module("reqqual.cli")
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return 2
    import_s = time.perf_counter() - started
    if Path(reqqual.__file__).resolve().parent != package.resolve():
        print(f"error: imported reqqual from {reqqual.__file__}, not {package}", file=sys.stderr)
        return 2

    import harness

    WORK.mkdir(exist_ok=True)
    spans_out = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl" if args.trace else None
    try:
        with tempfile.TemporaryDirectory(dir=WORK) as workdir:
            outcome = harness.run(
                args.workload, args.seed, args.seconds, bool(args.trace), Path(workdir), ROOT,
                import_s=import_s, spans_out=spans_out,
            )
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return 1
    print(json.dumps(outcome["details"]))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
