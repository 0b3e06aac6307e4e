"""One benchmark run: set up, run timed passes, check outputs, compute metrics.

Untraced (`trace=False`): set-up runs SETUP_REPEATS times and `setup_s` is
the import time plus the median set-up; passes repeat until `seconds` have
passed and every end-to-end metric is a median over passes.

Traced (`trace=True`): one traced set-up, one untraced reference pass, then
traced passes until `seconds` have passed.  Every traced pass must produce
exactly the reference pass's outputs.  Per-layer metrics cover the traced
set-up plus the traced pass of median wall time; `trace.overhead_s` is that
pass's wall time minus the reference pass's.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import benchtrace
import workloads

SETUP_REPEATS = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text("utf-8"))


def git_revision(root: Path) -> str | None:
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """SHA-256 over the package sources, so results name the code they measured."""
    digest = hashlib.sha256()
    package = root / "src" / "reqqual"
    for path in sorted(p for p in package.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(path.relative_to(package).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path, workload, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of numpy's build report varies by version
        blas = None
    return {
        "git_revision": git_revision(root),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload_seed": seed,
        "workload_sizes": {k: v for k, v in vars(workload).items()
                           if isinstance(v, (int, float, str)) and not k.startswith("_")},
    }


def _timed(fn):
    gc.collect()
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def _run_pass(workload):
    """One pass; an exception counts every operation of the pass as failed."""
    try:
        result, wall = _timed(workload.run_pass)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None
    result.wall_s = wall
    return result


def _passes_until(deadline: float, workload) -> list:
    passes = []
    while not passes or time.perf_counter() < deadline:
        result = _run_pass(workload)
        passes.append(result)
        if result is None:
            break
    return passes


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile_ms(samples: list[float], q: int) -> float:
    if len(samples) < 2:
        return 1e3 * samples[0] if samples else 0.0
    return 1e3 * statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def _tally(passes, reference, ops_per_pass):
    """(attempted, failed); a pass whose outputs differ from `reference` fails whole."""
    attempted = failed = 0
    for p in passes:
        attempted += ops_per_pass
        if p is None or p.outputs != reference.outputs:
            failed += ops_per_pass
        else:
            failed += p.failed
    return attempted, failed


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path, root: Path,
        import_s: float = 0.0, tiny: bool = False, spans_out: Path | None = None) -> dict:
    """Run one workload; returns the result object and a details object."""
    spec = load_spec(root)
    workload = workloads.make(name, seed, workdir, tiny=tiny)
    details = {"workload": name, "trace": int(trace),
               "provenance": provenance(root, workload, seed)}

    if not trace:
        setups = [_timed(workload.setup) for _ in range(SETUP_REPEATS)]
        started = time.perf_counter()
        passes = _passes_until(started + seconds, workload)
        ok = [p for p in passes if p is not None]
        if not ok:
            raise RuntimeError("no pass of the workload completed")
        attempted, failed = _tally(passes, ok[0], workload.ops_per_pass)
        training = [p.train_passes / p.train_s for p in ok if p.train_passes]
        training = training or [s.train_passes / s.train_s for s, _ in setups if s.train_passes]
        values = {
            "setup_s": import_s + _median([t for _, t in setups]),
            "wall_s": _median([p.wall_s for p in ok]),
            "train_seq_per_s": _median(training),
            "eval_seq_per_s": _median([p.classified / p.classify_s for p in ok]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "accuracy": ok[0].accuracy,
        }
        details["setup_s"] = [t for _, t in setups]
        details["passes_wall_s"] = [p.wall_s if p else None for p in passes]
        metric_specs = spec["end_to_end"]
    else:
        tracer = benchtrace.Tracer()
        with tracer.installed() as skipped:
            tracer.phase = "setup"
            workload.setup()
        started = time.perf_counter()
        reference = _run_pass(workload)
        if reference is None:
            raise RuntimeError("the untraced reference pass did not complete")
        traced = []
        with tracer.installed():
            while not traced or time.perf_counter() < started + seconds:
                tracer.phase = f"pass-{len(traced)}"
                traced.append(_run_pass(workload))
                if traced[-1] is None:
                    break
        attempted, failed = _tally([reference] + traced, reference, workload.ops_per_pass)
        ok = [(i, p) for i, p in enumerate(traced) if p is not None]
        if not ok:
            raise RuntimeError("no traced pass of the workload completed")
        ok.sort(key=lambda item: item[1].wall_s)
        chosen, typical = ok[(len(ok) - 1) // 2]
        values = benchtrace.layer_metrics(
            benchtrace.select(tracer.spans, ("setup", f"pass-{chosen}"))
        )
        values["trace.overhead_s"] = typical.wall_s - reference.wall_s
        values["cli.predict_p50_ms"] = _percentile_ms(reference.predict_s, 50)
        values["cli.predict_p99_ms"] = _percentile_ms(reference.predict_s, 99)
        details["untraced_sites"] = skipped
        details["reference_wall_s"] = reference.wall_s
        details["traced_wall_s"] = [p.wall_s if p else None for p in traced]
        details["spans"] = len(tracer.spans)
        metric_specs = spec["per_layer"]
        if spans_out is not None:
            with open(spans_out, "w", encoding="utf-8") as handle:
                for span in tracer.spans:
                    handle.write(json.dumps(span.to_json()) + "\n")

    missing = {m["name"] for m in metric_specs} ^ set(values)
    if missing:
        raise RuntimeError(f"metrics computed and metrics declared differ: {sorted(missing)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in metric_specs},
    }
    return {"result": result, "details": details}
