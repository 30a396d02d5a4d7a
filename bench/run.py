"""qcseis benchmark: one workload per process, a closed loop with one caller.

Run from the repository root:

    python3 bench/run.py --workload gan_quantum --seed 1 --seconds 30 --trace 0

Workloads (bench/workloads.json): gan_quantum, unet_lfe, eval_gan. The
seed makes the workload's inputs, which are written before timing starts.
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run. The line
before it records the environment. Exits 2, printing no result, when the
qcseis sources are not next to the benchmark.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# One qlayer worker and one BLAS thread: on a 2-core machine a GAN step
# measured faster and far steadier single-threaded than with two threads.
# BLAS reads its thread count once, when numpy loads.
THREADS = 1
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[var] = str(THREADS)

# imports are most of set-up and vary by a quarter from one interpreter to the next
IMPORT_SAMPLES = 7


def import_seconds() -> float:
    """Wall time of importing qcseis in a fresh interpreter."""
    code = (f"import sys, time; t = time.perf_counter(); sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "import qcseis.cli; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True,
                          timeout=120)
    return float(done.stdout)


def alternate(wl, tracer):
    """A rep that runs untraced and traced in turn, so drift in machine
    speed cancels out of the tracing overhead."""
    turns = itertools.cycle((False, True))

    def unit():
        if not next(turns):
            return wl.rep()
        wl.tracer = tracer
        try:
            with tracer:
                return wl.rep()
        finally:
            wl.tracer = None

    return unit


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "qlayer_workers": THREADS,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qcseis" / "__init__.py").is_file():
        print(f"qcseis sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    t0 = time.perf_counter()
    import qcseis.cli  # noqa: F401  (timed as part of set-up)

    import_s = time.perf_counter() - t0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    import workloads
    from qcseis import qlayer
    from tracer import Tracer

    if args.workload not in workloads.DEFINITIONS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.DEFINITIONS)}",
              file=sys.stderr)
        return 2
    qlayer.set_workers(THREADS)

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = workloads.make_inputs(args.workload, args.seed, work)
        kind = workloads.EvalWorkload if args.workload == "eval_gan" else workloads.TrainingWorkload
        wl = kind(args.workload, args.seed, inputs, work)
        wl.prepare()
        if args.trace:
            tracer = Tracer()
            reps = workloads.repeat(alternate(wl, tracer), args.seconds, 2)
            metrics = wl.per_layer(tracer, reps[1::2], reps[0::2])
        else:
            reps = workloads.repeat(wl.rep, args.seconds, wl.min_reps)
            # set-up repeats in-process except the imports, so sample those in fresh interpreters
            import_s = statistics.median([import_s] + [import_seconds() for _ in range(IMPORT_SAMPLES - 1)])
            metrics = wl.end_to_end(reps, import_s)
        attempted, failed = wl.failures(reps)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(metrics)} differ from those BENCHMARK.json declares")
    print(json.dumps({"environment": environment(), "workload": args.workload, "seed": args.seed,
                      "reps": len(reps)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
