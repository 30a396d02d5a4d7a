"""Run two sets of every workload over seeds 1-10 and write bench/baseline.json.

Run from the repository root:

    python3 bench/baseline.py

Each run is a separate `bench/run.py` process, one at a time; the second
set starts after the first has ended, as a comparison of two builds
would run. For every set, workload and end-to-end metric the file holds
the median, the quartiles (statistics.quantiles, n=4), their spread as a
share of the median, and the raw values. `agreement` gives, per metric,
the distance between the two sets' medians as a share of the first and
whether it is within the metric's bound; `val_mae` holds the first set's
value per seed, which later runs of the same seed must reproduce (see
checks.matches_reference); one traced run per workload adds the
per-layer metrics. The machine's speed drifts over tens of minutes, so
compare a change against runs of its parent made at the same time, not
against the times in this file.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "baseline.json"
SEEDS = range(1, 11)
SETS = 2


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])  # environment line, result line


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    # the first baseline's per-seed val_mae stays the reference when the file is rewritten
    result = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS), "sets": [], "agreement": {},
              "traced_runs": {}, "val_mae": json.loads(OUT.read_text())["val_mae"]}
    for _ in range(SETS):
        sets = {}
        result["sets"].append(sets)
        for name in names:
            values, runs = {}, []
            for seed in SEEDS:
                env, out = run(name, seed, spec["run_seconds"], 0)
                result["environment"] = env["environment"]
                runs.append({"seed": seed, "correct": out["correct"], "attempted": out["attempted"],
                             "failed": out["failed"], "reps": env["reps"]})
                for metric, reading in out["metrics"].items():
                    values.setdefault(metric, []).append(reading["value"])
                print(len(result["sets"]), name, seed, json.dumps(out), flush=True)
            sets[name] = {"end_to_end": {metric: summarize(v) for metric, v in values.items()}, "runs": runs}
            result["val_mae"].setdefault(name, dict(zip(map(str, SEEDS), values["val_mae"])))
            OUT.write_text(json.dumps(result, indent=2) + "\n")
    first, second = result["sets"]
    for name in names:
        result["agreement"][name] = {}
        for metric, bound in bounds.items():
            a, b = first[name]["end_to_end"][metric]["median"], second[name]["end_to_end"][metric]["median"]
            shift = abs(b - a) / a
            result["agreement"][name][metric] = {"shift": shift, "bound": bound, "within": shift <= bound}
        env, traced = run(name, SEEDS[0], spec["run_seconds"], 1)
        result["traced_runs"][name] = {"seed": SEEDS[0], "correct": traced["correct"],
                                       "attempted": traced["attempted"], "failed": traced["failed"],
                                       "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}}
        OUT.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
