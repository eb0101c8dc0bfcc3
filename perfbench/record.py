"""Run the benchmark over several seeds per workload and record the results.

Usage (from the root of a checkout):
    python3 perfbench/record.py

For each workload in BENCHMARK.json this makes ten untraced runs (seeds 0
to 9) and one traced run on seed 0, each as its own process through the
command BENCHMARK.json names. It writes to ``perfbench/baseline.json`` every
result line and run detail, and per end-to-end metric the median of the runs
and their spread: the distance between the first and third quartiles as a
share of the median. It exits non-zero if any run fails or reports a failed
call.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10


def run(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    argv = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{' '.join(argv)} reported failures:\n{proc.stderr}")
    return result, detail


def summarise(runs: list[dict]) -> dict:
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": median, "spread": (q3 - q1) / median}
    return summary


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(SEEDS):
            result, detail = run(spec, name, seed, 0)
            runs.append({"seed": seed, "result": result, "detail": detail})
            print(name, seed, json.dumps(result["metrics"]), file=sys.stderr, flush=True)
        traced, traced_detail = run(spec, name, 0, 1)
        record["workloads"][name] = {
            "end_to_end": summarise(runs),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "runs": runs,
            "traced_run": {"seed": 0, "result": traced, "detail": traced_detail},
        }
        for metric, stats in record["workloads"][name]["end_to_end"].items():
            print(name, metric, stats, file=sys.stderr, flush=True)
    (HERE / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
