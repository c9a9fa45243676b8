"""Run every workload on several seeds and summarise the spread.

    python3 perfbench/baseline.py

Runs run.py once per (workload, seed 1-10) with tracing off and once per
workload with tracing on, then writes perfbench/baseline.json: for each
end-to-end metric the per-run values with their median, quartiles and
spread (interquartile distance over median) next to the metric's bound,
and the traced per-layer metrics.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "out" / "results"
SEEDS = range(1, 11)


def run(workload, seed, trace, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=600)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    for name in names:
        for seed in SEEDS:
            run(name, seed, 0, spec["run_seconds"])
        run(name, 1, 1, spec["run_seconds"])

    out = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for name in names:
        records = [json.loads((RESULTS / f"{name}-trace0-seed{s}.json").read_text())
                   for s in SEEDS]
        traced = json.loads((RESULTS / f"{name}-trace1-seed1.json").read_text())
        out["machine"] = records[0]["machine"]
        summary = {"runs": len(records), "failed": sum(r["failed"] for r in records),
                   "attempted": sum(r["attempted"] for r in records), "end_to_end": {}}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in records]
            q1, med, q3 = statistics.quantiles(values, n=4)
            summary["end_to_end"][metric["name"]] = {
                "unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "bound": metric["bound"], "values": values,
            }
            print(f"{name:<13} {metric['name']:<12} median {med:>10.4g} {metric['unit']:<3}"
                  f" spread {(q3 - q1) / med:6.3f}  bound {metric['bound']}")
        summary["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        out["workloads"][name] = summary
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
