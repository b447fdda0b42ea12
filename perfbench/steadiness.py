"""Steadiness check: run each workload on ten seeds and report, per
end-to-end metric, the median and the spread (distance between the
first and third quartile as a share of the median).  The uncalibrated
throughput and latency percentiles (``raw.*``, no bound) appear beside
the calibrated ones and ``work_ratio``.

    python3 perfbench/steadiness.py

Seeds are 1..10.  Each run uses BENCHMARK.json's ``run_seconds``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

from run import ROOT

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUNS = 10


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def measure(workload: str) -> dict:
    values: dict[str, list[float]] = {}
    for seed in range(1, RUNS + 1):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=180,
        )
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        if not result["correct"]:
            raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed ops")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        raw = next(line for line in lines if line.startswith("raw-wall "))
        for name, value in json.loads(raw.split(" ", 1)[1]).items():
            values.setdefault(f"raw.{name}", []).append(value)
        print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
              flush=True)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    return {
        name: {
            "median": statistics.median(v),
            "spread": spread(v),
            "bound": bounds.get(name),
        }
        for name, v in values.items()
    }


def main() -> None:
    report = {w["name"]: measure(w["name"]) for w in BENCHMARK["workloads"]}
    for workload, metrics in report.items():
        for name, m in metrics.items():
            print(f"{workload:12s} {name:16s} median {m['median']:10.4f} "
                  f"spread {m['spread']:.4f} (bound {m['bound']})")


if __name__ == "__main__":
    main()
