"""nrb benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload credal-pool --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
One client sends the next operation only when the previous one has
returned, as an offline exact solver is used.  ``--seed`` picks the
instances and their order (see workloads.py), ``--seconds`` is the
length of the timed loop, rounded to whole rounds.  Every answer is
checked (check.py); the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``ops_per_s`` (ops over
their summed time) and the latency percentiles are calibrated by a fixed
kernel run after every op (see ``calibrated``); the uncalibrated ones
are printed on the ``raw-wall`` line.
``--trace 1`` runs every op untraced and traced (tracing.py), reports
the per-layer metrics and the tracing overhead, and writes the spans to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import check_op
from harness import Harness, calibration_kernel, decode
from workloads import WORKLOADS, draw_round

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
SETUP_SPAWNS = 7
# Median times of calibration_kernel and of a bare interpreter start on
# the reference host (2 cores, Python 3.11.7); calibrated timings read
# as wall times at that host's speed.
REFERENCE_KERNEL_S = 0.0125
REFERENCE_START_S = 0.075
# Kernel runs on each side of an op that calibrate its time.
CALIBRATION_WINDOW = 10

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "work_ratio": "1",
    "peak_rss_mb": "MB",
}

# Single-op baseline times in ROADMAP.md (2 cores, Python 3.11.7), for
# the traced run's cross-check: (workload, label, stratum key, call,
# ROADMAP seconds).
BASELINES = (
    ("rum-solve", "rum_min_eps n=4", "rum-4-random/0", "rum_min_eps", 0.32),
    ("rum-solve", "rum_min_eps n=5", "rum-5-random/0", "rum_min_eps", 6.1),
    ("rum-wide", "build_matrix n=7", "wide-7/0", "build_matrix", 2.4),
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_nrb():
    package = SRC / "nrb"
    if not (package / "__init__.py").is_file():
        fail(f"no nrb package under {SRC}")
    sys.path.insert(0, str(SRC))
    import nrb
    import nrb.cli  # noqa: F401  (binds nrb.cli)

    if Path(nrb.__file__).resolve().parent != package.resolve():
        fail(f"imported nrb from {nrb.__file__}, not from {package}")
    return nrb


def measure_setup() -> float:
    """Time a fresh interpreter takes to run ``import nrb.cli``, which
    every nrb invocation pays before it reads input.  Each such spawn is
    paired with a bare interpreter start, and the median ratio of the
    two is scaled by REFERENCE_START_S: spawn times drift with the host
    like everything else, by 20-40%, while the ratio moves only with
    the import.  One spawn first writes the bytecode caches."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def spawn(code: str) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                       check=True, timeout=60, stdout=subprocess.DEVNULL)
        return time.perf_counter() - start

    spawn("import nrb.cli")
    ratios = [spawn("import nrb.cli") / spawn("pass") for _ in range(SETUP_SPAWNS)]
    return REFERENCE_START_S * statistics.median(ratios)


class Loop:
    """Latencies, kernel times and answer problems of one timed loop."""

    def __init__(self):
        self.latency: list[float] = []
        self.kernel: list[float] = []
        self.failures: list[str] = []
        self.rounds = 0

    @property
    def attempted(self) -> int:
        return len(self.latency)


def run_op(bench, inst, name, expected, loop, tracer=None) -> None:
    """Run one op, traced if a *tracer* is given, then the kernel.  The
    answer check runs outside both timings."""
    if tracer is not None:
        tracer.new_op(loop.attempted)
        tracer.install()
    t0 = time.perf_counter()
    try:
        code, report = bench.execute(inst, name)
        error = None
    except Exception as exc:  # a raising op is a failed op
        error = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
    loop.latency.append(t1 - t0)
    calibration_kernel()
    loop.kernel.append(time.perf_counter() - t1)
    if error is None:
        problems = check_op(
            inst.doc, inst.levels, name, code, decode(report),
            expected["ops"][f"{inst.key}/{name}"],
        )
    else:
        problems = [error]
    if problems:
        loop.failures.append(f"{inst.key}/{name}: {'; '.join(problems)}")


def run_loop(bench, instances, expected, workload, rng, seconds,
             tracer=None) -> tuple[Loop, Loop]:
    """Closed loop over whole rounds: draw rounds until *seconds* are
    (about) used up.  With a *tracer*, every op runs twice back to back,
    untraced and traced, in alternating order, so that both runs see the
    same host speed.  Returns the untraced loop and the traced one."""
    loop, traced = Loop(), Loop()
    start = time.perf_counter()
    while True:
        for stratum, index, name in draw_round(workload, rng):
            inst = instances[(stratum, index)]
            if tracer is None:
                run_op(bench, inst, name, expected, loop)
            elif loop.attempted % 2:
                run_op(bench, inst, name, expected, traced, tracer)
                run_op(bench, inst, name, expected, loop)
            else:
                run_op(bench, inst, name, expected, loop)
                run_op(bench, inst, name, expected, traced, tracer)
        loop.rounds += 1
        elapsed = time.perf_counter() - start
        # stop when another round would overshoot by more than half of it
        if elapsed * (1 + 0.5 / loop.rounds) >= seconds:
            break
    return loop, traced


def wall_metrics(latency: list[float]) -> dict:
    """Throughput and latency percentiles of per-op times; p90 has 10%
    of the samples (at least 10 in any run of a few rounds) beyond it."""
    return {
        "ops_per_s": len(latency) / sum(latency),
        "latency_p50_ms": 1000 * statistics.median(latency),
        "latency_p90_ms": 1000 * statistics.quantiles(latency, n=10, method="inclusive")[8],
    }


def calibrated(loop: Loop) -> list[float]:
    """Op wall times as they would read at the reference host speed:
    each is scaled by REFERENCE_KERNEL_S over the mean time of the
    kernel runs nearest to it.  On a shared 2-core host the speed of
    pure-Python code drifts by 20-40% within minutes, and the kernel
    drifts with it."""
    out = []
    for i, t in enumerate(loop.latency):
        near = loop.kernel[max(0, i - CALIBRATION_WINDOW): i + CALIBRATION_WINDOW + 1]
        out.append(t * REFERENCE_KERNEL_S * len(near) / sum(near))
    return out


def end_to_end(loop: Loop, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        **wall_metrics(calibrated(loop)),
        "work_ratio": sum(loop.latency) / sum(loop.kernel),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def cross_check(nrb, instances, workload) -> None:
    """Untraced single-op times beside ROADMAP's baseline figures."""
    for wl, label, key, call, roadmap in BASELINES:
        if wl != workload:
            continue
        stratum, index = key.split("/")
        inst = instances[(stratum, int(index))]
        start = time.perf_counter()
        getattr(nrb, call)(inst.objects["rum"])
        took = time.perf_counter() - start
        print(f"baseline {label} on {key}: {took:.3f} s (ROADMAP: {roadmap} s)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nrb = load_nrb()
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s = measure_setup() if not args.trace else None
        bench = Harness(nrb, workdir, expected)
        instances = bench.prepare(args.workload)
        rng = random.Random(args.seed)
        if not args.trace:
            loop, _ = run_loop(bench, instances, expected, args.workload,
                               rng, args.seconds)
            metrics = end_to_end(loop, setup_s)
            units = END_TO_END
        else:
            from tracing import PER_LAYER, Tracer

            cross_check(nrb, instances, args.workload)
            tracer = Tracer()
            loop, traced = run_loop(bench, instances, expected, args.workload,
                                    rng, args.seconds, tracer)
            overhead = 1 - sum(loop.latency) / sum(traced.latency)
            metrics = tracer.per_layer(traced.attempted, overhead)
            units = {k: unit for k, (unit, _) in PER_LAYER.items()}
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            tracer.write(out / f"trace-{args.workload}-seed{args.seed}.json")
            loop.latency += traced.latency
            loop.failures += traced.failures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    for failure in loop.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    attempted, failed = loop.attempted, len(loop.failures)
    print(f"workload {args.workload} seed {args.seed}: {loop.rounds} rounds, "
          f"{attempted} ops, error_rate {failed / attempted:.4f}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6f} {units[name]}")
    if not args.trace:
        print("raw-wall " + json.dumps(wall_metrics(loop.latency)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
