"""Record ``expected.json``: instance digests, the levels the thresholds
are placed around, and every operation's exit code, verdict and exact
scalar at the current commit.

    python3 perfbench/record.py

Run it only when the instance pools or the operation lists change; a
change to nrb must leave the recorded answers valid.  Each recorded
report must also pass the substitution checks of check.py.
"""

from __future__ import annotations

import json
import shutil
from fractions import Fraction as F

from check import check_op, summarize
from harness import Harness, decode
from run import HERE, ROOT, load_nrb
from workloads import WORKLOADS, digest, op_names_of


def _around(level: F, cap=None) -> tuple[str, str]:
    """A threshold below the level and one above it."""
    hi = level * F(3, 2) + F(1, 100)
    if cap is not None:
        hi = (level + cap) / 2
    return str(level / 2), str(hi)


def levels_of(nrb, inst) -> dict:
    doc = inst.doc
    out = {}
    if doc["kind"] == "credal":
        space = nrb.PointSpace(labels=tuple(doc["space"]["labels"]))
        p_set = nrb.CredalSet(tuple(nrb.ProbVector(space, tuple(r)) for r in doc["P_set"]))
        q_set = nrb.CredalSet(tuple(nrb.ProbVector(space, tuple(r)) for r in doc["Q_set"]))
        dist = nrb.min_set_distance(p_set, q_set).value
        out["dist"] = str(dist)
        out["dist_lo"], out["dist_hi"] = _around(dist)
    elif doc["kind"] == "pooling":
        space = nrb.PointSpace(labels=tuple(doc["space"]["labels"]))
        pool = nrb.PoolingInstance(
            planner=nrb.ProbVector(space, tuple(doc["P"])),
            opinions=nrb.CredalSet(
                tuple(nrb.ProbVector(space, tuple(r)) for r in doc["Q"])
            ),
        )
        out["add_lo"], out["add_hi"] = _around(
            nrb.pool_min_eps_additive(pool).epsilon_min)
        out["gen_lo"], out["gen_hi"] = _around(
            nrb.pool_min_eps_genest(pool).epsilon_min, cap=F(1))
        out["mm_lo"], out["mm_hi"] = _around(
            nrb.check_event_minmax(pool.planner, pool.opinions)[0])
        if space.size <= 8:
            out["cm_lo"], out["cm_hi"] = _around(
                nrb.check_condition_CM(pool.planner, pool.opinions, 0)[0])
    elif doc["kind"] == "rum" and "mixture" not in doc:
        rum = inst.objects["rum"]
        out["rum_lo"], out["rum_hi"] = _around(nrb.rum_min_eps(rum).epsilon_min)
        out["res_lo"], _ = _around(
            nrb.rum_residual_min_eps(rum).epsilon_min, cap=F(1))
    return out


def record(nrb) -> dict:
    path = HERE / "expected.json"
    expected = {"instances": {}, "ops": {}}
    if path.exists():
        expected = json.loads(path.read_text(encoding="utf-8"))
    workdir = ROOT / ".perfbench_tmp" / "record"
    bench = Harness(nrb, workdir, expected)
    try:
        for workload in sorted(WORKLOADS):
            instances = bench.prepare(workload, check_digest=False)
            for inst in instances.values():
                inst.levels = levels_of(nrb, inst)
                expected["instances"][inst.key] = {
                    "digest": digest(inst.doc), "levels": inst.levels,
                }
                for name in op_names_of(workload, inst.stratum):
                    code, report = bench.execute(inst, name)
                    report = decode(report)
                    summary = summarize(code, report)
                    problems = check_op(inst.doc, inst.levels, name, code,
                                        report, summary)
                    if problems:
                        raise RuntimeError(f"{inst.key}/{name}: {problems}")
                    expected["ops"][f"{inst.key}/{name}"] = summary
                print(f"recorded {workload} {inst.key}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return expected


if __name__ == "__main__":
    record(load_nrb())
