"""Instance set-up and execution of single operations.

CLI operations go through ``nrb.cli.main(argv)`` in this process with
stdout captured; the program reads only the generated instance files.
Library operations call public ``nrb`` functions on objects built during
set-up.  Every call into ``nrb`` goes through a module attribute looked
up at call time, so the tracer's rebinding covers it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path

from workloads import (
    CLI_OPS,
    STRATA,
    digest,
    make_instance,
    strata_of,
    used_indices,
)

SCORE_EPS = F(1, 10)


def calibration_kernel() -> F:
    """Fixed pure-Python work: Gauss-Jordan elimination of one 12x12
    Fraction system.  It never changes, so op time divided by its time
    cancels host-level speed changes that hit both alike."""
    rng = random.Random(12)
    n = 12
    a = [
        [F(rng.randrange(-50, 51), rng.randrange(1, 25)) for _ in range(n + 1)]
        for _ in range(n)
    ]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        inv = 1 / a[c][c]
        a[c] = [v * inv for v in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return a[0][n]


@dataclass
class Instance:
    stratum: str
    index: int
    doc: dict
    path: str
    levels: dict
    objects: dict = field(default_factory=dict)

    @property
    def key(self) -> str:
        return f"{self.stratum}/{self.index}"


def cli_doc(doc: dict) -> dict:
    """The document the program reads: generator extras removed."""
    return {k: v for k, v in doc.items() if k not in ("mixture", "tags")}


class Harness:
    def __init__(self, nrb, workdir: Path, expected: dict):
        self.nrb = nrb
        self.workdir = workdir
        self.expected = expected

    def prepare(self, workload: str, check_digest: bool = True) -> dict:
        """Generate every pool instance of *workload*, write the CLI
        documents and build library objects.  Returns (stratum, index)
        -> Instance."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        out = {}
        for name in strata_of(workload):
            stratum = STRATA[name]
            for index in used_indices(workload, name):
                doc = make_instance(stratum, index)
                key = f"{name}/{index}"
                record = self.expected.get("instances", {}).get(key)
                if check_digest:
                    if record is None or record["digest"] != digest(doc):
                        raise RuntimeError(
                            f"instance {key} differs from expected.json; "
                            "run perfbench/record.py"
                        )
                path = self.workdir / f"{name}-{index}.json"
                path.write_text(json.dumps(cli_doc(doc)), encoding="utf-8")
                inst = Instance(
                    name, index, doc, str(path),
                    record["levels"] if record else {},
                )
                self._build_objects(inst)
                out[(name, index)] = inst
        return out

    def _build_objects(self, inst: Instance) -> None:
        nrb = self.nrb
        doc = inst.doc
        if doc["kind"] == "kr":
            labels = doc["space"]["labels"]
            metric = doc["space"]["metric"]
            space = nrb.PointSpace(labels=tuple(labels), metric=metric)
            inst.objects["p"] = nrb.ProbVector(space, tuple(doc["P"]))
            inst.objects["q"] = nrb.ProbVector(space, tuple(doc["Q"]))
        elif doc["kind"] == "rum":
            alts = tuple(doc["alternatives"])
            table = {}
            for k, v in doc["choice"].items():
                y, menu = k.split("|", 1)
                table[(y, tuple(menu.split(",")))] = v
            inst.objects["table"] = table
            if "mixture" not in doc:
                inst.objects["rum"] = nrb.RumInstance(alts, table)
                return
            weights = {tuple(k.split(",")): F(v) for k, v in doc["mixture"].items()}
            built = nrb.instance_from_mixture(
                alts, [weights.get(o, F(0)) for o in nrb.enumerate_orderings(alts)]
            )
            if {k: F(v) for k, v in table.items()} != dict(built.choice):
                raise RuntimeError(
                    f"instance_from_mixture disagrees with the generator "
                    f"on {inst.key}"
                )
            inst.objects["rum"] = built

    def execute(self, inst: Instance, op: str):
        """Run one operation; returns (exit code, report dict)."""
        if op in CLI_OPS:
            argv = [a.format(path=inst.path, **inst.levels) for a in CLI_OPS[op]]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.nrb.cli.main(argv)
            return code, buf
        nrb = self.nrb
        if op == "kr":
            value, stakes = nrb.kr_distance(inst.objects["p"], inst.objects["q"])
            return 0, {"value": value, "stakes": stakes.values}
        if op == "validate":
            checked = nrb.RumInstance(
                alternatives=tuple(inst.doc["alternatives"]),
                choice=inst.objects["table"],
            )
            return 0, {"value": F(len(checked.choice))}
        if op == "score":
            rum = inst.objects["rum"]
            matrix = nrb.build_matrix(rum)
            sides = []
            for tags in inst.doc["tags"]:
                sides.append(nrb.evaluate_arsp(rum, matrix, tags, SCORE_EPS))
                sides.append(nrb.evaluate_arsp_star(rum, matrix, tags, SCORE_EPS))
            return 0, {"sides": sides}
        raise ValueError(f"unknown operation {op!r}")


def decode(report):
    """CLI reports arrive as captured text; parse them outside the
    timed call."""
    if isinstance(report, io.StringIO):
        return json.loads(report.getvalue())
    return report
