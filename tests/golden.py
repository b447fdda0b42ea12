"""Golden outputs: CLI reports, the whole stdout of text and batch runs,
and full ``LpSolution`` records pinned byte for byte, so that a change
to the solver's arithmetic or the CLI's rendering cannot move a pivot, a
vertex, a dual, a certificate or a line of output unnoticed.

The instances are the suite's worked fixtures; the programs are the 60
drawn by ``_random_boxed_lp(random.Random(20240817))``.  Regenerate the
data file only when a change of output is intended:

    PYTHONPATH=src python3 -m tests.golden
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import tempfile
from pathlib import Path

from nrb import solve_lp
from nrb.cli import main
from nrb.rational import format_rational

from .conftest import _sized_menu_instance, _warp_cycle_instance
from .test_cli import NIELSEN_CREDAL, NIELSEN_POOL, _rum_doc
from .test_simplex import _random_boxed_lp

DATA = Path(__file__).with_name("golden.json")
LP_SEED = 20240817
LP_COUNT = 60

# Each argv names its instance by a file name relative to the working
# directory, so the echoed command and instance fields carry no path.
CASES = (
    ["distance", "credal.json"],
    ["gordan", "--eps", "1/2", "credal.json"],
    ["gordan", "--eps", "2/3", "credal.json"],
    ["pool", "min-eps", "pool.json"],
    ["pool", "min-eps", "--genest", "pool.json"],
    ["pool", "min-eps", "--normalized", "pool.json"],
    ["pool", "min-eps", "--free", "pool.json"],
    ["pool", "check", "--condition", "c", "--eps", "2/3", "pool.json"],
    ["pool", "check", "--condition", "c", "--eps", "1/3", "pool.json"],
    ["pool", "check", "--condition", "cstar", "--eps", "1/3", "pool.json"],
    ["pool", "check", "--condition", "cstar", "--eps", "1/4", "pool.json"],
    ["pool", "check", "--condition", "cm", "--eps", "0", "pool.json"],
    ["pool", "check", "--condition", "cm", "--eps", "1/3", "pool.json"],
    ["pool", "check", "--condition", "minmax", "--eps", "1/2", "pool.json"],
    ["pool", "check", "--condition", "minmax", "--eps", "2/3", "pool.json"],
    ["rum", "min-eps", "skewed.json"],
    ["rum", "min-eps", "warp.json"],
    ["rum", "min-eps", "--residual", "skewed.json"],
    ["rum", "min-eps", "--residual", "warp.json"],
    ["rum", "check", "--eps", "1/10", "skewed.json"],
    ["rum", "check", "--eps", "1/20", "skewed.json"],
    ["rum", "check", "--eps", "2", "warp.json"],
    ["rum", "check", "--eps", "3/2", "warp.json"],
    ["rum", "check", "--star", "--eps", "1/40", "skewed.json"],
    ["rum", "check", "--star", "--eps", "1/50", "skewed.json"],
    ["rum", "check", "--star", "--eps", "1", "warp.json"],
    ["rum", "check", "--star", "--eps", "1/2", "warp.json"],
    ["verify", "exhaustive-rum", "warp.json", "--eps", "1", "--max-tag", "2"],
    ["verify", "exhaustive-rum", "warp.json", "--eps", "2", "--max-tag", "3"],
    ["verify", "exhaustive-rum", "skewed.json", "--eps", "1", "--max-tag", "1"],
)


# Whole-stdout pins for the renderings the report records above do not
# cover: text output with and without a headline, and batch runs in
# both formats over a list that names a missing file.
STDOUT_CASES = (
    ["--format", "text", "pool", "min-eps", "pool.json"],
    ["--format", "text", "distance", "credal.json"],
    ["--batch", "batch.txt", "distance"],
    ["--format", "text", "--batch", "batch.txt", "distance"],
    ["--format", "text", "--batch", "batch.txt", "pool", "min-eps"],
)
BATCH_LIST = (
    "# one good, one missing, one of the wrong kind\n"
    "credal.json\n\ngone.json\npool.json\n"
)
_TIMING_LINE = re.compile(r'^(?:\s*"timing_ms": \d+|timing_ms: \d+)\n', re.M)


def documents() -> dict[str, dict]:
    return {
        "credal.json": NIELSEN_CREDAL,
        "pool.json": NIELSEN_POOL,
        "skewed.json": _rum_doc(_sized_menu_instance()),
        "warp.json": _rum_doc(_warp_cycle_instance()),
    }


def _run_in(workdir: Path, cases) -> list[tuple[list[str], int, str]]:
    """Run each argv with *workdir* as the working directory, after
    writing the instance documents and the batch list there, and return
    ``(argv, exit code, stdout)`` triples."""
    for name, doc in documents().items():
        (workdir / name).write_text(json.dumps(doc), encoding="utf-8")
    (workdir / "batch.txt").write_text(BATCH_LIST, encoding="utf-8")
    runs = []
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in cases:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(list(argv))
            runs.append((list(argv), code, out.getvalue()))
    finally:
        os.chdir(here)
    return runs


def run_cases(workdir: Path) -> list[dict]:
    """Run every case with *workdir* as the working directory and return
    ``{"argv", "exit", "report"}`` records, ``timing_ms`` removed."""
    records = []
    for argv, code, out in _run_in(workdir, CASES):
        report = json.loads(out)
        del report["timing_ms"]
        records.append({"argv": argv, "exit": code, "report": report})
    return records


def run_stdout_cases(workdir: Path) -> list[dict]:
    """``{"argv", "exit", "stdout"}`` records of ``STDOUT_CASES``, the
    stdout exact apart from its ``timing_ms`` lines, which are dropped."""
    return [
        {"argv": argv, "exit": code, "stdout": _TIMING_LINE.sub("", out)}
        for argv, code, out in _run_in(workdir, STDOUT_CASES)
    ]


def _vector(values):
    return None if values is None else [format_rational(v) for v in values]


def lp_records() -> list[dict]:
    rng = random.Random(LP_SEED)
    records = []
    for _ in range(LP_COUNT):
        sol = solve_lp(_random_boxed_lp(rng))
        records.append({
            "status": sol.status,
            "objective_value": (
                None if sol.objective_value is None
                else format_rational(sol.objective_value)
            ),
            "primal": _vector(sol.primal),
            "dual": _vector(sol.dual),
            "reduced_costs": _vector(sol.reduced_costs),
            "farkas": _vector(sol.farkas),
        })
    return records


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        reports = run_cases(Path(tmp))
        stdout = run_stdout_cases(Path(tmp))
    data = {
        "reports": reports,
        "lp_solutions": lp_records(),
        "stdout": stdout,
    }
    DATA.write_text(
        json.dumps(data, indent=1, ensure_ascii=False) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    record()
