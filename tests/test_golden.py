"""Byte-identity against recorded outputs (see tests/golden.py): every
report and every ``LpSolution`` must match what was recorded, field for
field and in the same key order, not merely agree between two runs."""

import json

import pytest

from .golden import (
    CASES,
    DATA,
    STDOUT_CASES,
    _run_in,
    documents,
    lp_records,
    run_cases,
    run_stdout_cases,
)


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text(encoding="utf-8"))


def _lines(records):
    return [json.dumps(r, indent=1, ensure_ascii=False) for r in records]


def test_cli_reports_match_recorded_bytes(tmp_path, golden):
    assert [r["argv"] for r in golden["reports"]] == [list(a) for a in CASES]
    assert _lines(run_cases(tmp_path)) == _lines(golden["reports"])


def test_lp_solutions_match_recorded_bytes(golden):
    assert _lines(lp_records()) == _lines(golden["lp_solutions"])


def test_cli_stdout_matches_recorded_bytes(tmp_path, golden):
    """Text renderings and batch runs, pinned as whole stdout."""
    assert [r["argv"] for r in golden["stdout"]] == [
        list(a) for a in STDOUT_CASES
    ]
    assert run_stdout_cases(tmp_path) == golden["stdout"]


def test_json_stdout_is_json_dumps_indented(tmp_path):
    """Every JSON run of the golden cases prints what
    ``json.dumps(..., indent=2, ensure_ascii=False)`` prints for its
    report, alone and as a batch over every document and a missing one."""
    (tmp_path / "every.txt").write_text(
        "\n".join([*documents(), "gone.json"]) + "\n", encoding="utf-8"
    )
    batches = [
        ["--batch", "every.txt", *(a for a in argv if a not in documents())]
        for argv in CASES
    ]
    runs = _run_in(tmp_path, [*CASES, *STDOUT_CASES, *batches])
    json_runs = [r for r in runs if "text" not in r[0]]
    assert len(json_runs) == 2 * len(CASES) + 1
    for argv, _, out in json_runs:
        shown = json.dumps(json.loads(out), indent=2, ensure_ascii=False)
        assert out == shown + "\n", argv
