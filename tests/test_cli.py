"""Command-line front end: exit codes, report shape, rendering."""

import json
import subprocess
import sys
from fractions import Fraction as F

import pytest

from nrb import InternalCheckError, RumInstance, enumerate_menus
from nrb.cli import EXIT_INTERNAL, main

NIELSEN_CREDAL = {
    "kind": "credal",
    "space": {"labels": ["1", "2", "3"]},
    "P_set": [["1/3", "1/3", "1/3"]],
    "Q_set": [["2/3", "1/3", "0"], ["1/3", "2/3", "0"]],
}

NIELSEN_POOL = {
    "kind": "pooling",
    "space": {"labels": ["1", "2", "3"]},
    "P": ["1/3", "1/3", "1/3"],
    "Q": [["2/3", "1/3", "0"], ["1/3", "2/3", "0"]],
}


def _rum_doc(inst: RumInstance) -> dict:
    return {
        "kind": "rum",
        "alternatives": list(inst.alternatives),
        "choice": {
            f"{y}|{','.join(menu)}": str(p)
            for (y, menu), p in inst.choice.items()
        },
    }


@pytest.fixture()
def credal_path(tmp_path):
    path = tmp_path / "credal.json"
    path.write_text(json.dumps(NIELSEN_CREDAL))
    return str(path)


@pytest.fixture()
def pool_path(tmp_path):
    path = tmp_path / "pool.json"
    path.write_text(json.dumps(NIELSEN_POOL))
    return str(path)


@pytest.fixture()
def warp_path(tmp_path, warp_cycle):
    path = tmp_path / "warp.json"
    path.write_text(json.dumps(_rum_doc(warp_cycle)))
    return str(path)


def _capture(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _capture_json(capsys, argv):
    code, out = _capture(capsys, argv)
    return code, json.loads(out)


def test_distance_report(capsys, credal_path):
    code, report = _capture_json(capsys, ["distance", credal_path])
    assert code == 0
    assert report["verdict"] == "value"
    assert report["value"] == "2/3"
    assert report["value_approx"].startswith("0.6666")
    assert report["command"] == ["distance", credal_path]
    assert report["instance"] == credal_path
    assert "stakes" in report["representation"]
    assert "timing_ms" in report


def test_gordan_separation_and_proximity(capsys, credal_path):
    code, report = _capture_json(
        capsys, ["gordan", "--eps", "1/2", credal_path]
    )
    assert code == 1
    assert report["verdict"] == "violated"
    assert report["certificate"]["gap"] == "2/3"
    code, report = _capture_json(
        capsys, ["gordan", "--eps", "2/3", credal_path]
    )
    assert code == 0
    assert report["verdict"] == "holds"


def test_pool_min_eps_variants(capsys, pool_path):
    code, report = _capture_json(capsys, ["pool", "min-eps", pool_path])
    assert (code, report["epsilon_min"]) == (0, "2/3")
    assert report["representation"]["kind"] == "additive"
    code, report = _capture_json(
        capsys, ["pool", "min-eps", "--genest", pool_path]
    )
    assert report["epsilon_min"] == "1/3"
    assert report["representation"]["residual"] == ["0", "0", "1"]
    code, report = _capture_json(
        capsys, ["pool", "min-eps", "--normalized", pool_path]
    )
    assert report["epsilon_min"] == "2/3"
    assert report["representation"]["weight_sum"] == "1"
    code, report = _capture_json(
        capsys, ["pool", "min-eps", "--free", pool_path]
    )
    assert report["epsilon_min"] == "1/3"
    assert report["representation"]["weight_sum"] == "2/3"


def test_pool_check_exit_codes(capsys, pool_path):
    code, report = _capture_json(
        capsys,
        ["pool", "check", "--condition", "c", "--eps", "2/3", pool_path],
    )
    assert (code, report["verdict"]) == (0, "holds")
    code, report = _capture_json(
        capsys,
        ["pool", "check", "--condition", "c", "--eps", "1/3", pool_path],
    )
    assert (code, report["verdict"]) == (1, "violated")
    cert = report["certificate"]
    assert cert["violation"] != "0"
    assert all(F(m) >= 0 for m in cert["premise_margins"])
    code, report = _capture_json(
        capsys,
        ["pool", "check", "--condition", "minmax", "--eps", "0", pool_path],
    )
    assert (code, report["verdict"]) == (1, "violated")
    assert report["certificate"]["event"] == ["3"]


def test_rum_reports(capsys, tmp_path, skewed_triples, warp_path):
    sk_path = tmp_path / "sk.json"
    sk_path.write_text(json.dumps(_rum_doc(skewed_triples)))
    code, report = _capture_json(capsys, ["rum", "min-eps", str(sk_path)])
    assert (code, report["epsilon_min"]) == (0, "1/10")
    pi = report["representation"]["pi"]
    assert sum(F(w) for w in pi.values()) == 1
    code, report = _capture_json(
        capsys, ["rum", "min-eps", "--residual", str(sk_path)]
    )
    assert report["epsilon_min"] == "1/40"
    code, report = _capture_json(
        capsys, ["rum", "check", "--eps", "3/2", warp_path]
    )
    assert (code, report["verdict"]) == (1, "violated")
    cert = report["certificate"]
    assert F(cert["lhs"]) > F(cert["rhs"])
    assert all(isinstance(t, int) for t in cert["tags"].values())
    code, report = _capture_json(
        capsys, ["rum", "check", "--eps", "2", warp_path]
    )
    assert (code, report["verdict"]) == (0, "holds")
    code, report = _capture_json(capsys, ["rum", "bm", warp_path])
    assert (code, report["verdict"]) == (0, "value")
    assert report["value"] == "2"
    assert report["representation"]["negative_norm"] == "2"
    assert report["representation"]["hoffman_ratio"] == "1"
    assert report["representation"]["bm"]["2|2"] == "-1"


def test_verify_subcommands(capsys, credal_path, warp_path):
    code, report = _capture_json(
        capsys, ["verify", "vertex-distance", credal_path]
    )
    assert (code, report["value"]) == (0, "2/3")
    code, report = _capture_json(
        capsys, ["verify", "grid-gap", credal_path, "--resolution", "2"]
    )
    assert (code, report["value"]) == (0, "2/3")
    code, report = _capture_json(
        capsys,
        ["verify", "exhaustive-rum", warp_path, "--eps", "1", "--max-tag", "1"],
    )
    assert (code, report["verdict"]) == (1, "violated")
    code, report = _capture_json(
        capsys,
        ["verify", "exhaustive-rum", warp_path, "--eps", "2", "--max-tag", "1"],
    )
    assert (code, report["verdict"]) == (0, "holds")


def test_text_format_headline(capsys, pool_path):
    code, out = _capture(
        capsys, ["--format", "text", "pool", "min-eps", pool_path]
    )
    assert code == 0
    assert out.splitlines()[0] == "P = Q_m + e, ‖e‖₁ = 2/3"
    assert "epsilon_min: 2/3" in out


def test_decimal_input_is_exact(capsys, tmp_path):
    doc = {
        "kind": "pooling",
        "space": {"labels": ["a", "b", "c"]},
        "P": [0.4, 0.35, 0.25],
        "Q": [["0.4", "0.35", "0.25"]],
    }
    path = tmp_path / "dec.json"
    path.write_text(json.dumps(doc))
    code, report = _capture_json(capsys, ["pool", "min-eps", str(path)])
    # 0.4 read as the literal decimal 2/5, not the nearest double
    assert (code, report["epsilon_min"]) == (0, "0")


def test_input_errors_name_the_problem(capsys, tmp_path):
    bad = {
        "kind": "rum",
        "alternatives": ["1", "2"],
        "choice": {
            "1|1": "1",
            "2|2": "1",
            "1|1,2": "1/2",
            "2|1,2": "2/5",
        },
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, report = _capture_json(capsys, ["rum", "min-eps", str(path)])
    assert code == 2
    assert "sum" in report["error"]
    code, report = _capture_json(capsys, ["distance", str(tmp_path / "no.json")])
    assert code == 2
    code, report = _capture_json(capsys, ["distance", str(path)])
    assert code == 2
    assert "credal" in report["error"]


def test_cap_exit_code(capsys, tmp_path):
    alts = [str(i) for i in range(8)]
    menus = enumerate_menus(tuple(alts))
    choice = {
        f"{y}|{','.join(menu)}": f"1/{len(menu)}"
        for menu in menus
        for y in menu
    }
    doc = {"kind": "rum", "alternatives": alts, "choice": choice}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, report = _capture_json(capsys, ["rum", "min-eps", str(path)])
    assert code == 3
    assert "cap" in report["error"] or "8" in report["error"]


def test_internal_check_failure_exit_code(capsys, monkeypatch, credal_path):
    import nrb.simplex

    def failing_audit(lp, sol):
        raise InternalCheckError("simulated audit failure")

    monkeypatch.setattr(nrb.simplex, "verify_optimal", failing_audit)
    code, report = _capture_json(capsys, ["distance", credal_path])
    assert code == EXIT_INTERNAL == 4
    assert report["error"] == "simulated audit failure"
    assert "value" not in report


def test_stdin_instance(capsys, monkeypatch):
    import io

    monkeypatch.setattr(
        "sys.stdin", io.StringIO(json.dumps(NIELSEN_CREDAL))
    )
    code, report = _capture_json(capsys, ["distance", "-"])
    assert (code, report["value"]) == (0, "2/3")
    assert report["instance"] == "-"


def test_batch_merges_and_takes_worst_exit(capsys, tmp_path, credal_path):
    missing = str(tmp_path / "gone.json")
    listfile = tmp_path / "batch.txt"
    listfile.write_text(
        f"# two instances, one broken\n{credal_path}\n\n{missing}\n"
    )
    code, reports = _capture_json(
        capsys, ["--batch", str(listfile), "distance"]
    )
    assert code == 2
    assert isinstance(reports, list) and len(reports) == 2
    assert reports[0]["value"] == "2/3"
    assert "error" in reports[1]


def test_reports_are_deterministic(capsys, credal_path):
    _, first = _capture_json(capsys, ["distance", credal_path])
    _, second = _capture_json(capsys, ["distance", credal_path])
    first.pop("timing_ms")
    second.pop("timing_ms")
    assert first == second


def test_rum_instance_round_trips_through_json(capsys, tmp_path, skewed_triples):
    doc = _rum_doc(skewed_triples)
    rebuilt = RumInstance(
        alternatives=tuple(doc["alternatives"]),
        choice={
            (k.split("|")[0], tuple(k.split("|")[1].split(","))): v
            for k, v in doc["choice"].items()
        },
    )
    assert rebuilt == skewed_triples


def test_each_command_solves_and_builds_once(
    capsys, monkeypatch, tmp_path, skewed_triples, pool_path
):
    """The CLI reuses the report, matrix and stakes the library already
    computed: one LP solve and one choice matrix per command."""
    import nrb.cli, nrb.duality, nrb.measures, nrb.oracle, nrb.pooling, nrb.rum

    counts = {"solve_lp": 0, "build_matrix": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for mod in (
        nrb.measures, nrb.duality, nrb.pooling, nrb.rum, nrb.oracle, nrb.cli
    ):
        for name in counts:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    sk_path = tmp_path / "sk.json"
    sk_path.write_text(json.dumps(_rum_doc(skewed_triples)))
    cases = (
        (["rum", "check", "--eps", "1", str(sk_path)], 0, 1, 1),
        (["rum", "check", "--eps", "1/20", str(sk_path)], 1, 1, 1),
        (["rum", "check", "--star", "--eps", "1/50", str(sk_path)], 1, 1, 1),
        (["pool", "check", "--condition", "c", "--eps", "2/3", pool_path], 0, 1, 0),
    )
    for argv, exit_code, solves, builds in cases:
        counts.update(solve_lp=0, build_matrix=0)
        code, _ = _capture(capsys, argv)
        assert code == exit_code, argv
        assert counts == {"solve_lp": solves, "build_matrix": builds}, argv


def test_console_entry_point(credal_path):
    proc = subprocess.run(
        [sys.executable, "-m", "nrb.cli", "distance", credal_path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == "2/3"
