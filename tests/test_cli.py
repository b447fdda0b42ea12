"""Command-line front end: exit codes, report shape, rendering."""

import contextlib
import copy
import dataclasses
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrb import (
    InputError,
    InternalCheckError,
    RumInstance,
    RumReport,
    bm_polynomials,
    enumerate_menus,
    instance_from_mixture,
)
from nrb import cli, rum
from nrb.cli import EXIT_INTERNAL, EXIT_VIOLATED, main
from tests.conftest import _warp_cycle_instance, random_rum

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
    for argv, message in (
        (["verify", "grid-gap", credal_path], "grid-gap needs --resolution"),
        (["verify", "exhaustive-rum", warp_path, "--max-tag", "1"],
         "exhaustive-rum needs --eps and --max-tag"),
    ):
        code, report = _capture_json(capsys, argv)
        assert (code, report["error"]) == (2, message)


def test_text_format_headline(capsys, pool_path, warp_path):
    code, out = _capture(
        capsys, ["--format", "text", "pool", "min-eps", pool_path]
    )
    assert code == 0
    assert out.splitlines()[0] == "P = Q_m + e, ‖e‖₁ = 2/3"
    assert "epsilon_min: 2/3" in out
    for argv, head in (
        (["rum", "min-eps", warp_path], "P0 = A pi + e, ‖e‖₁ = 2"),
        (["rum", "min-eps", "--residual", warp_path],
         "P0 = (1 - eps) A pi + eps R0, eps = 1"),
        (["pool", "min-eps", "--normalized", pool_path],
         "P = sum m_i Q_i + e, ‖e‖₁ = 2/3"),
    ):
        code, out = _capture(capsys, ["--format", "text", *argv])
        assert (code, out.splitlines()[0]) == (0, head)


@pytest.mark.parametrize("raw, message", [
    ("abc", "NRB_MAX_ALTERNATIVES must be an integer, got 'abc'"),
    ("0", "NRB_MAX_ALTERNATIVES must be positive"),
])
def test_bad_alternative_cap_is_an_input_error(
    capsys, monkeypatch, warp_path, raw, message
):
    monkeypatch.setenv("NRB_MAX_ALTERNATIVES", raw)
    code, report = _capture_json(capsys, ["rum", "min-eps", warp_path])
    assert (code, report["error"]) == (2, message)


def test_batch_with_an_instance_argument_is_an_input_error(
    capsys, tmp_path, credal_path
):
    listfile = tmp_path / "batch.txt"
    listfile.write_text(f"{credal_path}\n")
    code = main(["--batch", str(listfile), "distance", credal_path])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "--batch replaces the instance argument\n"


def test_short_table_over_many_alternatives_exits_3_at_once():
    """A one-key document over 25 alternatives is refused (exit 3) in
    well under a second, with a short error and nothing on stderr: their
    2^25 menus are never laid out."""
    doc = {"kind": "rum", "alternatives": [f"x{i}" for i in range(25)],
           "choice": {"x0|x0": "1"}}
    src = Path(__file__).resolve().parents[1] / "src"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "nrb.cli", "rum", "bm", "-"],
        input=json.dumps(doc), capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert time.perf_counter() - start < 1
    assert (proc.returncode, proc.stderr) == (3, "")
    error = json.loads(proc.stdout)["error"]
    assert "1 of 419430400 entries" in error and len(error) < 200


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


def test_rum_keys_with_repeated_menus_parse_and_fail_in_key_order():
    """Menu strings repeat across keys (and spell one menu in several
    ways); a bad key after good ones reports that key, in key order."""
    good = {
        "1|1": "1", "2|2": "1", "3|3": "1",
        "1|1,2": "1/2", "2|1,2": "1/2",
        "1|1,3": "1/3", "3|1,3": "2/3",
        "2|2,3": "1", "3|2,3": "0",
        "1|1,2,3": "1/4", "2|,1,2,3,": "1/4", "3|1,2,3": "1/2",
    }
    doc = {"kind": "rum", "alternatives": ["1", "2", "3"], "choice": good}
    inst = cli._parse_rum(doc)
    assert inst.choice[("2", ("1", "2", "3"))] == F(1, 4)
    assert len(inst.choice) == 12
    cases = [
        ({"1|1,2": "1", "2|1,2": "0", "12": "0"},
         "choice key '12' lacks the 'y|menu' separator"),
        ({"1|1,2": "1", "2|1,2": "0", "2|,": "0"},
         "choice key '2|,' names an empty menu"),
        ({"1|1,2": "1", "2|1,2": "0", "1|1,,2": "0"},
         "duplicate choice key '1|1,,2'"),
        ({"1|1,2": "1", "1|,1,2": "0", "2|1,2": "0"},
         "duplicate choice key '1|,1,2'"),
        ({"1|1,,2": "1", "1|1,2": "1", "2|,": "0"},
         "duplicate choice key '1|1,2'"),
    ]
    for choice, message in cases:
        doc = {"kind": "rum", "alternatives": ["1", "2"], "choice": choice}
        with pytest.raises(InputError) as info:
            cli._parse_rum(doc)
        assert str(info.value) == message


def test_canonical_documents_reach_the_constructor_by_position(monkeypatch):
    """A document keyed by the layout's keys in ``pairs()`` order reaches
    ``RumInstance`` with no key-by-key read; the same document with its
    keys shuffled is read key by key, to the same instance."""
    base = random_rum(random.Random(6), 4)
    alts = base.alternatives
    keys = rum._layout(alts).keys
    items = [(key, str(p)) for key, p in zip(keys, base.choice.values())]
    doc = {"kind": "rum", "alternatives": list(alts), "choice": dict(items)}
    reader, seen = rum._read_keys, []

    def refuse(*args):
        raise AssertionError("a canonical document was read key by key")

    monkeypatch.setattr(rum, "_read_keys", refuse)
    assert cli._parse_rum(doc) == base

    def counted(*args):
        seen.append(args[0].alternatives)
        return reader(*args)

    monkeypatch.setattr(rum, "_read_keys", counted)
    random.Random(1).shuffle(items)
    doc["choice"] = dict(items)
    assert cli._parse_rum(doc) == base and seen == [alts]


def _split_parse_rum(doc: dict) -> RumInstance:
    """The RUM parser as it was before the shared layout's key map: every
    key split at its first ``|`` and its menu at each ``,``."""
    table = {}
    for key, value in doc["choice"].items():
        if "|" not in key:
            raise InputError(f"choice key {key!r} lacks the 'y|menu' separator")
        y, menu_part = key.split("|", 1)
        menu = tuple(filter(None, menu_part.split(",")))
        if not menu:
            raise InputError(f"choice key {key!r} names an empty menu")
        if (y, menu) in table:
            raise InputError(f"duplicate choice key {key!r}")
        table[(y, menu)] = value
    return RumInstance(alternatives=tuple(doc["alternatives"]), choice=table)


def _parse_outcome(parse, doc):
    """The parsed table with its key order, or the InputError message."""
    try:
        inst = parse(doc)
    except InputError as exc:
        return str(exc)
    return list(inst.choice.items())


def _spelled_table(alternatives, spell):
    """Every pair of the full domain, each share 1/k on a menu of k,
    keyed as *spell(y, menu)* writes it."""
    return {
        spell(y, menu): str(F(1, len(menu)))
        for menu in enumerate_menus(alternatives)
        for y in menu
    }


def _canonical(y, menu):
    return f"{y}|{','.join(menu)}"


# documents whose keys the layout's map must not read, or must read as
# the split does: alternatives holding the separators or empty, respelled
# menus, and keys that name one pair twice
_KEY_DOCUMENTS = {
    "bar in an alternative": (["a|b", "c"], _canonical),
    "comma in an alternative": (["a,b", "c"], _canonical),
    "lone comma": ([",", "c"], _canonical),
    "empty alternative": (["", "c"], _canonical),
    "bar and comma spelled as other pairs": (
        ["a", "b", "a|a", "a,b"], _canonical
    ),
    "reversed menus": (["a", "b", "c"], lambda y, m: _canonical(y, m[::-1])),
    "padded menus": (["a", "b"], lambda y, m: f"{y}|,{','.join(m)},"),
    "non-ASCII and spaces": (["é", "b c", " "], _canonical),
    "repeated alternatives": (["a", "a"], _canonical),
}


@pytest.mark.parametrize("name", sorted(_KEY_DOCUMENTS))
def test_rum_keys_parse_as_split_keys_do(capsys, tmp_path, name):
    """Each document parses to the same table in the same key order, or
    fails with the same message, as when every key is split; a table
    that parses reports the same Block-Marschak map, keyed as before."""
    alternatives, spell = _KEY_DOCUMENTS[name]
    choice = _spelled_table(alternatives, spell)
    # one pair also under a padded spelling, in place of the last key, so
    # that the table still has as many keys as the layout has pairs
    menu = next(m for m in enumerate_menus(alternatives) if len(m) > 1)
    twice = dict(choice)
    twice.popitem()
    twice[f"{menu[0]}|{','.join(menu)},"] = "0"
    for choice in (choice, twice):
        doc = {"kind": "rum", "alternatives": alternatives, "choice": choice}
        expected = _parse_outcome(_split_parse_rum, doc)
        assert _parse_outcome(cli._parse_rum, doc) == expected, choice
        if isinstance(expected, str):
            continue
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, report = _capture_json(capsys, ["rum", "bm", str(path)])
        bm = bm_polynomials(_split_parse_rum(doc))
        assert code == 0
        assert list(report["representation"]["bm"].items()) == [
            (_canonical(y, m), str(v)) for (y, m), v in bm.items()
        ]


@settings(max_examples=200, deadline=None)
@given(
    alternatives=st.lists(
        st.sampled_from(("a", "b", "c", "", "|", ",", "a|b", "b,c", "é")),
        min_size=1, max_size=3,
    ),
    data=st.data(),
)
def test_drawn_rum_keys_parse_as_split_keys_do(alternatives, data):
    """Drawn alternatives, separators among them, under keys spelled
    canonically or with the menu reversed or padded by commas, some
    dropped or added twice: the parse matches the split one, table or
    message."""
    spellings = (
        _canonical,
        lambda y, m: _canonical(y, m[::-1]),
        lambda y, m: f"{y}|{','.join(m)},",
        lambda y, m: f"{y}|,{','.join(m)}",
    )
    choice = {}
    for menu in enumerate_menus(alternatives):
        for y in menu:
            for _ in range(data.draw(st.sampled_from((1, 1, 1, 0, 2)))):
                spell = data.draw(st.sampled_from(spellings))
                choice[spell(y, menu)] = str(F(1, len(menu)))
    doc = {"kind": "rum", "alternatives": alternatives, "choice": choice}
    assert _parse_outcome(cli._parse_rum, doc) == _parse_outcome(
        _split_parse_rum, doc
    )


_DOCUMENT_FAULTS = (
    None, "negative", "sum", "float", "list", "reversed", "padded", "drop",
    "no-bar", "unknown", "twice",
)


@st.composite
def _documents_in_pairs_order(draw):
    """A full-domain RUM document keyed as the layout spells its pairs,
    in ``pairs()`` order, values spelled several ways, with at most one
    fault: a value negative, off its menu's sum, a float or a list; or
    one key, in its place, spelled with its menu reversed or padded,
    dropped, without its separator, naming an unknown alternative, or
    naming an earlier key's pair."""
    n = draw(st.integers(1, 4))
    alts = list(draw(st.permutations(("a", "b", "c", "d")))[:n])
    entries = []
    for menu in enumerate_menus(alts):
        denom = draw(st.sampled_from((1, 2, 3, 5, 12, 20)))
        cuts = sorted(
            draw(st.integers(0, denom)) for _ in range(len(menu) - 1)
        )
        parts = [b - a for a, b in zip([0] + cuts, cuts + [denom])]
        for y, part in zip(menu, parts):
            p = F(part, denom)
            value = draw(st.sampled_from(
                (str(p), f" {p} ", f"{2 * p.numerator}/{2 * p.denominator}")
            ))
            entries.append([(y, menu), _canonical(y, menu), value])
    fault = draw(st.sampled_from(_DOCUMENT_FAULTS))
    i = draw(st.integers(0, len(entries) - 1))
    (y, menu), _, value = entries[i]
    if fault == "negative":
        entries[i][2] = draw(st.sampled_from(("-1/3", "-0.5", "-1")))
    elif fault == "sum":
        entries[i][2] = str(F(value.strip()) + F(1, 7))
    elif fault == "float":
        entries[i][2] = float(F(value.strip()))
    elif fault == "list":
        entries[i][2] = [value]
    elif fault == "reversed":
        entries[i][1] = _canonical(y, menu[::-1])
    elif fault == "padded":
        entries[i][1] = f"{y}|{','.join(menu)},"
    elif fault == "drop":
        del entries[i]
    elif fault == "no-bar":
        entries[i][1] = y + ",".join(menu)
    elif fault == "unknown":
        entries[i][1] = _canonical("z", menu)
    elif fault == "twice" and i > 0:
        (y, menu), _, _ = entries[draw(st.integers(0, i - 1))]
        entries[i][1] = f"{y}|,{','.join(menu)}"
    choice = {key: value for _, key, value in entries}
    return {"kind": "rum", "alternatives": alts, "choice": choice}


@settings(max_examples=400, deadline=None)
@given(_documents_in_pairs_order())
def test_documents_in_pairs_order_parse_as_split_keys_do(doc):
    """Documents keyed canonically in ``pairs()`` order, which the parser
    hands to the constructor keyed by the layout's pairs, and the same
    documents with one fault: the parse matches the split one, table or
    message."""
    assert _parse_outcome(cli._parse_rum, doc) == _parse_outcome(
        _split_parse_rum, doc
    )


_HUGE = 10**2500  # 1/(_HUGE + 1) + 1/(_HUGE + 3) has a 5001-digit denominator


@pytest.mark.parametrize("argv, doc", [
    (["rum", "bm"], {
        "kind": "rum", "alternatives": ["x", "y"],
        "choice": {"x|x": "1", "y|y": "1", "x|x,y": f"1/{_HUGE + 1}",
                   "y|x,y": f"1/{_HUGE + 3}"},
    }),
    (["distance"], {
        "kind": "credal", "space": {"labels": ["a", "b"]},
        "P_set": [[f"1/{_HUGE + 1}", f"1/{_HUGE + 3}"]],
        "Q_set": [["1/2", "1/2"]],
    }),
])
def test_sums_past_the_digit_limit_are_input_errors(capsys, tmp_path, argv, doc):
    """A menu sum or a probability vector's sum that ``str()`` cannot
    print is bad input (exit 2), named by its digit counts."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, report = _capture_json(capsys, [*argv, str(path)])
    assert code == 2
    assert report["error"].endswith(
        "sum to a fraction of 2501 digits over 5001 digits"
        if argv == ["rum", "bm"] else
        "sum to 1, got a fraction of 2501 digits over 5001 digits"
    )


@pytest.mark.parametrize("argv, value", [
    (["rum", "bm"], "a fraction of 5001 digits over 5001 digits"),
    (["rum", "min-eps"], "a fraction of 1 digits over 5001 digits"),
    (["rum", "min-eps", "--residual"],
     "a fraction of 1 digits over 5001 digits"),
], ids=["bm", "min-eps", "residual"])
def test_answers_past_the_digit_limit_are_refused(
    capsys, tmp_path, default_digit_limit, argv, value
):
    """A valid table whose exact answer ``str()`` cannot print, here
    with Block-Marschak sums and program values over a 5001-digit
    denominator, is refused with exit 3, named by its digit counts."""
    a, b = F(1, _HUGE + 1), F(1, _HUGE + 3)
    choice = {
        "x|x": "1", "y|y": "1", "z|z": "1",
        "x|x,y": str(a), "y|x,y": str(1 - a),
        "x|x,z": "1/2", "z|x,z": "1/2", "y|y,z": "1/2", "z|y,z": "1/2",
        "x|x,y,z": str(b), "y|x,y,z": str(1 - b), "z|x,y,z": "0",
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(
        {"kind": "rum", "alternatives": ["x", "y", "z"], "choice": choice}
    ))
    code = main([*argv, str(path)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (3, "")
    assert json.loads(captured.out)["error"] == (
        f"cannot print {value}: past the limit of 4300 digits for "
        "int-string conversion"
    )


def test_mixture_past_the_cap_renders_from_its_keys(monkeypatch):
    """The report's sparse mixture is rendered from its own keys, with no
    enumeration of the orderings, so an 8-alternative report prints under
    the default cap of 7."""
    alts = tuple("abcdefgh")
    mixture = {0: "abcdefgh", 20000: "dhfebcag", 40319: "hgfedcba"}
    weights = dict(zip(mixture, (F(1, 2), F(1, 3), F(1, 6))))
    monkeypatch.setenv("NRB_MAX_ALTERNATIVES", "8")
    orderings = list(itertools.permutations(alts))
    assert all(orderings[j] == tuple(o) for j, o in mixture.items())
    inst = instance_from_mixture(
        alts, [weights.get(j, F(0)) for j in range(len(orderings))]
    )
    report = RumReport(
        kind="additive", epsilon_min=F(0),
        pi={tuple(mixture[j]): v for j, v in weights.items()},
        error=(F(0),) * len(inst.pairs()),
    )
    monkeypatch.delenv("NRB_MAX_ALTERNATIVES")
    assert cli._rum_representation(inst, report) == {
        "kind": "additive",
        "pi": {
            "a,b,c,d,e,f,g,h": "1/2",
            "d,h,f,e,b,c,a,g": "1/3",
            "h,g,f,e,d,c,b,a": "1/6",
        },
        "error": {},
    }


def test_rum_parse_reads_the_layout_only_for_a_full_sized_table(monkeypatch):
    """A table with fewer keys than its alternatives have pairs is split
    key by key, so a short document over 40 alternatives is refused
    without laying out their 2^40 menus."""
    seen = []
    monkeypatch.setattr(cli, "_layout", lambda alts: seen.append(alts))
    alternatives = [f"x{i}" for i in range(40)]
    doc = {"kind": "rum", "alternatives": alternatives, "choice": {"x0": "1"}}
    with pytest.raises(InputError, match=r"lacks the 'y\|menu' separator"):
        cli._parse_rum(doc)
    assert seen == []


_json_strings = st.text() | st.sampled_from(
    ('"', "\\", '\\"', "\x00", "\x1f", "\x7f", "\n\t\r\b\f", "  ", "é",
     "‖e‖₁", "\U0001f600", "", " ")
)
_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | _json_strings
)


@settings(max_examples=300, deadline=None)
@given(
    value=st.recursive(
        _json_scalars,
        lambda inner: st.lists(inner, max_size=5)
        | st.dictionaries(_json_strings, inner, max_size=5),
        max_leaves=30,
    )
)
def test_report_emitter_writes_json_dumps_bytes(value):
    assert cli._json_text(value) == json.dumps(
        value, indent=2, ensure_ascii=False
    )


def test_report_emitter_on_empty_containers():
    for value in ({}, [], {"a": {}}, {"a": []}, [[], {}], [[[]]]):
        assert cli._json_text(value) == json.dumps(
            value, indent=2, ensure_ascii=False
        )


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


def test_event_pair_audit_catches_a_corrupted_scan(
    capsys, monkeypatch, pool_path
):
    """The CM pair is re-verified in the library, so a wrong pair exits
    4 whether the condition is violated (eps 0) or holds (eps 1/3)."""
    import nrb.pooling

    scan = nrb.pooling._cm_scan

    def swapped(p_ev, q_ev):
        best, m1, m2 = scan(p_ev, q_ev)
        return best, m2, m1

    monkeypatch.setattr(nrb.pooling, "_cm_scan", swapped)
    for eps in ("0", "1/3"):
        code, report = _capture_json(
            capsys,
            ["pool", "check", "--condition", "cm", "--eps", eps, pool_path],
        )
        assert code == EXIT_INTERNAL == 4
        assert "re-verification" in report["error"]


def test_envelope_audit_catches_a_corrupted_table(
    capsys, monkeypatch, pool_path
):
    """Moving one unit of planner mass onto {1} and off its complement
    keeps the two envelope thresholds equal, so only the re-verification
    of the returned event can catch it."""
    import nrb.pooling

    table = nrb.pooling._event_table

    def shifted(planner, opinions):
        d, p_ev, q_ev = table(planner, opinions)
        p_ev = list(p_ev)
        p_ev[1] += d
        p_ev[-2] -= d
        return d, p_ev, q_ev

    monkeypatch.setattr(nrb.pooling, "_event_table", shifted)
    for eps in ("0", "2"):
        code, report = _capture_json(
            capsys,
            ["pool", "check", "--condition", "minmax", "--eps", eps, pool_path],
        )
        assert code == EXIT_INTERNAL == 4
        assert "re-verification" in report["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["pool", "min-eps", "--genest"],
        ["pool", "check", "--condition", "cstar", "--eps", "1/3"],
    ],
)
def test_genest_residual_fault_exits_4(capsys, monkeypatch, pool_path, argv):
    """A corrupted Genest solve (first opinion weight + 1/3) leaves a
    negative residual entry: an internal fault (exit 4), not bad input."""
    import nrb.pooling

    solve = nrb.pooling.solve_lp

    def corrupted(lp):
        sol = solve(lp)
        primal = (sol.primal[0] + F(1, 3),) + sol.primal[1:]
        return dataclasses.replace(sol, primal=primal)

    monkeypatch.setattr(nrb.pooling, "solve_lp", corrupted)
    code, report = _capture_json(capsys, argv + [pool_path])
    assert code == EXIT_INTERNAL == 4
    assert report["error"] == "residual has a negative entry"


def test_non_json_instance_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "credal",')
    code, report = _capture_json(capsys, ["distance", str(path)])
    assert code == 2
    assert report["error"].startswith(f"{path} is not valid JSON: ")


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


def _skewed_rum_doc(alternatives, favored):
    """Each menu's member at position *favored* (mod its size) gets
    2/(k+1), the others 1/(k+1), on a menu of k."""
    choice = {}
    for menu in enumerate_menus(alternatives):
        k = len(menu)
        for i, y in enumerate(menu):
            share = F(2 if i == favored % k else 1, k + 1)
            choice[f"{y}|{','.join(menu)}"] = str(share)
    return {"kind": "rum", "alternatives": alternatives, "choice": choice}


@pytest.mark.parametrize("command", [["rum", "min-eps"], ["rum", "bm"]])
def test_batch_rum_reports_match_single_runs(capsys, tmp_path, command):
    """Two tables over the same alternatives and one over them reordered
    report in a batch as they do alone, but for command and timing."""
    paths = []
    for name, alts, favored in (
        ("first", ["a", "b", "c"], 0),
        ("second", ["a", "b", "c"], 1),
        ("reordered", ["c", "a", "b"], 1),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(_skewed_rum_doc(alts, favored)))
        paths.append(str(path))
    listfile = tmp_path / "batch.txt"
    listfile.write_text("\n".join(paths) + "\n")
    code, batch = _capture_json(capsys, ["--batch", str(listfile), *command])
    assert code == 0 and len(batch) == len(paths)
    shown = {json.dumps(r["representation"]) for r in batch}
    for report, path in zip(batch, paths):
        code, single = _capture_json(capsys, [*command, path])
        assert code == 0
        for r in (report, single):
            del r["timing_ms"], r["command"]
        assert report == single
    assert len(shown) == len(paths)


def test_oversized_integer_is_an_input_error(capsys, tmp_path, credal_path):
    """An integer past the interpreter's digit limit is refused as bad
    input (exit 2 with an error field), alone and inside a batch."""
    text = json.dumps(NIELSEN_CREDAL)
    huge = tmp_path / "huge.json"
    big = "1" + "0" * 5000
    huge.write_text(text.replace('"1/3", "1/3", "1/3"', big + ", 0, 0"))
    code, report = _capture_json(capsys, ["distance", str(huge)])
    assert code == 2
    assert "error" in report and "value" not in report
    listfile = tmp_path / "batch.txt"
    listfile.write_text(f"{huge}\n{credal_path}\n")
    code, reports = _capture_json(
        capsys, ["--batch", str(listfile), "distance"]
    )
    assert code == 2
    assert "error" in reports[0]
    assert reports[1]["value"] == "2/3"


def test_deeply_nested_document_is_an_input_error(capsys, tmp_path):
    """JSON nested past the decoder's recursion limit is bad input: exit
    2 with an error field, not a traceback."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, report = _capture_json(capsys, ["distance", str(deep)])
    assert code == 2
    assert "nested too deeply" in report["error"]
    assert capsys.readouterr().err == ""


def test_unexpected_exception_exits_4(capsys, monkeypatch, credal_path):
    import nrb.cli

    def crash(p_set, q_set):
        raise RuntimeError("simulated crash")

    monkeypatch.setattr(nrb.cli, "min_set_distance", crash)
    code, report = _capture_json(capsys, ["distance", credal_path])
    assert code == EXIT_INTERNAL == 4
    assert report["error"] == "unexpected RuntimeError: simulated crash"
    assert "value" not in report


def test_batch_continues_after_a_crash(
    capsys, monkeypatch, tmp_path, credal_path
):
    """A crash on one path is that path's exit 4; the batch goes on to
    the next path and the worst code is 4."""
    import nrb.cli

    real = nrb.cli.min_set_distance
    calls = []

    def crash_once(p_set, q_set):
        calls.append(None)
        if len(calls) == 1:
            raise RuntimeError("simulated crash")
        return real(p_set, q_set)

    monkeypatch.setattr(nrb.cli, "min_set_distance", crash_once)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    listfile = tmp_path / "batch.txt"
    listfile.write_text(f"{credal_path}\n{deep}\n{credal_path}\n")
    code, reports = _capture_json(
        capsys, ["--batch", str(listfile), "distance"]
    )
    assert code == 4
    assert [r.get("value") for r in reports] == [None, None, "2/3"]
    assert "RuntimeError" in reports[0]["error"]
    assert "nested too deeply" in reports[1]["error"]



def test_undecodable_batch_list_is_an_input_error(capsys, tmp_path):
    listfile = tmp_path / "batch.txt"
    listfile.write_bytes(b"\xff\xfe\n")
    assert main(["--batch", str(listfile), "distance"]) == 2
    assert "cannot read batch list" in capsys.readouterr().err


def test_reports_are_deterministic(capsys, credal_path):
    _, first = _capture_json(capsys, ["distance", credal_path])
    _, second = _capture_json(capsys, ["distance", credal_path])
    first.pop("timing_ms")
    second.pop("timing_ms")
    assert first == second


def test_cached_parser_carries_nothing_between_calls(
    capsys, pool_path, warp_path
):
    """``main`` keeps one argument tree per process.  Runs with different
    flags print what the same runs print on a freshly built tree, so no
    parsed value carries over from one call to the next."""
    from tests.golden import _TIMING_LINE  # golden imports this module

    runs = (
        ["--format", "text", "pool", "min-eps", "--genest", pool_path],
        ["pool", "min-eps", pool_path],
        ["rum", "bm", warp_path],
    )

    def outputs(fresh):
        out = []
        for argv in runs:
            if fresh:
                cli._build_parser.cache_clear()
            code, text = _capture(capsys, argv)
            out.append((code, _TIMING_LINE.sub("", text)))
        return out

    cached = outputs(fresh=False)
    assert cli._build_parser() is cli._build_parser()
    assert outputs(fresh=True) == cached
    assert "genest" in cached[0][1] and "genest" not in cached[1][1]
    assert cached[1][1].startswith("{")  # nor did --format text


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
        (["rum", "min-eps", str(sk_path)], 0, 1, 1),
        (["rum", "min-eps", "--residual", str(sk_path)], 0, 1, 1),
        (["rum", "check", "--eps", "1", str(sk_path)], 0, 1, 1),
        (["rum", "check", "--eps", "1/20", str(sk_path)], 1, 1, 1),
        (["rum", "check", "--star", "--eps", "1/50", str(sk_path)], 1, 1, 1),
        (["rum", "check", "--star", "--eps", "1/40", str(sk_path)], 0, 1, 1),
        (["pool", "check", "--condition", "c", "--eps", "2/3", pool_path], 0, 1, 0),
        (["pool", "check", "--condition", "c", "--eps", "1/3", pool_path], 1, 1, 0),
        (["pool", "check", "--condition", "cstar", "--eps", "1/3", pool_path], 0, 1, 0),
        (["pool", "check", "--condition", "cstar", "--eps", "1/4", pool_path], 1, 1, 0),
    )
    for argv, exit_code, solves, builds in cases:
        counts.update(solve_lp=0, build_matrix=0)
        code, _ = _capture(capsys, argv)
        assert code == exit_code, argv
        assert counts == {"solve_lp": solves, "build_matrix": builds}, argv


@pytest.mark.parametrize("argv, name, calls", [
    (["rum", "check", "--eps", "3/2", "warp_path"], "_best_ordering_total", 1),
    (["rum", "check", "--star", "--eps", "1/2", "warp_path"],
     "_best_ordering_total", 1),
    (["pool", "check", "--condition", "c", "--eps", "1/3", "pool_path"],
     "expectation", 8),
    (["pool", "check", "--condition", "cstar", "--eps", "1/4", "pool_path"],
     "expectation", 8),
    (["gordan", "--eps", "1/2", "credal_path"], "member_gap", 0),
])
def test_violated_checks_verify_their_certificates_once(
    capsys, monkeypatch, request, argv, name, calls
):
    """Each violated check verifies its certificate where the library
    makes it, and the CLI prints what was verified: one best-ordering DP
    per tag certificate, the 8 expectations that build the Nielsen
    Pareto witness (one per expert for the floor, two per expert for the
    margins, two for the planner), and no member gap for a separation,
    whose gap the L1 fit has already audited."""
    import nrb.cli, nrb.duality, nrb.measures, nrb.pooling

    home = {"_best_ordering_total": rum, "expectation": nrb.measures,
            "member_gap": nrb.duality}[name]
    original, count = getattr(home, name), 0

    def counted(*args, **kwargs):
        nonlocal count
        count += 1
        return original(*args, **kwargs)

    for mod in (nrb.measures, nrb.duality, nrb.pooling, rum, nrb.cli):
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    argv = [request.getfixturevalue(a) if a.endswith("_path") else a
            for a in argv]
    code, _ = _capture(capsys, argv)
    assert (code, count) == (EXIT_VIOLATED, calls)


def _pair(key: str) -> tuple[str, frozenset]:
    y, menu = key.split("|", 1)
    return y, frozenset(menu.split(","))


def _reverify_tags(doc: dict, cert: dict, eps: F, star: bool) -> None:
    """A printed tag certificate against the instance document alone:
    the observed total, the best single ordering found by trying every
    permutation, the right-hand side of its condition and the width."""
    probs = {_pair(k): F(v) for k, v in doc["choice"].items()}
    tags = {_pair(k): t for k, t in cert["tags"].items()}
    assert all(type(t) is int and t > 0 for t in tags.values())
    assert set(tags) <= set(probs)
    t = {pair: tags.get(pair, 0) for pair in probs}
    lhs = sum(p * t[pair] for pair, p in probs.items())
    best = max(
        sum(
            tag for (y, menu), tag in t.items()
            if next(a for a in order if a in menu) == y
        )
        for order in itertools.permutations(doc["alternatives"])
    )
    if star:
        n_menus = 2 ** len(doc["alternatives"]) - 1
        rhs = (1 - eps) * best + n_menus * eps * max(t.values())
    else:
        rhs = best + (max(t.values()) - min(t.values())) * eps / 2
    assert cert["width"] == max(t.values()) - min(t.values())
    assert (F(cert["lhs"]), F(cert["rhs"])) == (lhs, rhs)
    assert lhs > rhs
    assert cert["verified"] is True


def _dot(f, p) -> F:
    return sum(a * b for a, b in zip(f, p))


def _reverify_pareto(doc: dict, cert: dict, eps: F, star: bool) -> None:
    """A printed Pareto witness against the pooling document alone: the
    experts' margins, the condition's penalty and the planner's
    violation."""
    f, g = [F(v) for v in cert["f"]], [F(v) for v in cert["g"]]
    planner = [F(v) for v in doc["P"]]
    experts = [[F(v) for v in q] for q in doc["Q"]]
    margins = [_dot(f, q) - _dot(g, q) for q in experts]
    assert [F(m) for m in cert["premise_margins"]] == margins
    assert all(m >= 0 for m in margins)
    h = [a - b for a, b in zip(f, g)]
    osc = max(h) - min(h)
    penalty = osc - max(h) if star else osc / 2
    violation = _dot(g, planner) - eps * penalty - _dot(f, planner)
    assert F(cert["violation"]) == violation
    assert violation > 0
    assert cert["verified"] is True


def _reverify_gap(doc: dict, report: dict, eps: F) -> None:
    """A printed separation against the credal document alone: unit
    stakes whose worst payoff over P beats their best over Q by the
    printed gap, which exceeds the tolerance."""
    cert = report["certificate"]
    f = [F(v) for v in cert["stakes"]]
    assert max(map(abs, f)) <= 1
    lo = min(_dot(f, [F(v) for v in p]) for p in doc["P_set"])
    hi = max(_dot(f, [F(v) for v in q]) for q in doc["Q_set"])
    assert F(cert["gap"]) == F(report["value"]) == lo - hi
    assert lo - hi > eps
    assert cert["verified"] is True


def _reverify_report(doc: dict, argv: list[str], report: dict) -> None:
    """Dispatch a violated report to the check of its certificate."""
    eps = F(argv[argv.index("--eps") + 1])
    if argv[0] == "gordan":
        _reverify_gap(doc, report, eps)
    elif argv[0] == "pool":
        star = argv[argv.index("--condition") + 1] == "cstar"
        _reverify_pareto(doc, report["certificate"], eps, star)
    else:
        _reverify_tags(doc, report["certificate"], eps, "--star" in argv)


def _certified(argv) -> bool:
    """Whether *argv* is a command whose violation the CLI certifies."""
    return (
        argv[0] == "gordan"
        or argv[:2] in (["rum", "check"], ["verify", "exhaustive-rum"])
        or argv[:2] == ["pool", "check"] and argv[3] in ("c", "cstar")
    )


def test_golden_certificates_stand_on_their_own(tmp_path):
    """Every violation certificate of the golden cases re-verifies from
    its printed numbers and the instance document alone."""
    from tests.golden import CASES, _run_in, documents

    docs = documents()
    seen = 0
    for argv, code, out in _run_in(tmp_path, filter(_certified, CASES)):
        if code == EXIT_VIOLATED:
            name = next(a for a in argv if a in docs)
            _reverify_report(docs[name], argv, json.loads(out))
            seen += 1
    assert seen == 8  # gordan, c, cstar, two per rum check form, the oracle


def _lattice_vector(rng: random.Random, size: int) -> list[str]:
    cuts = sorted(rng.randrange(13) for _ in range(size - 1))
    return [str(F(b - a, 12)) for a, b in zip([0] + cuts, cuts + [12])]


def test_drawn_certificates_stand_on_their_own(capsys, tmp_path):
    """Seeded random tables at n = 2..4, pools and credal pairs: every
    certificate that ``rum check [--star]``, ``verify exhaustive-rum``,
    ``pool check --condition c|cstar`` and ``gordan`` print re-verifies
    from the JSON alone.  DOC marks where the document's path goes."""
    rng = random.Random(32)
    runs = []
    for n in (2, 3, 4):
        for _ in range(3):
            commands = [
                ["rum", "check", "--eps", rng.choice(["0", "1/10", "1/2"]),
                 "DOC"],
                ["rum", "check", "--star", "--eps",
                 rng.choice(["0", "1/20", "1/10"]), "DOC"],
            ]
            if n < 4:  # the oracle's walk is for small tables
                commands.append(["verify", "exhaustive-rum", "DOC",
                                 "--eps", "0", "--max-tag", "1"])
            runs.append((_rum_doc(random_rum(rng, n)), commands))
    for _ in range(6):
        size = rng.randrange(2, 5)
        space = {"labels": [str(i) for i in range(size)]}
        members = [
            [_lattice_vector(rng, size) for _ in range(rng.randrange(1, 4))]
            for _ in range(3)
        ]
        pool = {"kind": "pooling", "space": space,
                "P": _lattice_vector(rng, size), "Q": members[0]}
        runs.append((pool, [
            ["pool", "check", "--condition", c, "--eps", e, "DOC"]
            for c in ("c", "cstar") for e in ("0", "1/12")
        ]))
        credal = {"kind": "credal", "space": space,
                  "P_set": members[1], "Q_set": members[2]}
        runs.append((credal, [["gordan", "--eps", e, "DOC"]
                              for e in ("0", "1/12")]))
    violated = set()
    for i, (doc, commands) in enumerate(runs):
        path = tmp_path / f"doc{i}.json"
        path.write_text(json.dumps(doc))
        for cmd in commands:
            argv = [str(path) if a == "DOC" else a for a in cmd]
            code, report = _capture_json(capsys, argv)
            assert code in (0, EXIT_VIOLATED), (argv, report)
            if code == EXIT_VIOLATED:
                _reverify_report(doc, argv, report)
                violated.add((*cmd[:2], "--star" in cmd or "cstar" in cmd))
    # every command, with and without --star or cstar, violated at least once
    assert len(violated) == 6, violated


def test_exhaustive_rum_scores_the_oracle_vector(
    capsys, monkeypatch, warp_path
):
    """The oracle's brute-force vector is the one certificate the CLI
    checks itself: an all-zero vector, which violates nothing, exits 4."""
    monkeypatch.setattr(
        cli, "exhaustive_rum_check",
        lambda inst, eps, max_tag: rum.TaggedTrialSequence(
            tags=(0,) * len(inst.pairs())
        ),
    )
    code, report = _capture_json(
        capsys,
        ["verify", "exhaustive-rum", warp_path, "--eps", "1", "--max-tag", "1"],
    )
    assert code == EXIT_INTERNAL
    assert report["error"] == "trial certificate fails re-verification"


def test_rum_bm_computes_the_sums_once(capsys, monkeypatch, warp_path):
    """``rum bm`` derives the negative mass and the ratio from one pass
    over the Block-Marschak sums."""
    import nrb.blockmarschak, nrb.cli

    calls = []
    original = nrb.blockmarschak._bm_sums

    def counted(inst):
        calls.append(inst)
        return original(inst)

    for mod in (nrb.blockmarschak, nrb.cli):
        monkeypatch.setattr(mod, "_bm_sums", counted)
    code, report = _capture_json(capsys, ["rum", "bm", warp_path])
    assert (code, report["value"]) == (0, "2")
    assert report["representation"]["hoffman_ratio"] == "1"
    assert len(calls) == 1


def test_console_entry_point(credal_path):
    proc = subprocess.run(
        [sys.executable, "-m", "nrb.cli", "distance", credal_path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == "2/3"


_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from nrb import exhaustive_rum_check
from nrb.cli import main
from tests.conftest import _warp_cycle_instance
hit = exhaustive_rum_check(_warp_cycle_instance(), 1, max_tag=1)
print("".join(map(str, hit.tags)))
sys.exit(main(["verify", "exhaustive-rum", sys.argv[1],
               "--eps", "1", "--max-tag", "1"]))
"""


def test_runs_without_numpy(warp_path):
    """The package has no runtime dependency: with numpy unimportable,
    the exhaustive oracle and its CLI command still find the reversal."""
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, warp_path],
        capture_output=True,
        text=True,
        cwd=Path(__file__).resolve().parents[1],
    )
    tags, _, report = proc.stdout.partition("\n")
    assert tags == "000010000100", proc.stderr
    assert proc.returncode == EXIT_VIOLATED
    certificate = json.loads(report)["certificate"]
    assert certificate["tags"] == {"2|1,2": 1, "1|1,2,3": 1}


# ---------------------------------------------------------------------------
# malformed documents: every command refuses them as input, never as a crash

_WARP_DOC = _rum_doc(_warp_cycle_instance())

_EVERY_COMMAND = (
    ["distance"],
    ["gordan", "--eps", "1/2"],
    ["pool", "min-eps"],
    ["pool", "min-eps", "--genest"],
    ["pool", "min-eps", "--normalized"],
    ["pool", "min-eps", "--free"],
    *(
        ["pool", "check", "--condition", c, "--eps", "1/3"]
        for c in ("c", "cstar", "cm", "minmax")
    ),
    ["rum", "min-eps"],
    ["rum", "min-eps", "--residual"],
    ["rum", "check", "--eps", "1/20"],
    ["rum", "check", "--star", "--eps", "1/20"],
    ["rum", "bm"],
    # argparse binds both of verify's positionals at the first one, so
    # the instance path goes straight after the op
    ["verify", "vertex-distance"],
    ["verify", "grid-gap", "--resolution", "2"],
    ["verify", "exhaustive-rum", "--eps", "1", "--max-tag", "1"],
)

_json_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-10**6, 10**6)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
    | st.sampled_from(
        ("credal", "pooling", "rum", "0", "1", "-1", "1/3", "2/3", "1/0",
         "0.5", " 1/2 ", "1|1", "a|", "|1,2", "1,2")
    )
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(("kind", "labels", "metric", "P", "Q", "P_set",
                         "Q_set", "space", "alternatives", "choice", "1|1"))
        | st.text(max_size=4),
        inner,
        max_size=4,
    ),
    max_leaves=10,
)


def _sites(node):
    """Every (container, key) pair in a JSON document."""
    keys = list(node) if isinstance(node, dict) else range(len(node))
    for key in keys:
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _sites(node[key])


@st.composite
def _malformed_documents(draw, base):
    """*base* with one to three of its fields, entries or list items,
    picked uniformly, replaced or removed, or, rarely, no object at the
    top level at all."""
    doc = copy.deepcopy(base)
    rng = draw(st.randoms(use_true_random=True))
    if rng.random() < 0.05:
        return draw(_json_values)
    for _ in range(rng.randint(1, 3)):
        sites = list(_sites(doc))
        if not sites:
            break
        node, key = rng.choice(sites)
        if rng.random() < 0.5:
            del node[key]
        else:
            node[key] = draw(_json_leaves | _json_values)
    return doc


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "doc.json")


@pytest.mark.parametrize("base", (NIELSEN_CREDAL, NIELSEN_POOL, _WARP_DOC))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_malformed_documents_never_crash(fuzz_path, base, data):
    doc = data.draw(_malformed_documents(base))
    with open(fuzz_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    for command in _EVERY_COMMAND:
        at = 2 if command[0] == "verify" else len(command)
        argv = command[:at] + [fuzz_path] + command[at:]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code != EXIT_INTERNAL, (argv, doc, out.getvalue())


_SITE_FREE_RUNS = (
    (["distance", "credal.json"], 0, "value", "2/3"),
    (["pool", "check", "--condition", "c", "--eps", "1/3", "pool.json"],
     EXIT_VIOLATED, "verdict", "violated"),
    (["rum", "check", "--star", "--eps", "1/50", "warp.json"],
     EXIT_VIOLATED, "verdict", "violated"),
    (["rum", "bm", "warp.json"], 0, "value", "2"),
)


def test_commands_run_without_site_packages(tmp_path):
    """``python -S`` puts no site-packages on the path, so the package
    runs on the standard library alone.  The documents are written here:
    the fixtures module imports pytest, which is not on that path."""
    for name, doc in (("credal.json", NIELSEN_CREDAL),
                      ("pool.json", NIELSEN_POOL),
                      ("warp.json", _WARP_DOC)):
        (tmp_path / name).write_text(json.dumps(doc))
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    for args, exit_code, key, value in _SITE_FREE_RUNS:
        proc = subprocess.run(
            [sys.executable, "-S", "-m", "nrb.cli", *args],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=env,
        )
        assert proc.returncode == exit_code, (args, proc.stderr)
        assert json.loads(proc.stdout)[key] == value, args


def test_closed_reader_keeps_the_exit_code(tmp_path):
    """A reader that closes stdout after a few bytes, as ``| head`` does,
    or before reading any, leaves the exit code of the unpiped run and
    nothing on stderr, in both formats, with stdout buffered and with
    ``PYTHONUNBUFFERED`` set.  The batch, 16 wide-7 mixture reports and
    one missing document (exit 2), is far larger than a pipe holds, so
    the write fails while the report is still being written; one small
    report, buffered, fails only when it is flushed."""
    weights = [F(0)] * 5040
    for j in (0, 999, 2024, 4321, 5039):
        weights[j] = F(1, 5)
    doc = _rum_doc(instance_from_mixture("abcdefg", weights))
    (tmp_path / "wide.json").write_text(json.dumps(doc))
    (tmp_path / "batch.txt").write_text("wide.json\n" * 16 + "gone.json\n")
    small = _rum_doc(instance_from_mixture("ab", [F(1, 3), F(2, 3)]))
    (tmp_path / "small.json").write_text(json.dumps(small))
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    for unbuffered, fmt in itertools.product((False, True), ("json", "text")):
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        batch = [sys.executable, "-m", "nrb.cli", "--batch", "batch.txt",
                 "--format", fmt, "rum", "bm"]
        whole = subprocess.run(batch, capture_output=True, cwd=tmp_path,
                               env=env)
        assert whole.returncode == 2 and whole.stderr == b"", whole.stderr
        assert len(whole.stdout) > 1 << 17
        single = [sys.executable, "-m", "nrb.cli", "--format", fmt, "rum",
                  "bm", "small.json"]
        for argv, head, code in ((batch, 100, 2), (single, 0, 0)):
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, cwd=tmp_path,
                                    env=env)
            assert proc.stdout.read(head) == whole.stdout[:head]
            proc.stdout.close()
            err = proc.stderr.read()
            proc.stderr.close()
            assert (proc.wait(), err) == (code, b""), (argv, unbuffered)
