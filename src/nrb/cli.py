"""Command-line front end.

Reads exact-rational instance documents (JSON), dispatches to the
library, and prints a report.  The library verifies each certificate by
substitution before returning it, and the report prints the values it
verified; ``verify exhaustive-rum`` scores the oracle's brute-force tag
vector with the best-ordering DP.  Exit codes: 0 for a computed value
or a condition that holds, 1 for a violated condition (with
certificate), 2 for input problems, 3 for refused oversized inputs or
answers too long to print, 4 for an exact self-check that failed or any
unexpected exception (a defect, never an input problem).  No failure
exits 1.

Reports are deterministic byte for byte apart from the timing field.
All rationals appear as strings; scalar fields carry a sibling
``*_approx`` decimal rendering, rounded, for human convenience.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring as _encode_str
from typing import Optional, Sequence

from .blockmarschak import _bm_sums, _negative_mass, _ratio
from .duality import (
    Proximity,
    Separation,
    gordan_decide,
    min_set_distance,
)
from .errors import CapExceededError, InputError, InternalCheckError, NrbError
from .measures import (
    CredalSet,
    PointSpace,
    point_space_from_json,
    prob_vector_from_json,
    vector_to_json,
)
from .oracle import GridSpec, exhaustive_rum_check, grid_max_gap, vertex_distance
from .pooling import (
    PoolingInstance,
    PoolingReport,
    _condition_C,
    _condition_Cstar,
    check_condition_CM,
    check_event_minmax,
    pool_min_eps_additive,
    pool_min_eps_genest,
    pool_min_eps_normalized,
)
from .rational import (
    _format_ratio,
    decimal_approx,
    format_rational,
    parse_rational,
)
from .rum import (
    RumInstance,
    RumReport,
    _arsp_check,
    _arsp_star_check,
    _layout,
    _Table,
    build_matrix,
    evaluate_arsp,
    rum_min_eps,
    rum_residual_min_eps,
)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


def _put_scalar(body: dict, key: str, value: Fraction) -> None:
    body[key] = format_rational(value)
    body[key + "_approx"] = decimal_approx(value)


def _load_document(path: str) -> dict:
    try:
        if path == "-":
            doc = json.load(sys.stdin, parse_float=str)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh, parse_float=str)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # e.g. an integer past the digit limit
        raise InputError(f"{path} cannot be read: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path} is nested too deeply: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be an object")
    return doc


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise InputError(f"{where}: missing field {key!r}")
    return doc[key]


def _check_kind(doc: dict, kind: str) -> str:
    """Refuse a document of another kind; return the name that later
    error messages use for it."""
    found = _require(doc, "kind", "instance")
    if found != kind:
        raise InputError(f"expected a {kind} instance, got kind {found!r}")
    return f"{kind} instance"


def _vectors(
    doc: dict, name: str, where: str, space: PointSpace
) -> CredalSet:
    """The field *name*: a nonempty array of probability vectors."""
    rows = _require(doc, name, where)
    if not isinstance(rows, list) or not rows:
        raise InputError(f"{name} must be a nonempty array of vectors")
    return CredalSet(tuple(prob_vector_from_json(space, row) for row in rows))


def _parse_credal(doc: dict) -> tuple[CredalSet, CredalSet]:
    where = _check_kind(doc, "credal")
    space = point_space_from_json(_require(doc, "space", where))
    return (_vectors(doc, "P_set", where, space),
            _vectors(doc, "Q_set", where, space))


def _parse_pooling(doc: dict) -> PoolingInstance:
    where = _check_kind(doc, "pooling")
    space = point_space_from_json(_require(doc, "space", where))
    planner = prob_vector_from_json(space, _require(doc, "P", where))
    opinions = _vectors(doc, "Q", where, space)
    return PoolingInstance(planner=planner, opinions=opinions)


def _parse_rum(doc: dict) -> RumInstance:
    where = _check_kind(doc, "rum")
    alts = _require(doc, "alternatives", where)
    if not isinstance(alts, list) or not all(isinstance(a, str) for a in alts):
        raise InputError("alternatives must be an array of strings")
    raw = _require(doc, "choice", where)
    if not isinstance(raw, dict):
        raise InputError("choice must be an object keyed 'y|menu'")
    alts, n = tuple(alts), len(alts)
    # The layout is read only for a table with as many keys as it has
    # pairs, so a short document over many alternatives never builds one.
    # When the keys are the layout's own keys in pairs() order, the raw
    # values go over by position.  Otherwise a canonical key is one
    # lookup and any other key is split, with the same checks in the
    # same order.
    layout = _layout(alts) if len(raw) == n << n >> 1 else None
    pair_of = layout.pair_of if layout is not None else {}
    if pair_of and tuple(raw) == layout.keys:
        table = _Table(layout, tuple(raw.values()))
        return RumInstance(alternatives=alts, choice=table)
    table = {}
    menus: dict[str, tuple[str, ...]] = {}  # each menu string split once
    for key, value in raw.items():
        pair = pair_of.get(key)
        if pair is None:
            if "|" not in key:
                raise InputError(
                    f"choice key {key!r} lacks the 'y|menu' separator"
                )
            y, menu_part = key.split("|", 1)
            menu = menus.get(menu_part)
            if menu is None:
                menu = menus[menu_part] = tuple(
                    filter(None, menu_part.split(","))
                )
            if not menu:
                raise InputError(f"choice key {key!r} names an empty menu")
            pair = (y, menu)
        if pair in table:
            raise InputError(f"duplicate choice key {key!r}")
        table[pair] = value
    return RumInstance(alternatives=alts, choice=table)


def _pool_representation(report: PoolingReport) -> dict:
    rep: dict = {"kind": report.kind}
    rep["weights"] = vector_to_json(report.weights)
    if report.error is not None:
        rep["error"] = vector_to_json(report.error.weights)
    if report.residual is not None:
        rep["residual"] = vector_to_json(report.residual.weights)
    if report.sum_constrained is not None:
        rep["sum_constrained"] = report.sum_constrained
        rep["weight_sum"] = format_rational(sum(report.weights, Fraction(0)))
    return rep


def _rum_representation(inst: RumInstance, report: RumReport) -> dict:
    """The nonzero entries of the report's vectors, keyed by ordering
    (``"a,b,c"``, joined from the sparse mixture's keys) or by the
    layout's pair keys (``"y|a,b"``)."""
    rep: dict = {"kind": report.kind}
    if report.pi is not None:
        rep["pi"] = {
            ",".join(o): format_rational(v) for o, v in report.pi.items()
        }
    for name in ("error", "residual"):
        values = getattr(report, name)
        if values is not None:
            rep[name] = {
                key: format_rational(v)
                for key, v in zip(inst._layout.keys, values) if v != 0
            }
    return rep


def _tag_certificate(inst: RumInstance, cert, lhs, rhs) -> dict:
    """A violating tag vector, keyed by the layout's pair keys in
    ``pairs()`` order, with the sides ``lhs > rhs`` it was verified on."""
    return {
        "tags": {
            key: t for key, t in zip(inst._layout.keys, cert.tags) if t
        },
        "width": cert.width,
        "lhs": format_rational(lhs),
        "rhs": format_rational(rhs),
        "verified": True,
    }


def _pareto_certificate(witness) -> dict:
    """A ``ParetoWitness``, whose margins and violation were computed and
    sign-checked as it was built."""
    return {
        "f": vector_to_json(witness.f.values),
        "g": vector_to_json(witness.g.values),
        "premise_margins": vector_to_json(witness.premise_margins),
        "violation": format_rational(witness.violation_amount),
        "verified": True,
    }


def _cmd_distance(args, doc: dict) -> tuple[dict, int]:
    p_set, q_set = _parse_credal(doc)
    res = min_set_distance(p_set, q_set)
    body: dict = {"verdict": "value"}
    _put_scalar(body, "value", res.value)
    body["representation"] = {
        "p_weights": vector_to_json(res.p_weights),
        "q_weights": vector_to_json(res.q_weights),
        "stakes": vector_to_json(res.stakes.values),
        "verified": True,
    }
    return body, EXIT_OK


def _cmd_gordan(args, doc: dict) -> tuple[dict, int]:
    p_set, q_set = _parse_credal(doc)
    eps = parse_rational(args.eps)
    outcome = gordan_decide(p_set, q_set, eps)
    body: dict = {}
    if isinstance(outcome, Proximity):
        body["verdict"] = "holds"
        _put_scalar(body, "value", outcome.distance)
        body["representation"] = {
            "p_weights": vector_to_json(outcome.p_weights),
            "q_weights": vector_to_json(outcome.q_weights),
        }
        return body, EXIT_OK
    assert isinstance(outcome, Separation)
    body["verdict"] = "violated"
    _put_scalar(body, "value", outcome.gap)
    body["certificate"] = {
        "stakes": vector_to_json(outcome.stakes.values),
        "gap": format_rational(outcome.gap),
        "verified": True,
    }
    return body, EXIT_VIOLATED


def _cmd_pool_min_eps(args, doc: dict) -> tuple[dict, int]:
    inst = _parse_pooling(doc)
    if args.genest:
        report = pool_min_eps_genest(inst)
    elif args.normalized:
        report = pool_min_eps_normalized(inst, constrain_sum=True)
    elif args.free:
        report = pool_min_eps_normalized(inst, constrain_sum=False)
    else:
        report = pool_min_eps_additive(inst)
    body: dict = {"verdict": "value"}
    _put_scalar(body, "epsilon_min", report.epsilon_min)
    body["representation"] = _pool_representation(report)
    return body, EXIT_OK


def _cmd_pool_check(args, doc: dict) -> tuple[dict, int]:
    inst = _parse_pooling(doc)
    eps = parse_rational(args.eps)
    body: dict = {"condition": args.condition}
    if args.condition in ("c", "cstar"):
        star = args.condition == "cstar"
        decide = _condition_Cstar if star else _condition_C
        witness, report = decide(inst, eps)
        if witness is None:
            body["verdict"] = "holds"
            _put_scalar(body, "epsilon_min", report.epsilon_min)
            body["representation"] = _pool_representation(report)
            return body, EXIT_OK
        body["verdict"] = "violated"
        body["certificate"] = _pareto_certificate(witness)
        return body, EXIT_VIOLATED
    if args.condition == "cm":
        required, (e1, e2) = check_condition_CM(
            inst.planner, inst.opinions, eps
        )
        events = {"E1": list(e1), "E2": list(e2)}
        keys = ("worst_events", "events")
    else:
        required, _, event = check_event_minmax(inst.planner, inst.opinions)
        events, keys = list(event), ("worst_event", "event")
    holds = required <= eps
    body["verdict"] = "holds" if holds else "violated"
    _put_scalar(body, "epsilon_min", required)
    evidence = {"epsilon_required": format_rational(required)}
    if holds:
        body["representation"] = {**evidence, keys[0]: events}
        return body, EXIT_OK
    body["certificate"] = {**evidence, keys[1]: events, "verified": True}
    return body, EXIT_VIOLATED


def _cmd_rum_min_eps(args, doc: dict) -> tuple[dict, int]:
    inst = _parse_rum(doc)
    report = (
        rum_residual_min_eps(inst) if args.residual else rum_min_eps(inst)
    )
    body: dict = {"verdict": "value"}
    _put_scalar(body, "epsilon_min", report.epsilon_min)
    body["representation"] = _rum_representation(inst, report)
    return body, EXIT_OK


def _cmd_rum_check(args, doc: dict) -> tuple[dict, int]:
    inst = _parse_rum(doc)
    eps = parse_rational(args.eps)
    body: dict = {"condition": "arsp-star" if args.star else "arsp"}
    decide = _arsp_star_check if args.star else _arsp_check
    cert, report, sides = decide(inst, eps)
    if cert is None:
        body["verdict"] = "holds"
        _put_scalar(body, "epsilon_min", report.epsilon_min)
        body["representation"] = _rum_representation(inst, report)
        return body, EXIT_OK
    body["verdict"] = "violated"
    body["certificate"] = _tag_certificate(inst, cert, *sides)
    return body, EXIT_VIOLATED


def _cmd_rum_bm(args, doc: dict) -> tuple[dict, int]:
    inst = _parse_rum(doc)
    sums, den = _bm_sums(inst), inst._den
    norm = _negative_mass(inst, sums)
    ratio = _ratio(inst, norm)
    body: dict = {"verdict": "value"}
    _put_scalar(body, "value", norm)
    # formatted from the integers; the zero sums, most of them, at once
    bm = [_format_ratio(v, den) if v else "0" for v in sums]
    body["representation"] = {
        "bm": dict(zip(inst._layout.keys, bm)),
        "negative_norm": format_rational(norm),
        "hoffman_ratio": None if ratio is None else format_rational(ratio),
    }
    return body, EXIT_OK


def _cmd_verify(args, doc: dict) -> tuple[dict, int]:
    body: dict = {"oracle": args.op}
    if args.op == "vertex-distance":
        p_set, q_set = _parse_credal(doc)
        body["verdict"] = "value"
        _put_scalar(body, "value", vertex_distance(p_set, q_set))
        return body, EXIT_OK
    if args.op == "grid-gap":
        p_set, q_set = _parse_credal(doc)
        if args.resolution is None:
            raise InputError("grid-gap needs --resolution")
        value = grid_max_gap(p_set, q_set, GridSpec(args.resolution))
        body["verdict"] = "value"
        _put_scalar(body, "value", value)
        return body, EXIT_OK
    assert args.op == "exhaustive-rum"
    inst = _parse_rum(doc)
    if args.eps is None or args.max_tag is None:
        raise InputError("exhaustive-rum needs --eps and --max-tag")
    eps = parse_rational(args.eps)
    cert = exhaustive_rum_check(inst, eps, args.max_tag)
    if cert is None:
        body["verdict"] = "holds"
        body["representation"] = {"max_tag_checked": args.max_tag}
        return body, EXIT_OK
    # the one certificate not verified where it was made
    lhs, rhs = evaluate_arsp(inst, build_matrix(inst), cert.tags, eps)
    if not lhs > rhs:
        raise InternalCheckError("trial certificate fails re-verification")
    body["verdict"] = "violated"
    body["certificate"] = _tag_certificate(inst, cert, lhs, rhs)
    return body, EXIT_VIOLATED


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False)``, byte for byte,
    for the types a report holds: dicts with string keys, lists, strings,
    ints, bools and None.  ``json.dumps`` takes its pure-Python encoder
    whenever it indents; this joins strings from the C string encoder.
    *indent* is a newline and the indentation of the line the value
    starts on."""
    if type(value) is str:
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if type(value) is int:
        return repr(value)
    inner = indent + "  "
    if type(value) is dict:
        if not value:
            return "{}"
        items = [
            _encode_str(k) + ": "
            + (_encode_str(v) if type(v) is str else _json_text(v, inner))
            for k, v in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if type(value) is list:
        if not value:
            return "[]"
        items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable"
    )


def _render_text(report: dict, out) -> None:
    def leaf(key: str, value) -> None:
        if isinstance(value, list):
            rendered = "(" + ", ".join(str(v) for v in value) + ")"
        else:
            rendered = str(value)
        out.write(f"{key}: {rendered}\n")

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}.{k}" if prefix else str(k), v)
        else:
            leaf(prefix, value)

    walk("", report)


def _headline(report: dict) -> Optional[str]:
    rep = report.get("representation")
    if not isinstance(rep, dict):
        return None
    kind = rep.get("kind")
    eps = report.get("epsilon_min")
    if kind == "additive" and "pi" in rep:
        return f"P0 = A pi + e, ‖e‖₁ = {eps}"
    if kind == "residual":
        return f"P0 = (1 - eps) A pi + eps R0, eps = {eps}"
    if kind == "additive":
        return f"P = Q_m + e, ‖e‖₁ = {eps}"
    if kind == "genest":
        return f"P = (1 - eps) Q_lambda + eps R, eps = {eps}"
    if kind == "normalized-additive":
        return f"P = sum m_i Q_i + e, ‖e‖₁ = {eps}"
    return None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built on the first call to ``main`` and kept
    for the rest of the process; parsing never changes it."""
    parser = argparse.ArgumentParser(
        prog="nrb",
        description=(
            "Exact rational tests for nearly coherent probabilities and "
            "nearly rationalizable stochastic choice."
        ),
    )
    parser.add_argument(
        "--format",
        choices=("json", "text"),
        default="json",
        help="report rendering (default json)",
    )
    parser.add_argument(
        "--batch",
        metavar="LISTFILE",
        help="file with one instance path per line; reports are merged "
        "in input order and the exit code is the worst one",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance(p, handler):
        p.add_argument(
            "instance",
            nargs="?",
            help="instance JSON path, or - for stdin (omit with --batch)",
        )
        p.set_defaults(handler=handler)

    p = sub.add_parser("distance", help="minimum L1 distance between credal sets")
    add_instance(p, _cmd_distance)

    p = sub.add_parser("gordan", help="separation or proximity at a tolerance")
    p.add_argument("--eps", required=True)
    add_instance(p, _cmd_gordan)

    pool = sub.add_parser("pool", help="opinion pooling")
    pool_sub = pool.add_subparsers(dest="pool_command", required=True)
    p = pool_sub.add_parser("min-eps", help="least pooling error")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--genest", action="store_true")
    group.add_argument("--normalized", action="store_true")
    group.add_argument("--free", action="store_true")
    add_instance(p, _cmd_pool_min_eps)
    p = pool_sub.add_parser("check", help="test a pooling condition")
    p.add_argument(
        "--condition", required=True, choices=("c", "cstar", "cm", "minmax")
    )
    p.add_argument("--eps", required=True)
    add_instance(p, _cmd_pool_check)

    rum = sub.add_parser("rum", help="stochastic choice rationality")
    rum_sub = rum.add_subparsers(dest="rum_command", required=True)
    p = rum_sub.add_parser("min-eps", help="least rationalizability error")
    p.add_argument("--residual", action="store_true")
    add_instance(p, _cmd_rum_min_eps)
    p = rum_sub.add_parser("check", help="tagged-trials test at a level")
    p.add_argument("--eps", required=True)
    p.add_argument("--star", action="store_true")
    add_instance(p, _cmd_rum_check)
    p = rum_sub.add_parser("bm", help="inclusion-exclusion diagnostics")
    add_instance(p, _cmd_rum_bm)

    p = sub.add_parser("verify", help="brute-force oracle reproductions")
    p.add_argument(
        "op", choices=("vertex-distance", "grid-gap", "exhaustive-rum")
    )
    p.add_argument("--resolution", type=int)
    p.add_argument("--eps")
    p.add_argument("--max-tag", type=int, dest="max_tag")
    add_instance(p, _cmd_verify)

    return parser


def _run_one(args, path: str, echo: list[str]) -> tuple[dict, int]:
    start = time.perf_counter()
    report: dict = {"command": echo, "instance": path}
    try:
        body, code = args.handler(args, _load_document(path))
        report.update(body)
    except CapExceededError as exc:
        report["error"] = str(exc)
        code = EXIT_CAP
    except InternalCheckError as exc:
        report["error"] = str(exc)
        code = EXIT_INTERNAL
    except NrbError as exc:
        report["error"] = str(exc)
        code = EXIT_INPUT
    except Exception as exc:  # a defect: report it, never exit 1
        report["error"] = f"unexpected {type(exc).__name__}: {exc}"
        code = EXIT_INTERNAL
    report["timing_ms"] = int((time.perf_counter() - start) * 1000)
    return report, code


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _build_parser().parse_args(argv)
    paths = [args.instance if args.instance is not None else "-"]
    if args.batch:
        try:
            with open(args.batch, "r", encoding="utf-8") as fh:
                paths = [
                    line.strip()
                    for line in fh
                    if line.strip() and not line.strip().startswith("#")
                ]
        except (OSError, UnicodeDecodeError) as exc:
            print(f"cannot read batch list: {exc}", file=sys.stderr)
            return EXIT_INPUT
        if args.instance is not None:
            print("--batch replaces the instance argument", file=sys.stderr)
            return EXIT_INPUT
    runs = [_run_one(args, path, argv) for path in paths]
    reports = [report for report, _ in runs]
    try:
        if args.format == "json":
            shown = reports if args.batch else reports[0]
            print(_json_text(shown))
        else:
            for report in reports:
                head = _headline(report)
                if head:
                    sys.stdout.write(head + "\n")
                _render_text(report, sys.stdout)
                if args.batch:
                    sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed early, as `| head` does: the runs are done and
        # their codes stand.  The rest of the output goes to the null
        # device, so the interpreter's final flush raises nothing either.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return max((code for _, code in runs), default=EXIT_OK)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
