"""Command-line front end.

Reads exact-rational instance documents (JSON), dispatches to the
library, and prints a report with any certificate re-verified from the
serialized numbers before it is emitted.  Exit codes: 0 for a computed
value or a condition that holds, 1 for a violated condition (with
certificate), 2 for input problems, 3 for refused oversized inputs, 4
for an exact self-check that failed (a defect, never an input problem).

Reports are deterministic byte for byte apart from the timing field.
All rationals appear as strings; scalar fields carry a sibling
``*_approx`` decimal rendering, rounded, for human convenience.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence

from .blockmarschak import bm_negative_norm, bm_polynomials, hoffman_ratio
from .duality import (
    Proximity,
    Separation,
    gordan_decide,
    member_gap,
    min_set_distance,
)
from .errors import CapExceededError, InputError, InternalCheckError, NrbError
from .measures import (
    CredalSet,
    PointSpace,
    ProbVector,
    StakesVector,
    expectation,
    oscillation,
    point_space_from_json,
    prob_vector_from_json,
)
from .oracle import GridSpec, exhaustive_rum_check, grid_max_gap, vertex_distance
from .pooling import (
    PoolingInstance,
    PoolingReport,
    _additive_report,
    _condition_C,
    check_condition_CM,
    check_condition_Cstar,
    check_event_minmax,
    pool_min_eps_additive,
    pool_min_eps_genest,
    pool_min_eps_normalized,
)
from .rational import decimal_approx, format_rational, parse_rational
from .rum import (
    RumInstance,
    RumReport,
    _arsp_check,
    _arsp_star_check,
    _residual_report,
    build_matrix,
    enumerate_orderings,
    evaluate_arsp,
    evaluate_arsp_star,
    rum_min_eps,
    rum_residual_min_eps,
)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


def _fmt(value: Fraction) -> str:
    return format_rational(value)


def _vec(values) -> list[str]:
    return [_fmt(v) for v in values]


def _put_scalar(body: dict, key: str, value: Fraction) -> None:
    body[key] = _fmt(value)
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
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be an object")
    return doc


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise InputError(f"{where}: missing field {key!r}")
    return doc[key]


def _parse_credal(doc: dict) -> tuple[CredalSet, CredalSet]:
    kind = _require(doc, "kind", "instance")
    if kind != "credal":
        raise InputError(f"expected a credal instance, got kind {kind!r}")
    space = point_space_from_json(_require(doc, "space", "credal instance"))
    def side(name: str) -> CredalSet:
        rows = _require(doc, name, "credal instance")
        if not isinstance(rows, list) or not rows:
            raise InputError(f"{name} must be a nonempty array of vectors")
        return CredalSet(
            tuple(prob_vector_from_json(space, row) for row in rows)
        )
    return side("P_set"), side("Q_set")


def _parse_pooling(doc: dict) -> PoolingInstance:
    kind = _require(doc, "kind", "instance")
    if kind != "pooling":
        raise InputError(f"expected a pooling instance, got kind {kind!r}")
    space = point_space_from_json(_require(doc, "space", "pooling instance"))
    planner = prob_vector_from_json(space, _require(doc, "P", "pooling instance"))
    rows = _require(doc, "Q", "pooling instance")
    if not isinstance(rows, list) or not rows:
        raise InputError("Q must be a nonempty array of vectors")
    opinions = CredalSet(
        tuple(prob_vector_from_json(space, row) for row in rows)
    )
    return PoolingInstance(planner=planner, opinions=opinions)


def _parse_rum(doc: dict) -> RumInstance:
    kind = _require(doc, "kind", "instance")
    if kind != "rum":
        raise InputError(f"expected a rum instance, got kind {kind!r}")
    alts = _require(doc, "alternatives", "rum instance")
    if not isinstance(alts, list) or not all(isinstance(a, str) for a in alts):
        raise InputError("alternatives must be an array of strings")
    raw = _require(doc, "choice", "rum instance")
    if not isinstance(raw, dict):
        raise InputError("choice must be an object keyed 'y|menu'")
    table = {}
    for key, value in raw.items():
        if "|" not in key:
            raise InputError(f"choice key {key!r} lacks the 'y|menu' separator")
        y, menu_part = key.split("|", 1)
        menu = tuple(part for part in menu_part.split(",") if part != "")
        if not menu:
            raise InputError(f"choice key {key!r} names an empty menu")
        if (y, menu) in table:
            raise InputError(f"duplicate choice key {key!r}")
        table[(y, menu)] = value
    return RumInstance(alternatives=tuple(alts), choice=table)


def _pair_key(y: str, menu: tuple[str, ...]) -> str:
    return f"{y}|{','.join(menu)}"


def _ordering_key(ordering: tuple[str, ...]) -> str:
    return ",".join(ordering)


def _pool_representation(report: PoolingReport) -> dict:
    rep: dict = {"kind": report.kind, "weights": _vec(report.weights)}
    if report.error is not None:
        rep["error"] = _vec(report.error.weights)
    if report.residual is not None:
        rep["residual"] = _vec(report.residual.weights)
    if report.sum_constrained is not None:
        rep["sum_constrained"] = report.sum_constrained
        rep["weight_sum"] = _fmt(sum(report.weights, Fraction(0)))
    return rep


def _rum_representation(inst: RumInstance, report: RumReport) -> dict:
    rep: dict = {"kind": report.kind}
    if report.pi is not None:
        rep["pi"] = {
            _ordering_key(o): _fmt(w)
            for o, w in zip(enumerate_orderings(inst.alternatives), report.pi)
            if w != 0
        }
    if report.error is not None:
        rep["error"] = {
            _pair_key(y, menu): _fmt(e)
            for (y, menu), e in zip(inst.pairs(), report.error)
            if e != 0
        }
    if report.residual is not None:
        rep["residual"] = {
            _pair_key(y, menu): _fmt(r)
            for (y, menu), r in zip(inst.pairs(), report.residual)
            if r != 0
        }
    return rep


def _tag_certificate(inst: RumInstance, matrix, cert, eps, star: bool) -> dict:
    """Re-verify a violating tag vector on *matrix* and render it."""
    evaluate = evaluate_arsp_star if star else evaluate_arsp
    lhs, rhs = evaluate(inst, matrix, cert.tags, eps)
    if not lhs > rhs:
        raise InternalCheckError("trial certificate fails re-verification")
    return {
        "tags": {
            _pair_key(y, menu): t
            for (y, menu), t in zip(matrix.pairs, cert.tags)
            if t
        },
        "width": cert.width,
        "lhs": _fmt(lhs),
        "rhs": _fmt(rhs),
        "verified": True,
    }


def _pareto_certificate(
    inst: PoolingInstance, eps: Fraction, witness, star: bool
) -> dict:
    """Recompute the witness inequalities from its serialized numbers,
    then render it; the emitted certificate must stand on its own."""
    f, g = witness.f, witness.g
    margins = tuple(
        expectation(f, q) - expectation(g, q) for q in inst.opinions.members
    )
    if margins != witness.premise_margins or any(m < 0 for m in margins):
        raise InternalCheckError("witness premise fails re-verification")
    h = StakesVector(
        space=f.space,
        values=tuple(a - b for a, b in zip(f.values, g.values)),
    )
    if star:
        penalty = oscillation(h) - max(h.values)
    else:
        penalty = oscillation(h) / 2
    violation = (
        expectation(g, inst.planner) - eps * penalty
    ) - expectation(f, inst.planner)
    if violation != witness.violation_amount or violation <= 0:
        raise InternalCheckError("witness violation fails re-verification")
    return {
        "f": _vec(f.values),
        "g": _vec(g.values),
        "premise_margins": _vec(witness.premise_margins),
        "violation": _fmt(witness.violation_amount),
        "verified": True,
    }


def _cmd_distance(args, doc: dict) -> tuple[dict, int]:
    p_set, q_set = _parse_credal(doc)
    res = min_set_distance(p_set, q_set)
    body: dict = {"verdict": "value"}
    _put_scalar(body, "value", res.value)
    body["representation"] = {
        "p_weights": _vec(res.p_weights),
        "q_weights": _vec(res.q_weights),
        "stakes": _vec(res.stakes.values),
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
            "p_weights": _vec(outcome.p_weights),
            "q_weights": _vec(outcome.q_weights),
        }
        return body, EXIT_OK
    assert isinstance(outcome, Separation)
    gap = member_gap(outcome.stakes, p_set, q_set)
    if gap != outcome.gap or gap <= eps:
        raise InternalCheckError("separation certificate fails re-verification")
    body["verdict"] = "violated"
    _put_scalar(body, "value", outcome.gap)
    body["certificate"] = {
        "stakes": _vec(outcome.stakes.values),
        "gap": _fmt(outcome.gap),
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
        if star:
            witness = check_condition_Cstar(inst, eps)
            report = None if witness else pool_min_eps_genest(inst)
        else:
            witness, result = _condition_C(inst, eps)
            report = None if witness else _additive_report(inst, result)
        if witness is None:
            body["verdict"] = "holds"
            _put_scalar(body, "epsilon_min", report.epsilon_min)
            body["representation"] = _pool_representation(report)
            return body, EXIT_OK
        body["verdict"] = "violated"
        body["certificate"] = _pareto_certificate(inst, eps, witness, star)
        return body, EXIT_VIOLATED
    if args.condition == "cm":
        required, (e1, e2) = check_condition_CM(
            inst.planner, inst.opinions, eps
        )
        events = {"E1": list(e1), "E2": list(e2)}
        if required <= eps:
            body["verdict"] = "holds"
            _put_scalar(body, "epsilon_min", required)
            body["representation"] = {
                "epsilon_required": _fmt(required),
                "worst_events": events,
            }
            return body, EXIT_OK
        p, members = inst.planner, inst.opinions.members
        gap = p.event_probability(e2) - p.event_probability(e1)
        premise = all(
            q.event_probability(e1) >= q.event_probability(e2)
            for q in members
        )
        if gap != required or not premise:
            raise InternalCheckError("event certificate fails re-verification")
        body["verdict"] = "violated"
        _put_scalar(body, "epsilon_min", required)
        body["certificate"] = {
            "epsilon_required": _fmt(required),
            "events": events,
            "verified": True,
        }
        return body, EXIT_VIOLATED
    assert args.condition == "minmax"
    required, _, event = check_event_minmax(inst.planner, inst.opinions)
    if required <= eps:
        body["verdict"] = "holds"
        _put_scalar(body, "epsilon_min", required)
        body["representation"] = {
            "epsilon_required": _fmt(required),
            "worst_event": list(event),
        }
        return body, EXIT_OK
    hi = max(q.event_probability(event) for q in inst.opinions.members)
    if 2 * (inst.planner.event_probability(event) - hi) != required:
        raise InternalCheckError("event certificate fails re-verification")
    body["verdict"] = "violated"
    _put_scalar(body, "epsilon_min", required)
    body["certificate"] = {
        "epsilon_required": _fmt(required),
        "event": list(event),
        "verified": True,
    }
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
    if args.star:
        cert, matrix = _arsp_star_check(inst, eps)
        report = None if cert else _residual_report(inst, matrix)
    else:
        cert, report, matrix = _arsp_check(inst, eps)
    if cert is None:
        body["verdict"] = "holds"
        _put_scalar(body, "epsilon_min", report.epsilon_min)
        body["representation"] = _rum_representation(inst, report)
        return body, EXIT_OK
    body["verdict"] = "violated"
    body["certificate"] = _tag_certificate(inst, matrix, cert, eps, args.star)
    return body, EXIT_VIOLATED


def _cmd_rum_bm(args, doc: dict) -> tuple[dict, int]:
    inst = _parse_rum(doc)
    polys = bm_polynomials(inst)
    norm = bm_negative_norm(inst)
    ratio = hoffman_ratio(inst)
    body: dict = {"verdict": "value"}
    _put_scalar(body, "value", norm)
    body["representation"] = {
        "bm": {
            _pair_key(y, menu): _fmt(v) for (y, menu), v in polys.items()
        },
        "negative_norm": _fmt(norm),
        "hoffman_ratio": None if ratio is None else _fmt(ratio),
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
    body["verdict"] = "violated"
    body["certificate"] = _tag_certificate(
        inst, build_matrix(inst), cert, eps, star=False
    )
    return body, EXIT_VIOLATED


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


_HANDLERS = {
    ("distance",): (_cmd_distance, "credal"),
    ("gordan",): (_cmd_gordan, "credal"),
    ("pool", "min-eps"): (_cmd_pool_min_eps, "pooling"),
    ("pool", "check"): (_cmd_pool_check, "pooling"),
    ("rum", "min-eps"): (_cmd_rum_min_eps, "rum"),
    ("rum", "check"): (_cmd_rum_check, "rum"),
    ("rum", "bm"): (_cmd_rum_bm, "rum"),
    ("verify",): (_cmd_verify, None),
}


def _build_parser() -> argparse.ArgumentParser:
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

    def add_instance(p):
        p.add_argument(
            "instance",
            nargs="?",
            help="instance JSON path, or - for stdin (omit with --batch)",
        )

    p = sub.add_parser("distance", help="minimum L1 distance between credal sets")
    add_instance(p)

    p = sub.add_parser("gordan", help="separation or proximity at a tolerance")
    p.add_argument("--eps", required=True)
    add_instance(p)

    pool = sub.add_parser("pool", help="opinion pooling")
    pool_sub = pool.add_subparsers(dest="pool_command", required=True)
    p = pool_sub.add_parser("min-eps", help="least pooling error")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--genest", action="store_true")
    group.add_argument("--normalized", action="store_true")
    group.add_argument("--free", action="store_true")
    add_instance(p)
    p = pool_sub.add_parser("check", help="test a pooling condition")
    p.add_argument(
        "--condition", required=True, choices=("c", "cstar", "cm", "minmax")
    )
    p.add_argument("--eps", required=True)
    add_instance(p)

    rum = sub.add_parser("rum", help="stochastic choice rationality")
    rum_sub = rum.add_subparsers(dest="rum_command", required=True)
    p = rum_sub.add_parser("min-eps", help="least rationalizability error")
    p.add_argument("--residual", action="store_true")
    add_instance(p)
    p = rum_sub.add_parser("check", help="tagged-trials test at a level")
    p.add_argument("--eps", required=True)
    p.add_argument("--star", action="store_true")
    add_instance(p)
    p = rum_sub.add_parser("bm", help="inclusion-exclusion diagnostics")
    add_instance(p)

    p = sub.add_parser("verify", help="brute-force oracle reproductions")
    p.add_argument(
        "op", choices=("vertex-distance", "grid-gap", "exhaustive-rum")
    )
    p.add_argument("--resolution", type=int)
    p.add_argument("--eps")
    p.add_argument("--max-tag", type=int, dest="max_tag")
    add_instance(p)

    return parser


def _handler_for(args) -> tuple:
    key: tuple = (args.command,)
    if args.command == "pool":
        key = ("pool", args.pool_command)
    elif args.command == "rum":
        key = ("rum", args.rum_command)
    return _HANDLERS[key]


def _run_one(args, handler, path: str, echo: list[str]) -> tuple[dict, int]:
    start = time.perf_counter()
    report: dict = {"command": echo, "instance": path}
    try:
        doc = _load_document(path)
        body, code = handler(args, doc)
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
    report["timing_ms"] = int((time.perf_counter() - start) * 1000)
    return report, code


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler, _ = _handler_for(args)

    if args.batch:
        try:
            with open(args.batch, "r", encoding="utf-8") as fh:
                paths = [
                    line.strip()
                    for line in fh
                    if line.strip() and not line.strip().startswith("#")
                ]
        except OSError as exc:
            print(f"cannot read batch list: {exc}", file=sys.stderr)
            return EXIT_INPUT
        if args.instance is not None:
            print("--batch replaces the instance argument", file=sys.stderr)
            return EXIT_INPUT
        reports = []
        worst = EXIT_OK
        for path in paths:
            report, code = _run_one(args, handler, path, argv)
            reports.append(report)
            worst = max(worst, code)
        if args.format == "json":
            print(json.dumps(reports, indent=2, ensure_ascii=False))
        else:
            for report in reports:
                head = _headline(report)
                if head:
                    sys.stdout.write(head + "\n")
                _render_text(report, sys.stdout)
                sys.stdout.write("\n")
        return worst

    path = args.instance if args.instance is not None else "-"
    report, code = _run_one(args, handler, path, argv)
    if args.format == "json":
        print(json.dumps(report, indent=2, ensure_ascii=False))
    else:
        head = _headline(report)
        if head:
            sys.stdout.write(head + "\n")
        _render_text(report, sys.stdout)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
