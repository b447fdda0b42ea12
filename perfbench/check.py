"""Answer checker.

Each operation is checked twice over.  First against ``expected.json``:
the exit code, the verdict and the exact scalar (``value`` or
``epsilon_min``) recorded for it.  Then every representation and
certificate in the report is re-verified by substitution with this
file's own arithmetic, never with nrb's: mixtures are recomputed,
best choices come from this file's rule, and tag inequalities are
re-evaluated over all orderings.  Nothing compares which optimal vertex
was reported, so a different tie-break still passes.  ``timing_ms`` is
ignored.
"""

from __future__ import annotations

import itertools
from fractions import Fraction as F


def _vec(values) -> list[F]:
    return [F(v) for v in values]


def _dot(a, b) -> F:
    return sum((x * y for x, y in zip(a, b)), F(0))


def _combine(weights, rows) -> list[F]:
    n = len(rows[0])
    return [sum((w * r[i] for w, r in zip(weights, rows)), F(0)) for i in range(n)]


def _l1(a, b) -> F:
    return sum((abs(x - y) for x, y in zip(a, b)), F(0))


def _event(p, labels, event) -> F:
    return sum((p[labels.index(x)] for x in event), F(0))


class Problems(list):
    def need(self, condition: bool, message: str) -> None:
        if not condition:
            self.append(message)


def _check_simplex_weights(out: Problems, weights, size, total=F(1)) -> None:
    out.need(len(weights) == size, "weight vector has the wrong length")
    out.need(all(w >= 0 for w in weights), "negative weight")
    if total is not None:
        out.need(sum(weights) == total, "weights do not sum as required")


# ------------------------------------------------------------------ credal


def _check_credal(out, doc, op, report, level):
    p_rows = [_vec(r) for r in doc["P_set"]]
    q_rows = [_vec(r) for r in doc["Q_set"]]
    value = F(report["value"])

    def mixtures_attain(rep):
        pw, qw = _vec(rep["p_weights"]), _vec(rep["q_weights"])
        _check_simplex_weights(out, pw, len(p_rows))
        _check_simplex_weights(out, qw, len(q_rows))
        if len(pw) == len(p_rows) and len(qw) == len(q_rows):
            dist = _l1(_combine(pw, p_rows), _combine(qw, q_rows))
            out.need(dist == value, "mixture distance differs from the value")

    def stakes_attain(stakes):
        out.need(len(stakes) == len(p_rows[0]), "stakes have the wrong length")
        out.need(max(abs(v) for v in stakes) <= 1, "stakes exceed unit norm")
        gap = min(_dot(stakes, p) for p in p_rows) - max(
            _dot(stakes, q) for q in q_rows
        )
        out.need(gap == value, "stakes gap differs from the value")

    if op == "distance":
        rep = report["representation"]
        mixtures_attain(rep)
        stakes_attain(_vec(rep["stakes"]))
    elif op in ("gordan-lo", "gordan-hi"):
        eps = F(level)
        if report["verdict"] == "holds":
            out.need(value <= eps, "holds above the tolerance")
            mixtures_attain(report["representation"])
        else:
            cert = report["certificate"]
            out.need(value > eps, "violated at or below the tolerance")
            out.need(F(cert["gap"]) == value, "certificate gap differs")
            stakes_attain(_vec(cert["stakes"]))


# ------------------------------------------------------------------ pooling


def _check_additive(out, planner, members, rep, eps, sum_one=True):
    w = _vec(rep["weights"])
    _check_simplex_weights(out, w, len(members), F(1) if sum_one else None)
    if len(w) != len(members):
        return
    error = [a - b for a, b in zip(planner, _combine(w, members))]
    out.need(_vec(rep["error"]) == error, "error vector is not P minus the mix")
    out.need(sum(abs(e) for e in error) == eps, "error norm differs from eps")


def _check_genest(out, planner, members, rep, eps):
    lam = _vec(rep["weights"])
    _check_simplex_weights(out, lam, len(members), 1 - eps)
    if len(lam) != len(members):
        return
    covered = _combine(lam, members)
    if eps == 0:
        out.need(covered == planner, "opinions do not cover the planner")
        return
    residual = _vec(rep["residual"])
    _check_simplex_weights(out, residual, len(planner))
    rebuilt = [c + eps * r for c, r in zip(covered, residual)]
    out.need(rebuilt == planner, "contamination does not rebuild the planner")


def _check_pareto(out, planner, members, cert, eps, star):
    f, g = _vec(cert["f"]), _vec(cert["g"])
    margins = [_dot(f, q) - _dot(g, q) for q in members]
    out.need(all(m >= 0 for m in margins), "some expert prefers g")
    out.need(_vec(cert["premise_margins"]) == margins, "margins differ")
    h = [a - b for a, b in zip(f, g)]
    osc = max(h) - min(h)
    penalty = osc - max(h) if star else osc / 2
    violation = _dot(g, planner) - eps * penalty - _dot(f, planner)
    out.need(violation > 0, "witness does not violate the condition")
    out.need(F(cert["violation"]) == violation, "violation amount differs")


def _check_pooling(out, doc, op, report, level):
    labels = doc["space"]["labels"]
    planner = _vec(doc["P"])
    members = [_vec(r) for r in doc["Q"]]
    eps_min = F(report["epsilon_min"]) if "epsilon_min" in report else None
    rep = report.get("representation")
    if op in ("pool-additive", "pool-normalized"):
        _check_additive(out, planner, members, rep, eps_min)
    elif op == "pool-genest":
        _check_genest(out, planner, members, rep, eps_min)
    elif op == "pool-free":
        _check_additive(out, planner, members, rep, eps_min, sum_one=False)
    elif op.startswith(("check-c-", "check-cstar-")):
        star = op.startswith("check-cstar-")
        eps = F(level)
        if report["verdict"] == "holds":
            out.need(eps_min <= eps, "holds above the slack")
            if star:
                _check_genest(out, planner, members, rep, eps_min)
            else:
                _check_additive(out, planner, members, rep, eps_min)
        else:
            _check_pareto(out, planner, members, report["certificate"], eps, star)
    elif op.startswith("check-minmax-"):
        eps = F(level)
        body = rep if report["verdict"] == "holds" else report["certificate"]
        event = body["worst_event" if report["verdict"] == "holds" else "event"]
        hi = max(_event(q, labels, event) for q in members)
        out.need(
            2 * (_event(planner, labels, event) - hi) == eps_min,
            "event does not attain the envelope slack",
        )
        out.need((eps_min <= eps) == (report["verdict"] == "holds"),
                 "verdict disagrees with the slack")
    elif op.startswith("check-cm-"):
        eps = F(level)
        body = rep if report["verdict"] == "holds" else report["certificate"]
        e1, e2 = body["worst_events" if report["verdict"] == "holds" else "events"].values()
        out.need(
            all(_event(q, labels, e1) >= _event(q, labels, e2) for q in members),
            "event premise fails for some expert",
        )
        out.need(
            _event(planner, labels, e2) - _event(planner, labels, e1) == eps_min,
            "event pair does not attain the slack",
        )
        out.need((eps_min <= eps) == (report["verdict"] == "holds"),
                 "verdict disagrees with the slack")


# ------------------------------------------------------------------ rum


def _rum_table(doc):
    alts = doc["alternatives"]
    pairs = []
    p0 = []
    for size in range(1, len(alts) + 1):
        for menu in itertools.combinations(alts, size):
            for y in menu:
                pairs.append((y, menu))
                p0.append(F(doc["choice"][f"{y}|{','.join(menu)}"]))
    return alts, pairs, p0


def _pair_key(pair) -> str:
    y, menu = pair
    return f"{y}|{','.join(menu)}"


def _choice_of(ordering, pairs) -> list[int]:
    """Own best-choice rule: the first alternative of the ordering that
    is on the menu is chosen."""
    out = []
    for y, menu in pairs:
        out.append(1 if next(a for a in ordering if a in menu) == y else 0)
    return out


def _mixture_fit(out, alts, pairs, pi_map, total) -> list[F]:
    fitted = [F(0)] * len(pairs)
    weights = []
    for key, w in pi_map.items():
        ordering = tuple(key.split(","))
        out.need(sorted(ordering) == sorted(alts), f"{key} is not an ordering")
        weight = F(w)
        weights.append(weight)
        for i, hit in enumerate(_choice_of(ordering, pairs)):
            if hit:
                fitted[i] += weight
    out.need(all(w >= 0 for w in weights), "negative ordering weight")
    out.need(sum(weights) == total, "ordering weights do not sum to one")
    return fitted


def _sparse(pairs, mapping) -> list[F]:
    keys = [_pair_key(p) for p in pairs]
    return [F(mapping.get(k, "0")) for k in keys]


def _check_rum_additive(out, alts, pairs, p0, rep, eps):
    fitted = _mixture_fit(out, alts, pairs, rep["pi"], F(1))
    error = [a - b for a, b in zip(p0, fitted)]
    out.need(_sparse(pairs, rep.get("error", {})) == error,
             "error map is not P0 minus A pi")
    out.need(sum(abs(e) for e in error) == eps, "sum |P0 - A pi| differs from eps")


def _check_rum_residual(out, alts, pairs, p0, rep, eps):
    if eps != 1:
        fitted = _mixture_fit(out, alts, pairs, rep["pi"], F(1))
    else:
        fitted = [F(0)] * len(pairs)
    residual = _sparse(pairs, rep.get("residual", {})) if eps != 0 else None
    if residual is not None:
        out.need(all(r >= 0 for r in residual), "negative residual mass")
        totals = {}
        for (_, menu), r in zip(pairs, residual):
            totals[menu] = totals.get(menu, F(0)) + r
        out.need(all(t == 1 for t in totals.values()), "residual menu mass is not one")
    for i, p in enumerate(p0):
        rebuilt = (1 - eps) * fitted[i] + (eps * residual[i] if residual else 0)
        if rebuilt != p:
            out.append("(1 - eps) A pi + eps R does not rebuild P0")
            break


def _check_tags(out, alts, pairs, p0, cert, eps, star, max_tag=None):
    tags = [0] * len(pairs)
    index = {_pair_key(p): i for i, p in enumerate(pairs)}
    for key, t in cert["tags"].items():
        out.need(key in index, f"unknown tag key {key}")
        if key in index:
            tags[index[key]] = t
    out.need(all(isinstance(t, int) and t >= 0 for t in tags), "bad tag")
    if max_tag is not None:
        out.need(max(tags) <= max_tag, "tag above the enumerated range")
    lhs = _dot(p0, tags)
    best = max(
        _dot(_choice_of(o, pairs), tags) for o in itertools.permutations(alts)
    )
    if star:
        rhs = (1 - eps) * best + ((1 << len(alts)) - 1) * eps * max(tags)
    else:
        rhs = best + (max(tags) - min(tags)) * eps / 2
    out.need(lhs > rhs, "tag lhs does not exceed rhs")
    out.need(F(cert["lhs"]) == lhs and F(cert["rhs"]) == rhs,
             "reported tag sides differ")
    out.need(cert["width"] == max(tags) - min(tags), "reported width differs")


def _bm_negative_norm(alts, pairs, p0) -> tuple[dict, F]:
    """Alternating superset sums, written out directly."""
    prob = {(y, frozenset(menu)): p for (y, menu), p in zip(pairs, p0)}
    sums = {}
    for y, menu in pairs:
        rest = [a for a in alts if a not in menu]
        total = F(0)
        for size in range(len(rest) + 1):
            for extra in itertools.combinations(rest, size):
                sign = -1 if size % 2 else 1
                total += sign * prob[(y, frozenset(menu) | frozenset(extra))]
        sums[_pair_key((y, menu))] = total
    return sums, sum((-v for v in sums.values() if v < 0), F(0))


def _check_rum(out, doc, op, report, level):
    alts, pairs, p0 = _rum_table(doc)
    eps_min = F(report["epsilon_min"]) if "epsilon_min" in report else None
    rep = report.get("representation")
    if op == "rum-min-eps":
        _check_rum_additive(out, alts, pairs, p0, rep, eps_min)
    elif op == "rum-residual":
        _check_rum_residual(out, alts, pairs, p0, rep, eps_min)
    elif op in ("rum-check-lo", "rum-check-hi", "rum-star-lo"):
        star = op == "rum-star-lo"
        eps = F(level)
        if report["verdict"] == "holds":
            out.need(eps_min <= eps, "holds above the level")
            if star:
                _check_rum_residual(out, alts, pairs, p0, rep, eps_min)
            else:
                _check_rum_additive(out, alts, pairs, p0, rep, eps_min)
        else:
            _check_tags(out, alts, pairs, p0, report["certificate"], eps, star)
    elif op == "exhaustive-rum":
        if report["verdict"] == "violated":
            _check_tags(out, alts, pairs, p0, report["certificate"],
                        F(level), False, max_tag=2)
    elif op == "rum-bm":
        sums, norm = _bm_negative_norm(alts, pairs, p0)
        bm = rep["bm"]
        out.need({k: F(v) for k, v in bm.items()} == sums,
                 "alternating sums differ")
        out.need(F(report["value"]) == norm, "negative norm differs")
        out.need((rep["hoffman_ratio"] is None) == (norm == 0),
                 "hoffman ratio present exactly when the norm is positive")
    elif op == "validate":
        out.need(report["value"] == len(pairs), "validated table lost pairs")
    elif op == "score":
        for k, (lhs, _) in enumerate(report["sides"]):
            tags = doc["tags"][k // 2]
            out.need(lhs == _dot(p0, tags), "score lhs is not P0 . tags")


def _check_kr(out, doc, report):
    metric = [_vec(r) for r in doc["space"]["metric"]]
    p, q = _vec(doc["P"]), _vec(doc["Q"])
    f = _vec(report["stakes"])
    n = len(f)
    out.need(all(abs(v) <= 1 for v in f), "stakes exceed one")
    out.need(
        all(f[i] - f[j] <= metric[i][j] for i in range(n) for j in range(n)),
        "stakes are not 1-Lipschitz",
    )
    out.need(
        _dot(f, [a - b for a, b in zip(p, q)]) == F(report["value"]),
        "stakes do not attain the value",
    )


# ------------------------------------------------------------------ entry

_SCALAR_KEYS = ("value", "epsilon_min")
_LEVEL_OF = {
    "gordan-lo": "dist_lo", "gordan-hi": "dist_hi",
    "check-c-lo": "add_lo", "check-c-hi": "add_hi",
    "check-cstar-lo": "gen_lo", "check-cstar-hi": "gen_hi",
    "check-minmax-lo": "mm_lo", "check-minmax-hi": "mm_hi",
    "check-cm-lo": "cm_lo", "check-cm-hi": "cm_hi",
    "rum-check-lo": "rum_lo", "rum-check-hi": "rum_hi",
    "rum-star-lo": "res_lo", "exhaustive-rum": "rum_lo",
}


def summarize(code: int, report: dict) -> dict:
    """What expected.json records for an operation."""
    scalar = None
    for key in _SCALAR_KEYS:
        if key in report:
            scalar = str(report[key])
            break
    if "sides" in report:
        scalar = [[str(a), str(b)] for a, b in report["sides"]]
    return {"code": code, "verdict": report.get("verdict"), "scalar": scalar}


def check_op(doc: dict, levels: dict, op: str, code: int, report: dict,
             expected: dict) -> list[str]:
    """Problems found with one operation's outcome; empty when correct."""
    out = Problems()
    got = summarize(code, report)
    out.need(got["code"] == expected["code"],
             f"exit code {got['code']}, expected {expected['code']}")
    out.need(got["verdict"] == expected["verdict"],
             f"verdict {got['verdict']!r}, expected {expected['verdict']!r}")
    if got["scalar"] != expected["scalar"]:
        out.append(f"scalar {got['scalar']}, expected {expected['scalar']}")
    if out or "error" in report:
        out.need("error" not in report, f"error: {report.get('error')}")
        return out
    level = levels.get(_LEVEL_OF.get(op, ""))
    try:
        kind = doc["kind"]
        if kind == "credal":
            if op != "vertex-distance":
                _check_credal(out, doc, op, report, level)
            else:
                out.need(F(report["value"]) == F(levels["dist"]),
                         "oracle disagrees with the LP distance")
        elif kind == "pooling":
            _check_pooling(out, doc, op, report, level)
        elif kind == "rum":
            _check_rum(out, doc, op, report, level)
        elif kind == "kr":
            _check_kr(out, doc, report)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        out.append(f"malformed report: {type(exc).__name__}: {exc}")
    return out
