"""Instances and operation lists of the three workloads.

Every workload is a round template: a list of slots, each naming a
stratum (a family of instances of one shape) and the operations run on
the instance drawn for it.  Each stratum has a fixed pool of
``POOL_SIZE`` instances made from fixed generator seeds, so the expected
answers in ``expected.json`` can be recorded once.  The run seed picks
which pool instance fills each slot in each round and shuffles the
order of the round's operations.  A run is a whole number of rounds, so
every run of a workload has the same mix of operation kinds.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Optional

POOL_SIZE = 4

NIELSEN_LABELS = ["1", "2", "3"]
NIELSEN_P = ["1/3", "1/3", "1/3"]
NIELSEN_Q = [["2/3", "1/3", "0"], ["1/3", "2/3", "0"]]


@dataclass(frozen=True)
class Stratum:
    name: str
    # credal | pooling | nielsen-credal | nielsen-pool | rum | rum-near
    # | rum-mixture | kr
    kind: str
    points: int = 0  # points, or alternatives for rum kinds
    p_members: int = 1
    q_members: int = 1
    denom: int = 24
    metric: str = ""  # kr only: harmonic | line


@dataclass(frozen=True)
class Slot:
    stratum: str
    ops: tuple[str, ...]
    fixed_index: Optional[int] = None  # same pool entry in every round


# ---------------------------------------------------------------- generators


def _prob(rng: random.Random, n: int, denom: int) -> list[str]:
    cuts = sorted(rng.randrange(denom + 1) for _ in range(n - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [denom])]
    return [str(F(p, denom)) for p in parts]


def _menus(alts):
    n = len(alts)
    return [
        tuple(alts[i] for i in combo)
        for size in range(1, n + 1)
        for combo in itertools.combinations(range(n), size)
    ]


def _best(ordering, menu):
    return next(a for a in ordering if a in menu)


def _key(y, menu) -> str:
    return f"{y}|{','.join(menu)}"


def _random_rum(rng: random.Random, n: int, denom: int) -> dict:
    alts = [str(i + 1) for i in range(n)]
    choice = {}
    for menu in _menus(alts):
        for y, p in zip(menu, _prob(rng, len(menu), denom)):
            choice[_key(y, menu)] = p
    return {"kind": "rum", "alternatives": alts, "choice": choice}


def _mixture_rum(
    rng: random.Random, n: int, denom: int, orderings: int, noise: int
) -> tuple[dict, dict]:
    """A mixture over a few random orderings, then *noise* lattice steps
    of 1/denom moved between two members of every menu (clipped at 0).
    Returns the document and the mixture (ordering key -> weight)."""
    alts = [str(i + 1) for i in range(n)]
    chosen = set()
    while len(chosen) < orderings:
        chosen.add(tuple(rng.sample(alts, n)))
    chosen = sorted(chosen)
    cuts = sorted(rng.sample(range(1, denom), orderings - 1))
    weights = [
        F(b - a, denom) for a, b in zip([0] + cuts, cuts + [denom])
    ]
    choice = {}
    for menu in _menus(alts):
        probs = {y: F(0) for y in menu}
        for w, ordering in zip(weights, chosen):
            probs[_best(ordering, menu)] += w
        if noise and len(menu) > 1:
            a, b = rng.sample(menu, 2)
            step = min(probs[a], F(noise, denom))
            probs[a] -= step
            probs[b] += step
        for y in menu:
            choice[_key(y, menu)] = str(probs[y])
    mixture = {",".join(o): str(w) for o, w in zip(chosen, weights)}
    return {"kind": "rum", "alternatives": alts, "choice": choice}, mixture


def _line_space(rng: random.Random, n: int) -> tuple[list[str], list[list[str]]]:
    points = sorted(rng.sample(range(0, 60), n))
    points = [F(p, 12) for p in points]
    labels = [str(p) for p in points]
    metric = [[str(abs(a - b)) for b in points] for a in points]
    return labels, metric


def _harmonic_space() -> tuple[list[str], list[list[str]]]:
    points = [F(0), F(1), F(1, 2), F(1, 3), F(1, 4), F(1, 5)]
    labels = [str(p) for p in points]
    metric = [[str(abs(a - b)) for b in points] for a in points]
    return labels, metric


def make_instance(stratum: Stratum, index: int) -> dict:
    """The pool entry *index* of *stratum*, as a JSON-ready document.
    Generator seeds are fixed: the same call always gives the same
    document (``digest`` checks this against ``expected.json``)."""
    rng = random.Random(f"{stratum.name}/{index}")
    s = stratum
    if s.kind == "nielsen-credal":
        return {
            "kind": "credal",
            "space": {"labels": NIELSEN_LABELS},
            "P_set": [NIELSEN_P],
            "Q_set": NIELSEN_Q,
        }
    if s.kind == "nielsen-pool":
        return {
            "kind": "pooling",
            "space": {"labels": NIELSEN_LABELS},
            "P": NIELSEN_P,
            "Q": NIELSEN_Q,
        }
    if s.kind == "credal":
        return {
            "kind": "credal",
            "space": {"labels": [str(i) for i in range(s.points)]},
            "P_set": [_prob(rng, s.points, s.denom) for _ in range(s.p_members)],
            "Q_set": [_prob(rng, s.points, s.denom) for _ in range(s.q_members)],
        }
    if s.kind == "pooling":
        return {
            "kind": "pooling",
            "space": {"labels": [str(i) for i in range(s.points)]},
            "P": _prob(rng, s.points, s.denom),
            "Q": [_prob(rng, s.points, s.denom) for _ in range(s.q_members)],
        }
    if s.kind == "rum":
        return _random_rum(rng, s.points, s.denom)
    if s.kind in ("rum-near", "rum-mixture"):
        noise = 2 if s.kind == "rum-near" else 0
        doc, mixture = _mixture_rum(rng, s.points, s.denom, s.q_members, noise)
        if s.kind == "rum-mixture":
            doc["mixture"] = mixture
            # a few fixed tag vectors for the score operation
            m = sum(len(menu) for menu in _menus(doc["alternatives"]))
            doc["tags"] = [
                [rng.randrange(4) for _ in range(m)] for _ in range(2)
            ]
        return doc
    if s.kind == "kr":
        if s.metric == "harmonic":
            labels, metric = _harmonic_space()
        else:
            labels, metric = _line_space(rng, s.points)
        n = len(labels)
        return {
            "kind": "kr",
            "space": {"labels": labels, "metric": metric},
            "P": _prob(rng, n, s.denom),
            "Q": _prob(rng, n, s.denom),
        }
    raise ValueError(f"unknown stratum kind {s.kind!r}")


def digest(doc: dict) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------- templates

# Operation names map to an argv (CLI ops, with {path} and level
# placeholders) or to a library call (see harness.py).  Thresholds come from
# the recorded levels so that "lo" sits below the level and "hi" above it.
CLI_OPS = {
    "distance": ["distance", "{path}"],
    "gordan-lo": ["gordan", "--eps", "{dist_lo}", "{path}"],
    "gordan-hi": ["gordan", "--eps", "{dist_hi}", "{path}"],
    "vertex-distance": ["verify", "vertex-distance", "{path}"],
    "pool-additive": ["pool", "min-eps", "{path}"],
    "pool-genest": ["pool", "min-eps", "--genest", "{path}"],
    "pool-normalized": ["pool", "min-eps", "--normalized", "{path}"],
    "pool-free": ["pool", "min-eps", "--free", "{path}"],
    "check-c-lo": ["pool", "check", "--condition", "c", "--eps", "{add_lo}", "{path}"],
    "check-c-hi": ["pool", "check", "--condition", "c", "--eps", "{add_hi}", "{path}"],
    "check-cstar-lo": ["pool", "check", "--condition", "cstar", "--eps", "{gen_lo}", "{path}"],
    "check-cstar-hi": ["pool", "check", "--condition", "cstar", "--eps", "{gen_hi}", "{path}"],
    "check-minmax-lo": ["pool", "check", "--condition", "minmax", "--eps", "{mm_lo}", "{path}"],
    "check-minmax-hi": ["pool", "check", "--condition", "minmax", "--eps", "{mm_hi}", "{path}"],
    "check-cm-lo": ["pool", "check", "--condition", "cm", "--eps", "{cm_lo}", "{path}"],
    "check-cm-hi": ["pool", "check", "--condition", "cm", "--eps", "{cm_hi}", "{path}"],
    # the instance must follow the oracle name: argparse binds both
    # positionals at the first one
    "exhaustive-rum": ["verify", "exhaustive-rum", "{path}", "--eps", "{rum_lo}", "--max-tag", "2"],
    "rum-min-eps": ["rum", "min-eps", "{path}"],
    "rum-residual": ["rum", "min-eps", "--residual", "{path}"],
    "rum-check-lo": ["rum", "check", "--eps", "{rum_lo}", "{path}"],
    "rum-check-hi": ["rum", "check", "--eps", "{rum_hi}", "{path}"],
    "rum-star-lo": ["rum", "check", "--star", "--eps", "{res_lo}", "{path}"],
    "rum-bm": ["rum", "bm", "{path}"],
}

_CREDAL = ("distance", "gordan-lo", "gordan-hi")
_POOL = (
    "pool-additive", "pool-genest", "pool-normalized", "pool-free",
    "check-c-lo", "check-c-hi", "check-cstar-lo", "check-cstar-hi",
    "check-minmax-lo", "check-minmax-hi",
)
_CM = ("check-cm-lo", "check-cm-hi")
_RUM = ("rum-min-eps", "rum-residual", "rum-check-lo", "rum-check-hi",
        "rum-star-lo")

STRATA = {
    s.name: s
    for s in (
        # credal-pool
        Stratum("nielsen-credal", "nielsen-credal", 3),
        Stratum("nielsen-pool", "nielsen-pool", 3),
        Stratum("credal-3", "credal", 3, 1, 2, 24),
        Stratum("credal-5", "credal", 5, 2, 3, 60),
        Stratum("credal-8", "credal", 8, 3, 5, 1000),
        Stratum("credal-12", "credal", 12, 4, 8, 60),
        Stratum("pool-4", "pooling", 4, 1, 2, 24),
        Stratum("pool-6", "pooling", 6, 1, 4, 1000),
        Stratum("pool-8", "pooling", 8, 1, 3, 60),
        Stratum("pool-12", "pooling", 12, 1, 8, 24),
        Stratum("rum-3-oracle", "rum", 3, denom=12),
        Stratum("kr-harmonic", "kr", 6, denom=60, metric="harmonic"),
        Stratum("kr-line", "kr", 9, denom=24, metric="line"),
        # rum-solve
        Stratum("rum-3-random", "rum", 3, denom=20),
        Stratum("rum-3-near", "rum-near", 3, q_members=3, denom=60),
        Stratum("rum-4-random", "rum", 4, denom=20),
        Stratum("rum-4-near", "rum-near", 4, q_members=3, denom=60),
        Stratum("rum-5-random", "rum", 5, denom=20),
        # rum-wide
        Stratum("wide-6", "rum-mixture", 6, q_members=4, denom=60),
        Stratum("wide-7", "rum-mixture", 7, q_members=5, denom=60),
    )
}

WORKLOADS = {
    "credal-pool": (
        Slot("nielsen-credal", _CREDAL + ("vertex-distance",), 0),
        Slot("nielsen-pool", _POOL + _CM, 0),
        Slot("credal-3", _CREDAL + ("vertex-distance",)),
        Slot("credal-5", _CREDAL + ("vertex-distance",)),
        Slot("credal-8", _CREDAL),
        # the p90 falls among the 12-point distance programs, whose cost
        # varies by table: every round runs all four
        Slot("credal-12", _CREDAL, 0),
        Slot("credal-12", _CREDAL, 1),
        Slot("credal-12", _CREDAL, 2),
        Slot("credal-12", _CREDAL, 3),
        Slot("pool-4", _POOL + _CM),
        Slot("pool-6", _POOL + _CM),
        Slot("pool-8", _POOL + _CM),
        Slot("pool-12", _POOL),
        Slot("rum-3-oracle", ("exhaustive-rum",)),
        Slot("kr-harmonic", ("kr",)),
        Slot("kr-harmonic", ("kr",)),
        Slot("kr-line", ("kr",)),
        Slot("kr-line", ("kr",)),
    ),
    "rum-solve": (
        (Slot("rum-3-random", _RUM), Slot("rum-3-near", _RUM)) * 4
        + (
            # nine n=3 tables put the p90 mid-way into the n=4 min-eps
            # and check-lo times, whether a run has two rounds or three
            Slot("rum-3-random", _RUM),
            # the n=4 and n=5 programs set the run time and the p90, and
            # their cost varies by table, so the same tables serve every
            # round and every seed; the seed varies the n=3 tables.  One
            # n=5 op per round keeps a round near 11 s, so a run has the
            # three rounds its p90 and throughput need.
            Slot("rum-4-random", _RUM, 0),
            Slot("rum-4-near", _RUM, 0),
            Slot("rum-5-random", ("rum-min-eps",), 0),
        )
    ),
    "rum-wide": (
        Slot("wide-7", ("rum-bm", "validate", "score")),
        Slot("wide-6", ("rum-bm", "validate", "score")),
    )
    + (Slot("wide-7", ("rum-bm", "validate")), Slot("wide-6", ("rum-bm", "validate"))) * 3
    + (Slot("wide-7", ("validate",)),) * 16
    + (Slot("wide-6", ("validate",)),) * 2,
}


def used_indices(workload: str, stratum: str) -> list[int]:
    """Pool entries a workload can draw: all of them, unless every slot
    of the stratum pins one."""
    slots = [s for s in WORKLOADS[workload] if s.stratum == stratum]
    if all(s.fixed_index is not None for s in slots):
        return sorted({s.fixed_index for s in slots})
    return list(range(POOL_SIZE))


def strata_of(workload: str) -> list[str]:
    seen = []
    for slot in WORKLOADS[workload]:
        if slot.stratum not in seen:
            seen.append(slot.stratum)
    return seen


def op_names_of(workload: str, stratum: str) -> list[str]:
    names = []
    for slot in WORKLOADS[workload]:
        if slot.stratum == stratum:
            names.extend(n for n in slot.ops if n not in names)
    return names


def draw_round(workload: str, rng: random.Random) -> list[tuple[str, int, str]]:
    """One round: (stratum, pool index, operation name) triples in a
    shuffled order."""
    ops = []
    for slot in WORKLOADS[workload]:
        if slot.fixed_index is not None:
            index = slot.fixed_index
        else:
            index = rng.randrange(POOL_SIZE)
        ops.extend((slot.stratum, index, name) for name in slot.ops)
    rng.shuffle(ops)
    return ops
