"""Approximate random utility maximization over full menu domains.

A stochastic choice function assigns each nonempty menu of alternatives
a probability vector over its members.  It is rationalizable when it
equals a mixture over strict orderings, each ordering choosing its best
available alternative.  The functions here measure how far a choice
function is from rationalizable in two exact senses:

* additive: the least ``eps`` admitting ``P0 = A pi + e`` with mixture
  ``pi`` and ``sum_i |e_i| <= eps``, where A is the 0/1 matrix of best
  choices (rows are (alternative, menu) pairs, columns orderings), which
  is the L1 fit ``duality._l1_fit`` of P0 to the columns of A;
* residual: the least ``eps`` admitting ``P0 = (1 - eps) A pi + eps R``
  with R an arbitrary per-menu probability kernel, so the deviation is
  itself choice-like rather than merely small.

Each distance pairs with a finite test on integer-tagged trials: a tag
vector t counts how often each (alternative, menu) pair is put on trial,
and rationality-up-to-eps bounds the planner's total success against the
best single ordering plus a slack proportional to the tag spread (or,
for the residual variant, to the largest tag).  When a check fails, the
returned tag vector violates that inequality strictly, and is verified
by substitution before being returned.

Enumeration of orderings is factorial, so the alternative count is
capped (default 7, overridable via the ``NRB_MAX_ALTERNATIVES``
environment variable or an explicit argument).
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .duality import _l1_fit
from .errors import CapExceededError, InputError, InternalCheckError
from .rational import parse_rational
from .simplex import (
    EQUAL,
    INFEASIBLE,
    OPTIMAL,
    LinearProgram,
    solve_lp,
)

__all__ = [
    "ENV_MAX_ALTERNATIVES",
    "DEFAULT_ALTERNATIVES_CAP",
    "max_alternatives",
    "RumInstance",
    "ChoiceMatrix",
    "RumReport",
    "TaggedTrialSequence",
    "enumerate_menus",
    "enumerate_orderings",
    "build_matrix",
    "instance_from_mixture",
    "rum_min_eps",
    "check_eps_arsp",
    "rum_residual_min_eps",
    "check_eps_arsp_star",
    "evaluate_arsp",
    "evaluate_arsp_star",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_UNIT = (_ZERO, _ONE)

ENV_MAX_ALTERNATIVES = "NRB_MAX_ALTERNATIVES"
DEFAULT_ALTERNATIVES_CAP = 7


def max_alternatives() -> int:
    """Current alternative-count cap (environment override or default)."""
    raw = os.environ.get(ENV_MAX_ALTERNATIVES)
    if raw is None:
        return DEFAULT_ALTERNATIVES_CAP
    try:
        value = int(raw)
    except ValueError as exc:
        raise InputError(
            f"{ENV_MAX_ALTERNATIVES} must be an integer, got {raw!r}"
        ) from exc
    if value < 1:
        raise InputError(f"{ENV_MAX_ALTERNATIVES} must be positive")
    return value


def _check_cap(n: int, cap: Optional[int]) -> None:
    limit = cap if cap is not None else max_alternatives()
    if n > limit:
        raise CapExceededError(
            f"{n} alternatives exceed the enumeration cap of {limit}"
        )


def enumerate_menus(alternatives: Sequence[str]) -> tuple[tuple[str, ...], ...]:
    """All nonempty menus, smallest first, lexicographic within a size
    (positions in the alternative list give the letter order)."""
    n = len(alternatives)
    out = []
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            out.append(tuple(alternatives[i] for i in combo))
    return tuple(out)


def enumerate_orderings(
    alternatives: Sequence[str], cap: Optional[int] = None
) -> tuple[tuple[str, ...], ...]:
    """All strict orderings (best alternative first), lexicographic by
    position in the alternative list.  Refuses above the cap."""
    _check_cap(len(alternatives), cap)
    return tuple(itertools.permutations(alternatives))


@dataclass(frozen=True)
class RumInstance:
    """A stochastic choice function on the full menu domain.

    ``choice`` maps ``(alternative, menu)`` to the probability of that
    alternative being chosen from that menu.  Menus are tuples in the
    order of ``alternatives``; the constructor canonicalizes and demands
    a complete table: every pair present, nothing extra, menu rows
    summing to one.
    """

    alternatives: tuple[str, ...]
    choice: Mapping[tuple[str, tuple[str, ...]], Fraction]

    def __post_init__(self) -> None:
        alts = tuple(str(a) for a in self.alternatives)
        if not alts:
            raise InputError("need at least one alternative")
        if len(set(alts)) != len(alts):
            raise InputError("alternatives must be distinct")
        object.__setattr__(self, "alternatives", alts)
        order = {a: i for i, a in enumerate(alts)}
        table: dict[tuple[str, tuple[str, ...]], Fraction] = {}
        for key, value in dict(self.choice).items():
            try:
                y, menu = key
            except (TypeError, ValueError) as exc:
                raise InputError(f"bad choice key {key!r}") from exc
            menu = tuple(menu)
            if any(a not in order for a in menu) or y not in order:
                raise InputError(f"unknown alternative in {key!r}")
            if len(set(menu)) != len(menu):
                raise InputError(f"menu {menu!r} repeats an alternative")
            canon = tuple(sorted(menu, key=order.__getitem__))
            if y not in canon:
                raise InputError(f"{y!r} is not on the menu {menu!r}")
            prob = parse_rational(value)
            if prob < 0:
                raise InputError(f"negative probability at {key!r}")
            if (y, canon) in table:
                raise InputError(f"duplicate entry for {(y, canon)!r}")
            table[(y, canon)] = prob
        missing = []
        for menu in enumerate_menus(alts):
            total = _ZERO
            for y in menu:
                if (y, menu) not in table:
                    missing.append((y, menu))
                else:
                    total += table[(y, menu)]
            if not missing and total != 1:
                raise InputError(
                    f"choice probabilities on menu {menu!r} sum to {total}"
                )
        if missing:
            raise InputError(f"missing choice entries: {missing}")
        expected = sum(
            len(menu) for menu in enumerate_menus(alts)
        )
        if len(table) != expected:
            extras = set(table) - {
                (y, m) for m in enumerate_menus(alts) for y in m
            }
            raise InputError(f"unexpected choice entries: {sorted(extras)}")
        object.__setattr__(self, "choice", table)

    @property
    def n_alternatives(self) -> int:
        return len(self.alternatives)

    def menus(self) -> tuple[tuple[str, ...], ...]:
        return enumerate_menus(self.alternatives)

    def pairs(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """Row order of every matrix and report: menus as enumerated,
        alternatives in list order within each menu."""
        return tuple(
            (y, menu) for menu in self.menus() for y in menu
        )

    def probability(self, y: str, menu: tuple[str, ...]) -> Fraction:
        return self.choice[(y, menu)]


@dataclass(frozen=True)
class ChoiceMatrix:
    """0/1 matrix of rational best choices: entry (pair, ordering) is 1
    exactly when the pair's alternative is the ordering's favorite on
    the pair's menu."""

    pairs: tuple[tuple[str, tuple[str, ...]], ...]
    orderings: tuple[tuple[str, ...], ...]
    rows: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class TaggedTrialSequence:
    """Nonnegative integer tags over the (alternative, menu) pairs,
    with ``width`` the spread ``max - min``."""

    tags: tuple[int, ...]
    width: int = 0

    def __post_init__(self) -> None:
        tags = tuple(self.tags)
        if not tags:
            raise InputError("empty tag vector")
        if any(not isinstance(t, int) or t < 0 for t in tags):
            raise InputError("tags must be nonnegative integers")
        object.__setattr__(self, "tags", tags)
        object.__setattr__(self, "width", max(tags) - min(tags))


@dataclass(frozen=True)
class RumReport:
    """Optimal approximation at the reported level.

    ``kind`` is ``"additive"`` or ``"residual"``.  ``pi`` aligns with
    the ordering enumeration, ``error`` and ``residual`` with the pair
    enumeration.  ``pi`` is omitted in the residual report when the
    whole mass is residual (eps = 1); ``residual`` is omitted at eps 0.
    """

    kind: str
    epsilon_min: Fraction
    pi: Optional[tuple[Fraction, ...]] = None
    error: Optional[tuple[Fraction, ...]] = None
    residual: Optional[tuple[Fraction, ...]] = None


def build_matrix(inst: RumInstance, cap: Optional[int] = None) -> ChoiceMatrix:
    """Enumerate orderings and tabulate their best choices."""
    orderings = enumerate_orderings(inst.alternatives, cap)
    rank = [
        {a: i for i, a in enumerate(ordering)} for ordering in orderings
    ]
    pairs = inst.pairs()
    rows = []
    for y, menu in pairs:
        row = []
        for r in rank:
            best = min(menu, key=r.__getitem__)
            row.append(1 if best == y else 0)
        rows.append(tuple(row))
    return ChoiceMatrix(
        pairs=pairs, orderings=orderings, rows=tuple(rows)
    )


def instance_from_mixture(
    alternatives: Sequence[str],
    weights: Sequence[object],
    cap: Optional[int] = None,
) -> RumInstance:
    """The stochastic choice function of a mixture over orderings."""
    alts = tuple(alternatives)
    orderings = enumerate_orderings(alts, cap)
    w = tuple(parse_rational(v) for v in weights)
    if len(w) != len(orderings):
        raise InputError(
            f"expected {len(orderings)} ordering weights, got {len(w)}"
        )
    if any(v < 0 for v in w) or sum(w) != 1:
        raise InputError("ordering weights must be a probability vector")
    table: dict[tuple[str, tuple[str, ...]], Fraction] = {}
    for menu in enumerate_menus(alts):
        for y in menu:
            table[(y, menu)] = _ZERO
    for weight, ordering in zip(w, orderings):
        if not weight:
            continue
        rank = {a: i for i, a in enumerate(ordering)}
        for menu in enumerate_menus(alts):
            best = min(menu, key=rank.__getitem__)
            table[(best, menu)] += weight
    return RumInstance(alternatives=alts, choice=table)


def _p0_vector(inst: RumInstance, matrix: ChoiceMatrix) -> list[Fraction]:
    return [inst.probability(y, menu) for y, menu in matrix.pairs]


def _min_eps_with_stakes(
    inst: RumInstance, cap: Optional[int] = None
) -> tuple[RumReport, ChoiceMatrix, tuple[Fraction, ...]]:
    """Solve the additive approximation program, the L1 fit of P0 to
    the matrix columns in one block, and also return the optimal dual
    stakes over the pairs (the betting side)."""
    matrix = build_matrix(inst, cap)
    columns = [tuple(_UNIT[a] for a in col) for col in zip(*matrix.rows)]
    eps, pi, error, stakes = _l1_fit(
        _p0_vector(inst, matrix), columns, (range(len(columns)),)
    )
    report = RumReport(
        kind="additive", epsilon_min=eps, pi=pi, error=error
    )
    return report, matrix, stakes


def rum_min_eps(inst: RumInstance, cap: Optional[int] = None) -> RumReport:
    """Least additive approximation level (L1 distance from the choice
    function to the rationalizable polytope, in pair coordinates)."""
    report, _, _ = _min_eps_with_stakes(inst, cap)
    return report


def evaluate_arsp(
    inst: RumInstance,
    matrix: ChoiceMatrix,
    tags: Sequence[int],
    eps: object,
) -> tuple[Fraction, Fraction]:
    """Sides of the tagged-trials inequality at slack *eps*: observed
    success total versus best-ordering total plus ``width * eps / 2``.
    The condition holds when lhs <= rhs for every tag vector."""
    tol = parse_rational(eps)
    t = list(tags)
    if len(t) != len(matrix.pairs):
        raise InputError("tag vector length mismatch")
    p0 = _p0_vector(inst, matrix)
    lhs = sum((p0[i] * t[i] for i in range(len(t))), _ZERO)
    best = max(
        sum(t[i] for i in range(len(t)) if matrix.rows[i][j])
        for j in range(len(matrix.orderings))
    )
    width = max(t) - min(t)
    rhs = best + Fraction(width) * tol / 2
    return lhs, rhs


def evaluate_arsp_star(
    inst: RumInstance,
    matrix: ChoiceMatrix,
    tags: Sequence[int],
    eps: object,
) -> tuple[Fraction, Fraction]:
    """Sides of the residual-variant inequality: observed total versus
    ``(1 - eps) * best ordering + (2^n - 1) * eps * max tag``."""
    tol = parse_rational(eps)
    t = list(tags)
    if len(t) != len(matrix.pairs):
        raise InputError("tag vector length mismatch")
    p0 = _p0_vector(inst, matrix)
    lhs = sum((p0[i] * t[i] for i in range(len(t))), _ZERO)
    best = max(
        sum(t[i] for i in range(len(t)) if matrix.rows[i][j])
        for j in range(len(matrix.orderings))
    )
    n_menus = (1 << len(inst.alternatives)) - 1
    rhs = (1 - tol) * best + n_menus * tol * max(t)
    return lhs, rhs


def _clear_denominators(values: Sequence[Fraction]) -> list[int]:
    scale = math.lcm(*(v.denominator for v in values))
    ints = [int(v * scale) for v in values]
    g = math.gcd(*ints)
    if g > 1:
        ints = [t // g for t in ints]
    return ints


def check_eps_arsp(
    inst: RumInstance, eps: object, cap: Optional[int] = None
) -> Optional[TaggedTrialSequence]:
    """Tagged-trials rationality test at slack *eps*.

    Returns None when every integer tag vector satisfies the inequality
    (equivalently, the additive level is at most eps).  Otherwise builds
    a violating tag vector from the optimal dual stakes
    (``_arsp_certificate``).
    """
    return _arsp_check(inst, eps, cap)[0]


def _arsp_check(
    inst: RumInstance, eps: object, cap: Optional[int] = None
) -> tuple[Optional[TaggedTrialSequence], RumReport, ChoiceMatrix]:
    """``check_eps_arsp`` with the additive report and the matrix it
    was decided on."""
    tol = parse_rational(eps)
    if tol < 0:
        raise InputError("slack must be nonnegative")
    report, matrix, stakes = _min_eps_with_stakes(inst, cap)
    if report.epsilon_min <= tol:
        return None, report, matrix
    return _arsp_certificate(inst, matrix, stakes, tol), report, matrix


def _arsp_certificate(
    inst: RumInstance,
    matrix: ChoiceMatrix,
    stakes: Sequence[Fraction],
    tol: Fraction,
) -> TaggedTrialSequence:
    """Shift the stakes to be nonnegative, clear denominators, reduce by
    the gcd, and verify the strict violation by substitution."""
    shift = min(stakes)
    tags = _clear_denominators([v - shift for v in stakes])
    cert = TaggedTrialSequence(tags=tuple(tags), width=0)
    lhs, rhs = evaluate_arsp(inst, matrix, cert.tags, tol)
    if not lhs > rhs:
        raise InternalCheckError("tag certificate fails to violate")
    return cert


def _residual_rows(
    matrix: ChoiceMatrix, p0: Sequence[Fraction], eps_fixed: Optional[Fraction]
) -> tuple[tuple, int]:
    """Rows for the residual decomposition: mixture mass plus per-pair
    residual mass reproduce the choice function; total mixture mass is
    1 - eps.  With *eps_fixed* None, eps is the last variable."""
    m = len(matrix.pairs)
    n_ord = len(matrix.orderings)
    nvars = n_ord + m + (0 if eps_fixed is not None else 1)
    rows = []
    for i in range(m):
        coeffs = [_ZERO] * nvars
        for j in range(n_ord):
            if matrix.rows[i][j]:
                coeffs[j] = _ONE
        coeffs[n_ord + i] = _ONE
        rows.append((tuple(coeffs), EQUAL, p0[i]))
    coeffs = [_ZERO] * nvars
    for j in range(n_ord):
        coeffs[j] = _ONE
    if eps_fixed is None:
        coeffs[nvars - 1] = _ONE
        rows.append((tuple(coeffs), EQUAL, _ONE))
    else:
        rows.append((tuple(coeffs), EQUAL, _ONE - eps_fixed))
    return tuple(rows), nvars


def rum_residual_min_eps(
    inst: RumInstance, cap: Optional[int] = None
) -> RumReport:
    """Least eps with ``P0 = (1 - eps) A pi + eps R`` where R assigns
    each menu a probability vector over its members.  Always solvable:
    eps = 1 puts everything in the residual."""
    return _residual_report(inst, build_matrix(inst, cap))


def _residual_report(inst: RumInstance, matrix: ChoiceMatrix) -> RumReport:
    p0 = _p0_vector(inst, matrix)
    m = len(matrix.pairs)
    n_ord = len(matrix.orderings)
    rows, nvars = _residual_rows(matrix, p0, None)
    objective = [_ZERO] * (nvars - 1) + [_ONE]
    lp = LinearProgram(
        objective=tuple(objective),
        sense="min",
        constraints=rows,
        lower=(_ZERO,) * nvars,
    )
    sol = solve_lp(lp)
    if sol.status != OPTIMAL:  # pragma: no cover - eps = 1 is feasible
        raise InternalCheckError(f"residual program came back {sol.status}")
    eps = sol.objective_value
    mu = sol.primal[:n_ord]
    rho = sol.primal[n_ord : n_ord + m]
    pi = None
    if eps != 1:
        pi = tuple(v / (1 - eps) for v in mu)
    residual = None
    if eps != 0:
        residual = tuple(v / eps for v in rho)
        _verify_residual_kernel(matrix, residual, eps)
    for i in range(m):
        fitted = sum((mu[j] for j in range(n_ord) if matrix.rows[i][j]), _ZERO)
        if fitted + rho[i] != p0[i]:
            raise InternalCheckError("residual decomposition fails")
    return RumReport(
        kind="residual", epsilon_min=eps, pi=pi, residual=residual
    )


def _verify_residual_kernel(
    matrix: ChoiceMatrix, residual: Sequence[Fraction], eps: Fraction
) -> None:
    """The recovered residual must be a probability vector on each menu."""
    if any(v < 0 for v in residual):
        raise InternalCheckError("negative residual mass")
    totals: dict[tuple[str, ...], Fraction] = {}
    for idx, (_, menu) in enumerate(matrix.pairs):
        totals[menu] = totals.get(menu, _ZERO) + residual[idx]
    if any(total != 1 for total in totals.values()):
        raise InternalCheckError("residual menu masses must each be one")


def check_eps_arsp_star(
    inst: RumInstance, eps: object, cap: Optional[int] = None
) -> Optional[TaggedTrialSequence]:
    """Residual-variant rationality test at level *eps* in [0, 1].

    Returns None when the residual decomposition exists at this level.
    Otherwise the Farkas multipliers of the failed system are shifted
    per menu (every menu's top tag equal to the global top), cleared to
    integers, gcd-reduced, and verified to violate the inequality
    strictly.
    """
    return _arsp_star_check(inst, eps, cap)[0]


def _arsp_star_check(
    inst: RumInstance, eps: object, cap: Optional[int] = None
) -> tuple[Optional[TaggedTrialSequence], ChoiceMatrix]:
    """``check_eps_arsp_star`` with the matrix it was decided on."""
    tol = parse_rational(eps)
    if not (0 <= tol <= 1):
        raise InputError("level must lie in [0, 1]")
    matrix = build_matrix(inst, cap)
    p0 = _p0_vector(inst, matrix)
    m = len(matrix.pairs)
    rows, nvars = _residual_rows(matrix, p0, tol)
    lp = LinearProgram(
        objective=(_ZERO,) * nvars,
        sense="min",
        constraints=rows,
        lower=(_ZERO,) * nvars,
    )
    sol = solve_lp(lp)
    if sol.status == OPTIMAL:
        return None, matrix
    if sol.status != INFEASIBLE:  # pragma: no cover
        raise InternalCheckError(f"feasibility program came back {sol.status}")

    h = [sol.farkas[i] for i in range(m)]
    shift = min(h)
    h1 = [v - shift for v in h]
    top = max(h1)
    if top == 0:  # pragma: no cover - a valid certificate is nonconstant
        raise InternalCheckError("degenerate residual certificate")
    menu_top: dict[tuple[str, ...], Fraction] = {}
    for idx, (_, menu) in enumerate(matrix.pairs):
        cur = menu_top.get(menu)
        if cur is None or h1[idx] > cur:
            menu_top[menu] = h1[idx]
    lifted = [
        h1[idx] + (top - menu_top[matrix.pairs[idx][1]])
        for idx in range(m)
    ]
    tags = _clear_denominators(lifted)
    cert = TaggedTrialSequence(tags=tuple(tags), width=0)
    lhs, rhs = evaluate_arsp_star(inst, matrix, cert.tags, tol)
    if not lhs > rhs:
        raise InternalCheckError("residual tag certificate fails to violate")
    return cert, matrix
