"""Brute-force verifiers, deliberately separate from the LP machinery.

Everything here recomputes its answer the slow, obvious way so the test
suite can cross-check the optimized modules against an implementation
too simple to share their bugs: set-to-set distance by enumerating
candidate vertices and re-measuring with a locally written l1 sum,
the betting side by exhausting a finite grid of stakes, the tagged
trial inequality over every tag vector up to a bound, and linear
programs by trying every potentially active constraint set.

The tag scan walks the vectors depth first in their enumeration order
and skips a subtree only when an integer upper bound proves that no
vector in it violates, so it returns the enumeration's first violating
vector; ``_scan_tags_python`` keeps the plain loop as its reference.

These functions are exact but unapologetically exponential; they carry
tight input caps and exist for small instances only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import CapExceededError, InputError
from .measures import CredalSet
from .rational import parse_rational
from .rum import RumInstance, TaggedTrialSequence
from .simplex import (
    EQUAL,
    GREATER_EQUAL,
    LESS_EQUAL,
    INFEASIBLE,
    OPTIMAL,
    LinearProgram,
)

__all__ = [
    "GridSpec",
    "vertex_distance",
    "grid_max_gap",
    "exhaustive_rum_check",
    "brute_force_lp",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)

_MEMBER_CAP = 6
_SPACE_CAP = 6
_RESOLUTION_CAP = 8
_RUM_SIZE_CAP = 3
_TAG_CAP = 3
_LP_SYSTEM_CAP = 50_000


@dataclass(frozen=True)
class GridSpec:
    """Stakes grid: components range over i/resolution for integer i
    between -resolution and resolution."""

    resolution: int

    def __post_init__(self) -> None:
        if not isinstance(self.resolution, int) or self.resolution < 1:
            raise InputError("grid resolution must be a positive integer")


def _solve_square(
    matrix: list[list[Fraction]], rhs: list[Fraction]
) -> Optional[list[Fraction]]:
    """Unique solution of a square rational system, or None if singular.

    Each row is scaled to integers, and the elimination is fraction-free
    Gauss-Jordan (Bareiss): with pivot p and the previous pivot prev,
    every other row becomes ``(p * row - f * pivot_row) / prev``, which
    divides exactly.  The pivot is the first nonzero entry at or below
    the diagonal.  At the end every diagonal entry is the last pivot."""
    n = len(matrix)
    aug = []
    for coeffs, b in zip(matrix, rhs):
        row = [*coeffs, b]
        den = math.lcm(*(v.denominator for v in row))
        aug.append([v.numerator * (den // v.denominator) for v in row])
    prev = 1
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if aug[r][col]:
                pivot = r
                break
        if pivot is None:
            return None
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        top = aug[col]
        p = top[col]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [(p * a - f * b) // prev for a, b in zip(aug[r], top)]
        prev = p
    return [Fraction(row[n], prev) for row in aug]


def vertex_distance(p_set: CredalSet, q_set: CredalSet) -> Fraction:
    """Exact minimum l1 distance between the two convex hulls.

    Enumerates candidate optimizers directly: pick which members carry
    weight on each side and which coordinates of the difference vanish,
    solve the resulting square linear system, keep nonnegative
    solutions, and measure each survivor with a freshly written l1 sum.
    The minimum of a piecewise-linear convex function on a product of
    simplices is attained at one of these points.
    """
    if p_set.space != q_set.space:
        raise InputError("sets live on different spaces")
    if p_set.size > _MEMBER_CAP or q_set.size > _MEMBER_CAP:
        raise CapExceededError(
            f"more than {_MEMBER_CAP} members per set is out of range"
        )
    nx = p_set.space.size
    p_rows = [list(m.weights) for m in p_set.members]
    q_rows = [list(m.weights) for m in q_set.members]
    best: Optional[Fraction] = None
    p_supports = [
        s
        for size in range(1, len(p_rows) + 1)
        for s in itertools.combinations(range(len(p_rows)), size)
    ]
    q_supports = [
        s
        for size in range(1, len(q_rows) + 1)
        for s in itertools.combinations(range(len(q_rows)), size)
    ]
    for sp in p_supports:
        for sq in q_supports:
            zeros_needed = len(sp) + len(sq) - 2
            if zeros_needed > nx:
                continue
            for zset in itertools.combinations(range(nx), zeros_needed):
                nvar = len(sp) + len(sq)
                rows = []
                rhs = []
                rows.append([_ONE] * len(sp) + [_ZERO] * len(sq))
                rhs.append(_ONE)
                rows.append([_ZERO] * len(sp) + [_ONE] * len(sq))
                rhs.append(_ONE)
                for x in zset:
                    rows.append(
                        [p_rows[i][x] for i in sp]
                        + [-q_rows[j][x] for j in sq]
                    )
                    rhs.append(_ZERO)
                assert len(rows) == nvar
                sol = _solve_square(rows, rhs)
                if sol is None or any(v < 0 for v in sol):
                    continue
                lam = sol[: len(sp)]
                mu = sol[len(sp) :]
                total = _ZERO
                for x in range(nx):
                    diff = sum(
                        (lam[k] * p_rows[i][x] for k, i in enumerate(sp)),
                        _ZERO,
                    ) - sum(
                        (mu[k] * q_rows[j][x] for k, j in enumerate(sq)),
                        _ZERO,
                    )
                    total += diff if diff >= 0 else -diff
                if best is None or total < best:
                    best = total
    assert best is not None  # singleton supports always solve
    return best


def grid_max_gap(
    p_set: CredalSet, q_set: CredalSet, grid: GridSpec
) -> Fraction:
    """Best guaranteed expectation gap over stakes on the finite grid:
    maximizes (worst P-member expectation minus best Q-member
    expectation).  A lower bound for the supremum over the unit ball,
    exact whenever an optimal stakes vector lies on the grid."""
    if p_set.space != q_set.space:
        raise InputError("sets live on different spaces")
    nx = p_set.space.size
    if nx > _SPACE_CAP:
        raise CapExceededError(f"more than {_SPACE_CAP} points is out of range")
    if grid.resolution > _RESOLUTION_CAP:
        raise CapExceededError(
            f"resolution above {_RESOLUTION_CAP} is out of range"
        )
    k = grid.resolution
    p_rows = [list(m.weights) for m in p_set.members]
    q_rows = [list(m.weights) for m in q_set.members]
    best: Optional[Fraction] = None
    for ticks in itertools.product(range(-k, k + 1), repeat=nx):
        low = min(
            sum((t * w for t, w in zip(ticks, row)), _ZERO)
            for row in p_rows
        )
        high = max(
            sum((t * w for t, w in zip(ticks, row)), _ZERO)
            for row in q_rows
        )
        gap = Fraction(low - high, k)
        if best is None or gap > best:
            best = gap
    assert best is not None
    return best


def _best_choice_table(inst: RumInstance) -> list[list[int]]:
    """For each ordering, the 0/1 indicator over pairs of being picked:
    scans the ordering for the first alternative on the menu."""
    pairs = inst.pairs()
    table = []
    for ordering in itertools.permutations(inst.alternatives):
        row = []
        for y, menu in pairs:
            chosen = next(a for a in ordering if a in menu)
            row.append(1 if chosen == y else 0)
        table.append(row)
    return table


def _tags_violate(
    p0: Sequence[Fraction],
    best_rows: Sequence[Sequence[int]],
    tags: Sequence[int],
    eps: Fraction,
) -> bool:
    lhs = sum((p * t for p, t in zip(p0, tags)), _ZERO)
    best = max(
        sum(t for t, flag in zip(tags, row) if flag) for row in best_rows
    )
    width = max(tags) - min(tags)
    return lhs > best + Fraction(width) * eps / 2


def exhaustive_rum_check(
    inst: RumInstance, eps: object, max_tag: int
) -> Optional[TaggedTrialSequence]:
    """Check the tagged-trials inequality for every tag vector with
    entries in 0..max_tag, in a fixed enumeration order (pair 0 is the
    fastest-cycling digit).  Returns the first violating vector, or
    None when the inequality holds throughout the enumerated range.

    The vectors are walked depth first in that same order, and a
    subtree is skipped only when an upper bound shows that none of its
    vectors violates (``_scan_tags``).  The walk therefore reaches the
    enumeration's first violating vector first, in far fewer steps."""
    tol = parse_rational(eps)
    if tol < 0:
        raise InputError("slack must be nonnegative")
    if not isinstance(max_tag, int) or max_tag < 0:
        raise InputError("max_tag must be a nonnegative integer")
    if inst.n_alternatives > _RUM_SIZE_CAP:
        raise CapExceededError(
            f"more than {_RUM_SIZE_CAP} alternatives is out of range"
        )
    if max_tag > _TAG_CAP:
        raise CapExceededError(f"tags above {_TAG_CAP} are out of range")
    pairs = inst.pairs()
    p0 = [inst.probability(y, menu) for y, menu in pairs]
    hit = _scan_tags(p0, _best_choice_table(inst), max_tag, tol)
    if hit is None:
        return None
    return TaggedTrialSequence(tags=tuple(hit))


def _scan_tags(
    p0: list[Fraction],
    best_rows: list[list[int]],
    max_tag: int,
    eps: Fraction,
) -> Optional[list[int]]:
    """First violating tag vector in ``_scan_tags_python``'s order, by
    a pruned depth-first walk in exact integers.

    Over ``d = lcm(p0 denominators)`` and ``eps = a/b`` the vector t
    violates exactly when ``min_j sum_i c[j][i] t_i > d a (max t - min
    t)`` with ``c[j][i] = 2b (d p0_i - d A_ji)``.  Digit m-1 is fixed
    first and digit 0 last, each in ascending order, which is the
    enumeration order.  A child is skipped when, even with the largest
    sums the free digits can add (``room``), some ordering stays at or
    below the slack of the width the fixed digits already span: no
    vector below it violates, so the first vector reached is the first
    hit."""
    m = len(p0)
    d = math.lcm(*(v.denominator for v in p0))
    a, b = eps.numerator, eps.denominator
    coef = [
        [2 * b * (int(p * d) - d * flag) for p, flag in zip(p0, row)]
        for row in best_rows
    ]
    # room[i][j]: the most that digits 0..i-1 can add to ordering j's sum
    room = [[0] * len(coef)]
    for i in range(m - 1):
        room.append(
            [r + max_tag * max(0, c[i]) for r, c in zip(room[-1], coef)]
        )
    slope = d * a
    tags = [0] * m
    # hi = 0 and lo = max_tag give the first fixed digit a width of 0
    scan = (coef, room, slope, max_tag, tags)
    return tags if _walk(scan, m - 1, [0] * len(coef), 0, max_tag) else None


def _walk(scan: tuple, i: int, fixed: list[int], hi: int, lo: int) -> bool:
    """``_scan_tags``'s walk over digit *i* and the digits below it,
    given the ordering sums *fixed* and the tag range ``[lo, hi]`` of
    the digits above; on a hit ``tags[: i + 1]`` holds its digits.  It
    is a module function, not a closure, so a scan leaves no reference
    cycle behind."""
    coef, room, slope, max_tag, tags = scan
    for v in range(max_tag + 1):
        sums = [f + c[i] * v for f, c in zip(fixed, coef)]
        top, bottom = max(hi, v), min(lo, v)
        bound = min(s + r for s, r in zip(sums, room[i]))
        if bound <= slope * (top - bottom):
            continue
        tags[i] = v
        if i == 0 or _walk(scan, i - 1, sums, top, bottom):
            return True
    return False


def _scan_tags_python(
    p0: list[Fraction],
    best_rows: list[list[int]],
    base: int,
    total: int,
    eps: Fraction,
) -> Optional[list[int]]:
    m = len(p0)
    for n in range(total):
        tags = []
        v = n
        for _ in range(m):
            tags.append(v % base)
            v //= base
        if _tags_violate(p0, best_rows, tags, eps):
            return tags
    return None


def _independent_rows(
    rows: list[tuple[list[Fraction], Fraction]], n: int
) -> Optional[list[int]]:
    """Indices of a maximal linearly independent subset of the equality
    rows ``(coefficients, rhs)``, by exact forward elimination, or None
    when the rows are inconsistent (some combination reads 0 = c, c != 0)."""
    reduced: list[tuple[int, list[Fraction]]] = []
    keep = []
    for idx, (coeffs, rhs) in enumerate(rows):
        row = list(coeffs) + [rhs]
        for col, prow in reduced:
            if row[col]:
                factor = row[col]
                row = [a - factor * b for a, b in zip(row, prow)]
        col = next((c for c in range(n) if row[c]), None)
        if col is None:
            if row[n]:
                return None
            continue
        pivot = row[col]
        reduced.append((col, [v / pivot for v in row]))
        keep.append(idx)
    return keep


def brute_force_lp(lp: LinearProgram) -> tuple[str, Optional[Fraction]]:
    """Optimum of a linear program by trying every candidate active
    set: a linearly independent subset of the equality rows always,
    plus enough inequality rows (finite bounds included) to pin down a
    point.  Valid for programs whose feasible region is bounded, where
    every nonempty region has a vertex and some vertex is optimal;
    returns (status, value)."""
    n = len(lp.objective)
    eq_rows: list[tuple[list[Fraction], Fraction]] = []
    ineq_rows: list[tuple[list[Fraction], Fraction, str]] = []
    for coeffs, rel, rhs in lp.constraints:
        if rel == EQUAL:
            eq_rows.append((list(coeffs), rhs))
        else:
            ineq_rows.append((list(coeffs), rhs, rel))
    for j in range(n):
        unit = [_ZERO] * n
        unit[j] = _ONE
        if lp.lower[j] is not None:
            ineq_rows.append((list(unit), lp.lower[j], GREATER_EQUAL))
        if lp.upper[j] is not None:
            ineq_rows.append((list(unit), lp.upper[j], LESS_EQUAL))

    basis = _independent_rows(eq_rows, n)
    if basis is None:
        return INFEASIBLE, None
    need = n - len(basis)
    count = math.comb(len(ineq_rows), need)
    if count > _LP_SYSTEM_CAP:
        raise CapExceededError(
            f"{count} candidate systems exceed the enumeration cap"
        )
    combos = [
        (basis, pick)
        for pick in itertools.combinations(range(len(ineq_rows)), need)
    ]

    best: Optional[Fraction] = None
    found = False
    for eq_pick, ineq_pick in combos:
        rows = [eq_rows[i][0] for i in eq_pick] + [
            ineq_rows[i][0] for i in ineq_pick
        ]
        rhs = [eq_rows[i][1] for i in eq_pick] + [
            ineq_rows[i][1] for i in ineq_pick
        ]
        point = _solve_square(rows, rhs)
        if point is None:
            continue
        ok = all(
            sum((c * x for c, x in zip(coeffs, point)), _ZERO) == value
            for coeffs, value in eq_rows
        ) and all(
            (
                sum((c * x for c, x in zip(coeffs, point)), _ZERO) <= value
                if rel == LESS_EQUAL
                else sum((c * x for c, x in zip(coeffs, point)), _ZERO)
                >= value
            )
            for coeffs, value, rel in ineq_rows
        )
        if not ok:
            continue
        found = True
        obj = sum((c * x for c, x in zip(lp.objective, point)), _ZERO)
        if best is None:
            best = obj
        elif lp.sense == "min":
            best = min(best, obj)
        else:
            best = max(best, obj)
    if not found:
        return INFEASIBLE, None
    return OPTIMAL, best
