"""Exact linear programming over the rationals.

A dense two-phase primal simplex with Bland's anti-cycling rule.  All
arithmetic is exact; no floats ever enter the tableau.  Every tableau
row, the objective row included, is a list of Python ``int`` over one
positive ``int`` denominator.  A pivot leaves the pivot row's integers in
place (divided by their gcd) and makes the pivot entry its denominator,
with the sign made positive.  Every other row with a nonzero entry ``f``
in the entering column becomes ``row * piv - f * prow`` over
``den * piv``, reduced by one gcd over the row; where ``piv`` divides
``f`` this is ``row - (f / piv) * prow`` over the unchanged ``den``,
updated only on the pivot row's support.  The ratio test cross-multiplies, since a row's denominator cancels from
``rhs_i / a_i``.  ``Fraction`` values are converted to integer rows once,
at set-up, and back only when the primal, dual and Farkas vectors are
read off; every public value is a ``Fraction``.

Solutions come with certificates.  An optimal solution carries the dual
vector and reduced costs, and is re-verified exactly (primal and dual
feasibility, complementary slackness, and equality of the primal and dual
objectives) before it is returned.  An infeasible program carries a Farkas
multiplier vector over its constraints which :func:`verify_infeasibility`
checks by pure substitution.

Dual sign conventions, stated for a minimization (mirror-imaged for a
maximization): multipliers are <= 0 on ``<=`` rows, >= 0 on ``>=`` rows,
free on ``=`` rows.  The reduced cost of a variable is
``c_j - sum_i y_i a_ij``; it must vanish for a free variable, and for a
bounded variable its sign pins the variable to the matching bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import InputError, InternalCheckError
from .rational import parse_rational

__all__ = [
    "MINIMIZE",
    "MAXIMIZE",
    "LESS_EQUAL",
    "EQUAL",
    "GREATER_EQUAL",
    "OPTIMAL",
    "INFEASIBLE",
    "UNBOUNDED",
    "LinearProgram",
    "LpSolution",
    "solve_lp",
    "verify_optimal",
    "verify_infeasibility",
]

MINIMIZE = "min"
MAXIMIZE = "max"
LESS_EQUAL = "<="
EQUAL = "="
GREATER_EQUAL = ">="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_RELATIONS = (LESS_EQUAL, EQUAL, GREATER_EQUAL)
_MAX_PIVOTS = 2_000_000  # defensive only; Bland's rule precludes cycling

Constraint = tuple[tuple[Fraction, ...], str, Fraction]


def _rat_tuple(values: Iterable[object]) -> tuple[Fraction, ...]:
    return tuple(parse_rational(v) for v in values)


def _opt_rat_tuple(
    values: Optional[Sequence[object]], n: int
) -> tuple[Optional[Fraction], ...]:
    if values is None:
        return (None,) * n
    return tuple(None if v is None else parse_rational(v) for v in values)


@dataclass(frozen=True)
class LinearProgram:
    """A linear program in general form.

    ``constraints`` is a sequence of ``(coefficients, relation, rhs)``
    triples with relation one of ``"<="``, ``"="``, ``">="``.  Bounds are
    per-variable and optional; an absent bound means that side is
    unconstrained.
    """

    objective: tuple[Fraction, ...]
    sense: str = MINIMIZE
    constraints: tuple[Constraint, ...] = ()
    lower: tuple[Optional[Fraction], ...] = ()
    upper: tuple[Optional[Fraction], ...] = ()

    def __post_init__(self) -> None:
        obj = _rat_tuple(self.objective)
        object.__setattr__(self, "objective", obj)
        n = len(obj)
        if self.sense not in (MINIMIZE, MAXIMIZE):
            raise InputError(f"unknown sense {self.sense!r}")
        rows = []
        for idx, row in enumerate(self.constraints):
            try:
                coeffs, rel, rhs = row
            except (TypeError, ValueError) as exc:
                raise InputError(f"constraint {idx} is not a triple") from exc
            coeffs = _rat_tuple(coeffs)
            if len(coeffs) != n:
                raise InputError(
                    f"constraint {idx} has {len(coeffs)} coefficients, "
                    f"expected {n}"
                )
            if rel not in _RELATIONS:
                raise InputError(f"constraint {idx}: unknown relation {rel!r}")
            rows.append((coeffs, rel, parse_rational(rhs)))
        object.__setattr__(self, "constraints", tuple(rows))
        lower = _opt_rat_tuple(self.lower or None, n)
        upper = _opt_rat_tuple(self.upper or None, n)
        if len(lower) != n or len(upper) != n:
            raise InputError("bound vectors must match the variable count")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def n_variables(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class LpSolution:
    """Outcome of :func:`solve_lp`.

    ``primal``, ``dual``, ``reduced_costs`` and ``objective_value`` are
    populated exactly when ``status == "optimal"``; ``farkas`` carries the
    infeasibility certificate (one multiplier per constraint) when
    ``status == "infeasible"`` and the conflict involves the constraints
    (a pure bound contradiction such as ``3 <= x <= 2`` has no such
    certificate and leaves the field empty).
    """

    status: str
    objective_value: Optional[Fraction] = None
    primal: Optional[tuple[Fraction, ...]] = None
    dual: Optional[tuple[Fraction, ...]] = None
    reduced_costs: Optional[tuple[Fraction, ...]] = None
    farkas: Optional[tuple[Fraction, ...]] = None


def _int_row(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """*values* as integers over their least common denominator."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _support(row: list[int]) -> list[int]:
    return [k for k, v in enumerate(row) if v]


def _eliminate(
    row: list[int], den: int, prow: list[int], p: int, f: int, support: list[int]
) -> tuple[list[int], int]:
    """Subtract ``f/den`` times the row ``prow/p``, whose entry in the
    pivot column is 1, from ``row/den``.  *f* is the entry of *row* in the
    pivot column and *support* lists the nonzero columns of *prow*.  When
    the denominator grows, the result is reduced by the gcd of the row."""
    g = gcd(f, p)
    a, b = p // g, f // g
    if a == 1:
        # The denominator does not grow; only the pivot row's support
        # changes, in place.
        for k in support:
            row[k] -= b * prow[k]
        return row, den
    row = [v * a - b * w for v, w in zip(row, prow)]
    den *= a
    g = gcd(den, *row)
    if g != 1:
        row = [v // g for v in row]
        den //= g
    return row, den


def _pivot(
    rows: list[list[int]], dens: list[int], basis: list[int], r: int, c: int
) -> None:
    prow = rows[r]
    p = prow[c]
    if p < 0:
        prow = [-v for v in prow]
        p = -p
    g = gcd(*prow)
    if g != 1:
        prow = [v // g for v in prow]
        p //= g
    rows[r] = prow
    dens[r] = p
    support = _support(prow)
    for i, row in enumerate(rows):
        f = row[c]
        if f and i != r:
            rows[i], dens[i] = _eliminate(row, dens[i], prow, p, f, support)
    basis[r] = c


def _run_simplex(
    rows: list[list[int]], dens: list[int], basis: list[int], eligible: int
) -> str:
    """Bland's rule throughout: the lowest of the first *eligible* columns
    with a negative reduced cost enters, ratio ties break on the lowest
    basic variable index.  ``rows[-1]`` is the objective row."""
    m = len(basis)
    for _ in range(_MAX_PIVOTS):
        obj = rows[m]
        enter = next((j for j in range(eligible) if obj[j] < 0), -1)
        if enter < 0:
            return OPTIMAL
        # Row denominators are positive and cancel from rhs_i / a_i, so
        # ratios compare by cross-multiplying the integers.
        leave = -1
        for i in range(m):
            row = rows[i]
            a = row[enter]
            if a > 0:
                rhs = row[-1]
                if leave < 0:
                    leave, best_rhs, best_a = i, rhs, a
                    continue
                lhs_cross, rhs_cross = rhs * best_a, best_rhs * a
                if lhs_cross < rhs_cross or (
                    lhs_cross == rhs_cross and basis[i] < basis[leave]
                ):
                    leave, best_rhs, best_a = i, rhs, a
        if leave < 0:
            return UNBOUNDED
        _pivot(rows, dens, basis, leave, enter)
    raise InternalCheckError("simplex failed to terminate")  # pragma: no cover


def _dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((u * v for u, v in zip(a, b) if u and v), Fraction(0))


def _weighted_rows(lp: LinearProgram, y: Sequence[Fraction]) -> list[Fraction]:
    """``sum_i y_i a_i`` over the constraint rows, skipping zero terms."""
    s = [Fraction(0)] * lp.n_variables
    for yi, (coeffs, _, _) in zip(y, lp.constraints):
        if yi:
            for j, a in enumerate(coeffs):
                if a:
                    s[j] += yi * a
    return s


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve *lp* exactly.  Deterministic: identical inputs yield
    identical solutions, including the choice of optimal vertex."""
    n = lp.n_variables
    minimize = lp.sense == MINIMIZE
    zero = Fraction(0)

    for j in range(n):
        lo, up = lp.lower[j], lp.upper[j]
        if lo is not None and up is not None and lo > up:
            return LpSolution(status=INFEASIBLE)

    # Variable transform: shift lower-bounded variables to x' >= 0, flip
    # upper-only variables, split free ones.  Two-sided bounds add an
    # internal <= row on the shifted variable.
    cols: list[tuple[int, int]] = []  # (user var, sign)
    base: list[Fraction] = [zero] * n
    bound_rows: list[tuple[int, Fraction]] = []  # (column, shifted upper bound)
    for j in range(n):
        lo, up = lp.lower[j], lp.upper[j]
        if lo is not None:
            base[j] = lo
            cols.append((j, 1))
            if up is not None:
                bound_rows.append((len(cols) - 1, up - lo))
        elif up is not None:
            base[j] = up
            cols.append((j, -1))
        else:
            cols.append((j, 1))
            cols.append((j, -1))
    n_std = len(cols)

    # Standard-form rows as integers over one positive denominator each:
    # user rows first, then internal bound rows.  A row with a negative
    # right-hand side is negated, which swaps <= and >=.
    shifted = [j for j in range(n) if base[j]]
    std: list[tuple[list[int], str, int, int]] = []  # (coeffs, rel, rhs, den)
    origin_user: list[int] = []  # index into lp.constraints, -1 for bound rows
    flipped: list[bool] = []
    for i, (coeffs, rel, rhs) in enumerate(lp.constraints):
        rhs -= sum((coeffs[j] * base[j] for j in shifted), zero)
        ints, den = _int_row(coeffs + (rhs,))
        row = [ints[uj] if sign > 0 else -ints[uj] for uj, sign in cols]
        b = ints[-1]
        flip = b < 0
        if flip:
            row = [-v for v in row]
            b = -b
            if rel != EQUAL:
                rel = LESS_EQUAL if rel == GREATER_EQUAL else GREATER_EQUAL
        std.append((row, rel, b, den))
        origin_user.append(i)
        flipped.append(flip)
    for col, ub in bound_rows:
        row = [0] * n_std
        row[col] = ub.denominator
        std.append((row, LESS_EQUAL, ub.numerator, ub.denominator))
        origin_user.append(-1)
        flipped.append(False)
    m = len(std)

    # Tableau columns: structural, then one slack/surplus per inequality
    # row, then one artificial per >=/= row, then the right-hand side.
    # Row k stands for rows[k] / dens[k].  Each row keeps the column that
    # was its slot in the initial identity so the dual vector can be read
    # off the final tableau.
    n_slack = sum(1 for _, rel, _, _ in std if rel != EQUAL)
    n_art = sum(1 for _, rel, _, _ in std if rel != LESS_EQUAL)
    art_start = n_std + n_slack
    ncols = art_start + n_art
    ident_col = [0] * m
    basis = [0] * m
    rows: list[list[int]] = []
    dens: list[int] = []
    slack_at = n_std
    art_at = art_start
    for k, (row, rel, b, den) in enumerate(std):
        row = row + [0] * (n_slack + n_art) + [b]
        if rel == LESS_EQUAL:
            row[slack_at] = den
            ident_col[k] = slack_at
            slack_at += 1
        else:
            if rel == GREATER_EQUAL:
                row[slack_at] = -den
                slack_at += 1
            row[art_at] = den
            ident_col[k] = art_at
            art_at += 1
        basis[k] = ident_col[k]
        rows.append(row)
        dens.append(den)

    def price_basis() -> None:
        # Eliminate the basic columns from the objective row rows[m]; a
        # basic column is a unit column, so rows[k][basis[k]] == dens[k].
        for k in range(m):
            f = rows[m][basis[k]]
            if f:
                rows[m], dens[m] = _eliminate(
                    rows[m], dens[m], rows[k], dens[k], f, _support(rows[k])
                )

    # Phase 1: minimize the artificial total.
    rows.append([0] * art_start + [1] * n_art + [0])
    dens.append(1)
    price_basis()
    status = _run_simplex(rows, dens, basis, ncols)
    if status != OPTIMAL:  # pragma: no cover - phase 1 is always bounded
        raise InternalCheckError("phase 1 reported unbounded")
    obj, oden = rows[m], dens[m]
    if obj[-1] < 0:
        # Infeasible.  Phase-1 duals over the constraint rows are a
        # Farkas certificate; map back through the row flips.
        farkas: list[Fraction] = [zero] * len(lp.constraints)
        for k in range(m):
            if origin_user[k] < 0:
                continue
            ic = ident_col[k]
            y = (oden if ic >= art_start else 0) - obj[ic]
            farkas[origin_user[k]] = Fraction(-y if flipped[k] else y, oden)
        cert = tuple(farkas)
        verify_infeasibility(lp, cert)
        return LpSolution(status=INFEASIBLE, farkas=cert)

    # Drive basic artificials out wherever the row has structural support.
    for k in range(m):
        if basis[k] >= art_start:
            row = rows[k]
            for j in range(art_start):
                if row[j]:
                    _pivot(rows, dens, basis, k, j)
                    break
            # An all-zero row keeps its artificial basic at level zero;
            # the constraint was redundant.

    # Phase 2.
    c_min = [v if minimize else -v for v in lp.objective]
    ints, dens[m] = _int_row(
        [c_min[uj] if sign > 0 else -c_min[uj] for uj, sign in cols]
    )
    rows[m] = ints + [0] * (n_slack + n_art + 1)
    price_basis()
    status = _run_simplex(rows, dens, basis, art_start)
    if status == UNBOUNDED:
        return LpSolution(status=UNBOUNDED)

    x_std = [zero] * n_std
    for k in range(m):
        if basis[k] < n_std:
            x_std[basis[k]] = Fraction(rows[k][-1], dens[k])
    x_user = list(base)
    for col_idx, (uj, sign) in enumerate(cols):
        x_user[uj] += x_std[col_idx] if sign > 0 else -x_std[col_idx]
    primal = tuple(x_user)

    # Duals: y = c_B B^{-1}; reading the final tableau at each row's
    # initial identity column gives B^{-1}, and every such column has
    # phase-2 cost zero, so y_k = -objrow[ident_col[k]].
    obj, oden = rows[m], dens[m]
    dual = [zero] * len(lp.constraints)
    for k in range(m):
        if origin_user[k] < 0:
            continue
        y = -obj[ident_col[k]]
        dual[origin_user[k]] = Fraction(-y if flipped[k] else y, oden)
    if not minimize:
        dual = [-y for y in dual]

    weighted = _weighted_rows(lp, dual)
    solution = LpSolution(
        status=OPTIMAL,
        objective_value=_dot(lp.objective, primal),
        primal=primal,
        dual=tuple(dual),
        reduced_costs=tuple(c - s for c, s in zip(lp.objective, weighted)),
    )
    verify_optimal(lp, solution)
    return solution


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise InternalCheckError(message)


def verify_optimal(lp: LinearProgram, sol: LpSolution) -> None:
    """Exact optimality audit; raises :class:`InternalCheckError` if any
    of primal feasibility, dual feasibility, complementary slackness, or
    primal/dual objective equality fails."""
    _check(sol.status == OPTIMAL, "not an optimal solution")
    assert sol.primal is not None and sol.dual is not None
    assert sol.reduced_costs is not None and sol.objective_value is not None
    x = sol.primal
    y = sol.dual
    n = lp.n_variables
    minimize = lp.sense == MINIMIZE

    for j in range(n):
        lo, up = lp.lower[j], lp.upper[j]
        _check(lo is None or x[j] >= lo, f"variable {j} below lower bound")
        _check(up is None or x[j] <= up, f"variable {j} above upper bound")
    for i, (coeffs, rel, rhs) in enumerate(lp.constraints):
        lhs = _dot(coeffs, x)
        if rel == LESS_EQUAL:
            _check(lhs <= rhs, f"constraint {i} violated")
            ok = y[i] <= 0 if minimize else y[i] >= 0
        elif rel == GREATER_EQUAL:
            _check(lhs >= rhs, f"constraint {i} violated")
            ok = y[i] >= 0 if minimize else y[i] <= 0
        else:
            _check(lhs == rhs, f"constraint {i} violated")
            ok = True
        _check(ok, f"dual multiplier {i} has the wrong sign")
        _check(y[i] == 0 or lhs == rhs, f"complementary slackness fails at row {i}")

    weighted = _weighted_rows(lp, y)
    bound_term = Fraction(0)
    for j in range(n):
        r = sol.reduced_costs[j]
        _check(r == lp.objective[j] - weighted[j],
               f"reduced cost {j} inconsistent with duals")
        lo, up = lp.lower[j], lp.upper[j]
        at_lower = r > 0 if minimize else r < 0
        at_upper = r < 0 if minimize else r > 0
        if at_lower:
            _check(lo is not None and x[j] == lo,
                   f"variable {j}: reduced cost pins it to an absent lower bound")
            bound_term += r * lo
        elif at_upper:
            _check(up is not None and x[j] == up,
                   f"variable {j}: reduced cost pins it to an absent upper bound")
            bound_term += r * up

    dual_value = _dot(y, [rhs for _, _, rhs in lp.constraints]) + bound_term
    _check(
        sol.objective_value == dual_value,
        "primal and dual objective values differ",
    )


def verify_infeasibility(lp: LinearProgram, farkas: Sequence[Fraction]) -> None:
    """Check a Farkas certificate by substitution.

    With ``s = sum_i y_i a_i``, any feasible point would satisfy
    ``s.x >= sum_i y_i b_i`` (by the row senses and multiplier signs) while
    the variable bounds force ``s.x <= U`` for the box maximum ``U``; the
    certificate is valid exactly when ``U < sum_i y_i b_i``.
    """
    y = list(farkas)
    _check(len(y) == len(lp.constraints), "certificate length mismatch")
    for i, (_, rel, _) in enumerate(lp.constraints):
        if rel == LESS_EQUAL:
            _check(y[i] <= 0, f"certificate sign at <= row {i}")
        elif rel == GREATER_EQUAL:
            _check(y[i] >= 0, f"certificate sign at >= row {i}")
    box_max = Fraction(0)
    for j, s in enumerate(_weighted_rows(lp, y)):
        if s > 0:
            _check(lp.upper[j] is not None,
                   f"certificate needs an upper bound on variable {j}")
            box_max += s * lp.upper[j]
        elif s < 0:
            _check(lp.lower[j] is not None,
                   f"certificate needs a lower bound on variable {j}")
            box_max += s * lp.lower[j]
    rhs_total = _dot(y, [rhs for _, _, rhs in lp.constraints])
    _check(box_max < rhs_total, "certificate does not separate")
