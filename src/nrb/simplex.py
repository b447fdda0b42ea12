"""Exact linear programming over the rationals.

A dense two-phase primal simplex with Bland's anti-cycling rule.  All
arithmetic is exact; no floats ever enter the tableau.  Every tableau
row, the objective row included, is a list of Python ``int`` over one
positive ``int`` denominator, not always in lowest terms.  A pivot
divides the pivot row by its gcd and makes the pivot entry ``piv`` its
denominator, so the pivot row is in lowest terms.  Every other row with
an entry ``f`` in the entering column loses ``f / piv`` times the pivot
row on the pivot row's support; where ``piv`` does not divide ``f`` the
row's nonzero entries are first scaled to the denominator
``den * piv / gcd(f, piv)``.  A row is reduced by its gcd only once its
denominator passes 62 bits: a common factor changes no value the solver
reads (signs, cross-multiplied ratios, the returned ``Fraction``
values), and leaving it often lets the next ``piv`` divide ``f``.  The
ratio test cross-multiplies, since a row's denominator cancels from
``rhs_i / a_i``.  Each constraint becomes integers over its row's least
common denominator once, when the :class:`LinearProgram` is built, from
either a dense row or a ``{column: value}`` mapping of its nonzero
entries; the tableau set-up and the audits below work on that form, and
``Fraction`` values are built only for the vectors returned and for the
dense ``LinearProgram.constraints``, on first read.

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

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import gcd, lcm
from typing import Optional, Sequence

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
# A row is put back in lowest terms once its denominator outgrows this
# many bits; below it a common factor is left in place.  A safety bound,
# not a tuning knob: without one, denominators reach hundreds of bits.
_REDUCE_BITS = 62

Constraint = tuple[tuple[Fraction, ...], str, Fraction]
# A constraint row over its least common denominator: the (column, int)
# pairs of its nonzero entries in column order, relation, rhs, den.
IntRow = tuple[tuple[tuple[int, int], ...], str, int, int]
_EXACT = frozenset((int, Fraction))


@dataclass(frozen=True, init=False)
class LinearProgram:
    """A linear program in general form.

    ``constraints`` is a sequence of ``(coefficients, relation, rhs)``
    triples with relation one of ``"<="``, ``"="``, ``">="``.  The
    coefficients are either a dense sequence of one value per variable
    or a ``{column: value}`` mapping whose absent columns are zero.
    ``Fraction`` values, and plain ``int`` coefficients and right-hand
    sides, are taken as they are; any other value goes through
    ``parse_rational``.  Both forms become the same integer rows
    ``_int_rows``, which the solver and the audits read, and which
    equality and hashing compare.  ``constraints`` reads the rows back
    as dense ``Fraction`` triples, built on first read.  Bounds are
    per-variable and optional; an absent bound means that side is
    unconstrained.
    """

    objective: tuple[Fraction, ...]
    sense: str
    lower: tuple[Optional[Fraction], ...]
    upper: tuple[Optional[Fraction], ...]
    _int_rows: tuple[IntRow, ...] = field(repr=False)

    def __init__(
        self,
        objective: Sequence[object],
        sense: str = MINIMIZE,
        constraints: Sequence[tuple[object, str, object]] = (),
        lower: Sequence[object] = (),
        upper: Sequence[object] = (),
    ) -> None:
        obj = tuple(
            v if type(v) is Fraction else parse_rational(v) for v in objective
        )
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "sense", sense)
        n = len(obj)
        if sense not in (MINIMIZE, MAXIMIZE):
            raise InputError(f"unknown sense {sense!r}")
        int_rows = []
        for idx, row in enumerate(constraints):
            try:
                coeffs, rel, rhs = row
            except (TypeError, ValueError) as exc:
                raise InputError(f"constraint {idx} is not a triple") from exc
            mapped = isinstance(coeffs, Mapping)
            try:
                if mapped:
                    if not {*map(type, coeffs)} <= {int}:
                        raise InputError("columns must be int")
                    cols = sorted(coeffs)
                    if cols and (cols[0] < 0 or cols[-1] >= n):
                        raise InputError(f"column outside 0..{n - 1}")
                    coeffs = map(coeffs.__getitem__, cols)
                vals = _exact(list(coeffs))
                rhs = rhs if type(rhs) in _EXACT else parse_rational(rhs)
            except InputError as exc:
                raise InputError(f"constraint {idx}: {exc}") from None
            if not mapped:
                if len(vals) != n:
                    raise InputError(
                        f"constraint {idx} has {len(vals)} coefficients, "
                        f"expected {n}"
                    )
                cols = range(n)
            if rel not in _RELATIONS:
                raise InputError(f"constraint {idx}: unknown relation {rel!r}")
            cols = tuple(compress(cols, vals))
            vals = list(compress(vals, vals))
            if {*map(type, vals)} <= {int}:
                den = rhs.denominator
                ints = [v * den for v in vals] if den != 1 else vals
                b = rhs.numerator
            else:
                ints, den = _int_row(vals + [rhs])
                b = ints.pop()
            int_rows.append((tuple(zip(cols, ints)), rel, b, den))
        object.__setattr__(self, "_int_rows", tuple(int_rows))
        lower, upper = (
            tuple(
                v if v is None or type(v) is Fraction else parse_rational(v)
                for v in b or (None,) * n
            )
            for b in (lower, upper)
        )
        if len(lower) != n or len(upper) != n:
            raise InputError("bound vectors must match the variable count")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def n_variables(self) -> int:
        return len(self.objective)

    @cached_property
    def constraints(self) -> tuple[Constraint, ...]:
        """The constraints as dense ``(coefficients, relation, rhs)``
        triples of ``Fraction``."""
        zero = Fraction(0)
        out = []
        for pairs, rel, b, den in self._int_rows:
            coeffs = [zero] * self.n_variables
            for j, a in pairs:
                coeffs[j] = Fraction(a, den)
            out.append((tuple(coeffs), rel, Fraction(b, den)))
        return tuple(out)


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


def _exact(values: list) -> list:
    """*values* with every entry that is neither ``int`` nor ``Fraction``
    parsed (which refuses floats and bools)."""
    if {*map(type, values)} <= _EXACT:
        return values
    return [v if type(v) is int else parse_rational(v) for v in values]


def _int_row(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """*values* as integers over their least common denominator."""
    dens = [v.denominator for v in values]
    den = lcm(*dens)
    return [v.numerator * (den // d) for v, d in zip(values, dens)], den


def _support(row: list[int]) -> list[tuple[int, int]]:
    """The (column, value) pairs of the nonzero entries of *row*."""
    return list(zip(compress(range(len(row)), row), compress(row, row)))


def _eliminate(
    row: list[int], den: int, p: int, f: int, support: list[tuple[int, int]]
) -> tuple[list[int], int]:
    """Subtract ``f/den`` times the pivot row over ``p`` (pivot entry 1,
    nonzero entries the (column, value) pairs *support*) from ``row/den``,
    in place, where *f* is the pivot-column entry of *row*.  If ``p`` does
    not divide ``f``, the row's nonzero entries are scaled to the grown
    denominator first.  The row is reduced by its gcd only when its
    denominator passes ``_REDUCE_BITS`` bits; below that a common factor
    may stay in the row, which changes none of the values it stands
    for."""
    g = gcd(f, p)
    a, b = p // g, f // g
    if a != 1:
        den *= a
        for k in list(compress(range(len(row)), row)):
            row[k] *= a
    for k, w in support:
        row[k] -= b * w
    if den.bit_length() > _REDUCE_BITS:
        g = gcd(den, *compress(row, row))
        if g != 1:
            den //= g
            for k in list(compress(range(len(row)), row)):
                row[k] //= g
    return row, den


def _pivot(
    rows: list[list[int]], dens: list[int], basis: list[int], r: int, c: int
) -> None:
    # The pivot row is divided by its gcd, signed to a positive pivot
    # entry, in place on its support.  This is where a row returns to
    # lowest terms, which keeps the pivot entry, and with it the scale
    # of every other row, small.
    prow = rows[r]
    support = _support(prow)
    g = gcd(*compress(prow, prow))
    if prow[c] < 0:
        g = -g
    if g != 1:
        support = [(k, v // g) for k, v in support]
        for k, v in support:
            prow[k] = v
    p = dens[r] = prow[c]
    for i, row in enumerate(rows):
        f = row[c]
        if f and i != r:
            rows[i], dens[i] = _eliminate(row, dens[i], p, f, support)
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


def _weighted_rows(
    lp: LinearProgram, y: Sequence[Fraction]
) -> tuple[list[int], int, int]:
    """``sum_i y_i a_i`` and ``sum_i y_i b_i`` over the constraint rows,
    skipping zero multipliers, as integers over one positive denominator:
    ``(s, t, d)`` stands for ``s / d`` and ``t / d``."""
    terms = [(v, row) for v, row in zip(y, lp._int_rows) if v]
    d = lcm(*(v.denominator * den for v, (_, _, _, den) in terms))
    s = [0] * lp.n_variables
    t = 0
    for v, (pairs, _, b, den) in terms:
        w = v.numerator * (d // (v.denominator * den))
        for j, a in pairs:
            s[j] += w * a
        t += w * b
    return s, t, d


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve *lp* exactly.  Deterministic: identical inputs yield
    identical solutions, including the choice of optimal vertex."""
    n = lp.n_variables
    minimize = lp.sense == MINIMIZE
    zero = Fraction(0)

    # Variable transform: shift lower-bounded variables to x' >= 0, flip
    # upper-only variables, split free ones.  Two-sided bounds add an
    # internal <= row on the shifted variable.
    places: list[list[tuple[int, int]]] = []  # per user var: (column, sign)
    base: list[Fraction] = [zero] * n
    bound_rows: list[tuple[int, Fraction]] = []  # (column, shifted upper bound)
    n_std = 0
    for j in range(n):
        lo, up = lp.lower[j], lp.upper[j]
        signs = (1,) if lo is not None else (-1,) if up is not None else (1, -1)
        places.append([(n_std + k, sign) for k, sign in enumerate(signs)])
        n_std += len(signs)
        if lo is not None:
            base[j] = lo
            if up is not None:
                if lo > up:
                    return LpSolution(status=INFEASIBLE)
                bound_rows.append((n_std - 1, up - lo))
        elif up is not None:
            base[j] = up
    shifted = any(base)

    # Standard-form rows over one positive denominator each, from the
    # program's integer rows (a shift of the variables moves the rhs and
    # may scale the row), then the internal bound rows.  A row with a
    # negative right-hand side is negated, which swaps <= and >=.
    std: list[tuple[list[int], str, int, int]] = []  # (coeffs, rel, rhs, den)
    row_signs: list[int] = []  # -1 where a user row was negated
    for pairs, rel, b, den in lp._int_rows:
        scale = 1
        shift = shifted and sum((a * base[j] for j, a in pairs if base[j]), zero)
        if shift:
            b -= shift
            scale, b = b.denominator, b.numerator
            den *= scale
        if b < 0:
            scale, b = -scale, -b
            if rel != EQUAL:
                rel = LESS_EQUAL if rel == GREATER_EQUAL else GREATER_EQUAL
        row = [0] * n_std
        for j, a in pairs:
            for col, sign in places[j]:
                row[col] = sign * scale * a
        std.append((row, rel, b, den))
        row_signs.append(-1 if scale < 0 else 1)
    for col, ub in bound_rows:
        row = [0] * n_std
        row[col] = ub.denominator
        std.append((row, LESS_EQUAL, ub.numerator, ub.denominator))
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
                    rows[m], dens[m], dens[k], f, _support(rows[k])
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
        cert = tuple(
            Fraction(sign * ((oden if ic >= art_start else 0) - obj[ic]), oden)
            for sign, ic in zip(row_signs, ident_col)
        )
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
    c_ints, c_den = _int_row(lp.objective)
    rows[m], dens[m] = [0] * (ncols + 1), c_den
    for c, pl in zip(c_ints, places):
        for col, sign in pl:
            rows[m][col] = c if (sign > 0) == minimize else -c
    price_basis()
    status = _run_simplex(rows, dens, basis, art_start)
    if status == UNBOUNDED:
        return LpSolution(status=UNBOUNDED)

    # Fractions only for nonzero values; an unshifted +1 column is read as is
    x_std = [zero] * n_std
    for k in range(m):
        if basis[k] < n_std and rows[k][-1]:
            x_std[basis[k]] = Fraction(rows[k][-1], dens[k])
    primal = tuple(
        x_std[pl[0][0]] if len(pl) == 1 and pl[0][1] > 0 and not base[j]
        else sum((sign * x_std[col] for col, sign in pl), base[j])
        for j, pl in enumerate(places)
    )

    # Duals: y = c_B B^{-1}; reading the final tableau at each row's
    # initial identity column gives B^{-1}, and every such column has
    # phase-2 cost zero, so y_k = -objrow[ident_col[k]] for a minimum.
    # The same row holds the reduced costs of the standard columns.  A
    # variable's is the entry at its first column, signed by the sense
    # and the column's sign.  A two-sided variable's entry also carries
    # the dual of its internal bound row, taken back out by subtracting
    # the entry at that row's identity column.
    obj, oden = rows[m], dens[m]
    sense = -1 if minimize else 1
    dual = tuple(
        Fraction(sense * sign * obj[ic], oden) if obj[ic] else zero
        for sign, ic in zip(row_signs, ident_col)
    )
    bound_ic = {
        col: ic
        for (col, _), ic in zip(bound_rows, ident_col[len(lp._int_rows):])
    }
    reduced = []
    for pl in places:
        col, sign = pl[0]
        r = obj[col] - obj[bound_ic[col]] if col in bound_ic else obj[col]
        reduced.append(Fraction(-sense * sign * r, oden) if r else zero)
    solution = LpSolution(
        status=OPTIMAL,
        objective_value=sum((c * x for c, x in zip(lp.objective, primal) if x), zero),
        primal=primal,
        dual=dual,
        reduced_costs=tuple(reduced),
    )
    verify_optimal(lp, solution)
    return solution


def verify_optimal(lp: LinearProgram, sol: LpSolution) -> None:
    """Exact optimality audit; raises :class:`InternalCheckError` if any
    of primal feasibility, dual feasibility, complementary slackness, or
    primal/dual objective equality fails.  The substitutions run in
    integers over the program's integer rows, and the reduced costs are
    recomputed here as ``c - A^T y`` from the duals."""
    if sol.status != OPTIMAL:
        raise InternalCheckError("not an optimal solution")
    assert sol.primal is not None and sol.dual is not None
    assert sol.reduced_costs is not None and sol.objective_value is not None
    x = sol.primal
    y = sol.dual
    n = lp.n_variables
    minimize = lp.sense == MINIMIZE

    # All comparisons run in integers: x_j is x_ints[j] / x_den, row i's
    # sides below are times den_i * x_den, and numerators carry the signs.
    x_ints, x_den = _int_row(x)

    def above(j: int, bound: Fraction) -> int:  # the sign of x_j - bound
        return x_ints[j] * bound.denominator - bound.numerator * x_den

    for j in range(n):
        lo, up = lp.lower[j], lp.upper[j]
        if lo is not None and above(j, lo) < 0:
            raise InternalCheckError(f"variable {j} below lower bound")
        if up is not None and above(j, up) > 0:
            raise InternalCheckError(f"variable {j} above upper bound")
    for i, (pairs, rel, b, _) in enumerate(lp._int_rows):
        lhs = sum(a * x_ints[j] for j, a in pairs)
        rhs = b * x_den
        y_i = y[i].numerator if minimize else -y[i].numerator
        if rel == LESS_EQUAL:
            ok, sign_ok = lhs <= rhs, y_i <= 0
        elif rel == GREATER_EQUAL:
            ok, sign_ok = lhs >= rhs, y_i >= 0
        else:
            ok, sign_ok = lhs == rhs, True
        if not ok:
            raise InternalCheckError(f"constraint {i} violated")
        if not sign_ok:
            raise InternalCheckError(f"dual multiplier {i} has the wrong sign")
        if y_i and lhs != rhs:
            raise InternalCheckError(f"complementary slackness fails at row {i}")

    # c_j - s_j / d is r_j / (c_den * d).  Each r_j x_j is r_j times the
    # bound it pins x_j to, or zero.
    s, t, d = _weighted_rows(lp, y)
    c_ints, c_den = _int_row(lp.objective)
    bound_term = 0
    for j in range(n):
        r = sol.reduced_costs[j]
        r_j = c_ints[j] * d - s[j] * c_den
        if r.numerator * c_den * d != r_j * r.denominator:
            raise InternalCheckError(f"reduced cost {j} inconsistent with duals")
        lo, up = lp.lower[j], lp.upper[j]
        r_sign = r.numerator if minimize else -r.numerator
        if r_sign > 0 and (lo is None or above(j, lo)):
            raise InternalCheckError(
                f"variable {j}: reduced cost pins it to an absent lower bound"
            )
        if r_sign < 0 and (up is None or above(j, up)):
            raise InternalCheckError(
                f"variable {j}: reduced cost pins it to an absent upper bound"
            )
        bound_term += r_j * x_ints[j]

    value = sol.objective_value
    if (value.numerator * c_den * d * x_den
            != (t * c_den * x_den + bound_term) * value.denominator):
        raise InternalCheckError("primal and dual objective values differ")


def verify_infeasibility(lp: LinearProgram, farkas: Sequence[Fraction]) -> None:
    """Check a Farkas certificate by substitution.

    With ``s = sum_i y_i a_i``, any feasible point would satisfy
    ``s.x >= sum_i y_i b_i`` (by the row senses and multiplier signs) while
    the variable bounds force ``s.x <= U`` for the box maximum ``U``; the
    certificate is valid exactly when ``U < sum_i y_i b_i``.  Both sides
    are taken over the common denominator of the weighted integer rows.
    """
    y = list(farkas)
    if len(y) != len(lp._int_rows):
        raise InternalCheckError("certificate length mismatch")
    for i, (_, rel, _, _) in enumerate(lp._int_rows):
        if rel == LESS_EQUAL and y[i] > 0:
            raise InternalCheckError(f"certificate sign at <= row {i}")
        if rel == GREATER_EQUAL and y[i] < 0:
            raise InternalCheckError(f"certificate sign at >= row {i}")
    s, t, _ = _weighted_rows(lp, y)
    box_max = Fraction(0)
    for j, v in enumerate(s):
        if v > 0:
            if lp.upper[j] is None:
                raise InternalCheckError(
                    f"certificate needs an upper bound on variable {j}"
                )
            box_max += v * lp.upper[j]
        elif v < 0:
            if lp.lower[j] is None:
                raise InternalCheckError(
                    f"certificate needs a lower bound on variable {j}"
                )
            box_max += v * lp.lower[j]
    if not box_max < t:
        raise InternalCheckError("certificate does not separate")
