import contextlib
import random
import re
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nrb import (
    EQUAL,
    CredalSet,
    GREATER_EQUAL,
    INFEASIBLE,
    LESS_EQUAL,
    OPTIMAL,
    UNBOUNDED,
    InputError,
    InternalCheckError,
    LinearProgram,
    LpSolution,
    PointSpace,
    ProbVector,
    brute_force_lp,
    min_set_distance,
    solve_lp,
    verify_infeasibility,
    verify_optimal,
)
from nrb import simplex
from nrb.simplex import MINIMIZE


def test_bound_tight_minimum():
    # min x subject to x >= 1/3, x <= 1
    lp = LinearProgram(
        objective=(F(1),),
        sense="min",
        constraints=(),
        lower=(F(1, 3),),
        upper=(F(1),),
    )
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.primal == (F(1, 3),)
    assert sol.objective_value == F(1, 3)


def test_empty_interval_is_infeasible():
    # min 0 subject to x >= 1, x <= 0
    lp = LinearProgram(
        objective=(F(0),),
        sense="min",
        constraints=(),
        lower=(F(1),),
        upper=(F(0),),
    )
    assert solve_lp(lp).status == INFEASIBLE


def test_row_infeasibility_carries_certificate():
    lp = LinearProgram(
        objective=(F(0), F(0)),
        sense="min",
        constraints=(
            ((F(1), F(1)), LESS_EQUAL, F(1)),
            ((F(1), F(1)), GREATER_EQUAL, F(2)),
        ),
        lower=(F(0), F(0)),
    )
    sol = solve_lp(lp)
    assert sol.status == INFEASIBLE
    assert sol.farkas is not None
    verify_infeasibility(lp, sol.farkas)


def test_unbounded_detection():
    lp = LinearProgram(
        objective=(F(-1),),
        sense="min",
        constraints=(((F(-1),), LESS_EQUAL, F(0)),),
        lower=(F(0),),
    )
    assert solve_lp(lp).status == UNBOUNDED


def test_optimal_solution_passes_full_audit():
    lp = LinearProgram(
        objective=(F(2), F(3)),
        sense="max",
        constraints=(
            ((F(1), F(2)), LESS_EQUAL, F(4)),
            ((F(1), F(-1)), GREATER_EQUAL, F(-3)),
            ((F(1), F(1)), EQUAL, F(3)),
        ),
        lower=(F(0), F(0)),
    )
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    verify_optimal(lp, sol)
    # strong duality is part of the audit, but pin the value anyway
    lhs = sum(c * x for c, x in zip(lp.objective, sol.primal))
    assert lhs == sol.objective_value


def test_free_variables_allowed():
    # min x + y with x + y >= -5 and no sign restriction
    lp = LinearProgram(
        objective=(F(1), F(1)),
        sense="min",
        constraints=(((F(1), F(1)), GREATER_EQUAL, F(-5)),),
    )
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.objective_value == F(-5)


def test_degenerate_program_terminates():
    # Beale-style degeneracy; Bland's rule must not cycle.
    lp = LinearProgram(
        objective=(F(-3, 4), F(150), F(-1, 50), F(6)),
        sense="min",
        constraints=(
            ((F(1, 4), F(-60), F(-1, 25), F(9)), LESS_EQUAL, F(0)),
            ((F(1, 2), F(-90), F(-1, 50), F(3)), LESS_EQUAL, F(0)),
            ((F(0), F(0), F(1), F(0)), LESS_EQUAL, F(1)),
        ),
        lower=(F(0),) * 4,
    )
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.objective_value == F(-1, 20)


def test_redundant_equalities_are_harmless():
    lp = LinearProgram(
        objective=(F(1), F(1)),
        sense="min",
        constraints=(
            ((F(1), F(1)), EQUAL, F(1)),
            ((F(2), F(2)), EQUAL, F(2)),
        ),
        lower=(F(0), F(0)),
    )
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.objective_value == F(1)


def test_ragged_rows_rejected():
    with pytest.raises(InputError):
        LinearProgram(
            objective=(F(1), F(1)),
            sense="min",
            constraints=(((F(1),), LESS_EQUAL, F(1)),),
        )


def test_unknown_relation_rejected():
    with pytest.raises(InputError):
        LinearProgram(
            objective=(F(1),),
            sense="min",
            constraints=(((F(1),), "<", F(1)),),
        )


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(sense="maximize"), "unknown sense 'maximize'"),
        (dict(constraints=(((F(1), F(1)), LESS_EQUAL),)),
         "constraint 0 is not a triple"),
        (dict(constraints=(F(1),)), "constraint 0 is not a triple"),
        (dict(lower=(F(0),)), "bound vectors must match the variable count"),
        (dict(upper=(F(1), None, F(2))),
         "bound vectors must match the variable count"),
    ],
)
def test_malformed_programs_rejected_with_their_message(kwargs, message):
    with pytest.raises(InputError, match=rf"^{re.escape(message)}$"):
        LinearProgram(objective=(F(1), F(1)), **kwargs)


def test_floats_rejected_in_programs():
    with pytest.raises(InputError):
        LinearProgram(objective=(0.5,), sense="min", constraints=())


def test_fraction_values_are_kept_and_others_parsed_as_before(monkeypatch):
    """Objective entries, bounds and right-hand sides that are already
    ``Fraction`` are kept as the same objects, with no parse; an ``int``
    or a string still becomes a ``Fraction``, and a float or a bool still
    raises the parser's message."""
    calls = []
    parse = simplex.parse_rational

    def counted(value):
        calls.append(value)
        return parse(value)

    monkeypatch.setattr(simplex, "parse_rational", counted)
    half, third = F(1, 2), F(1, 3)
    lp = LinearProgram(
        objective=(half, third), constraints=[((1, 1), EQUAL, half)],
        lower=(half, None), upper=(None, third),
    )
    assert calls == []
    assert lp.objective[0] is half and lp.objective[1] is third
    assert lp.lower[0] is half and lp.upper == (None, third)
    lp = LinearProgram(objective=(1, "2/4"), lower=(0, "1/3"), upper=(half, 2))
    assert calls == [1, "2/4", 0, "1/3", 2]
    assert lp.objective == (F(1), F(1, 2)) and lp.lower == (F(0), F(1, 3))
    assert lp.upper == (half, F(2))
    assert all(type(v) is F for v in lp.objective + lp.lower + lp.upper)
    for kwargs, message in (
        ({"objective": (half, 0.5)},
         "expected int, Fraction, or string, got float"),
        ({"objective": (half, half), "lower": (half, True)},
         "expected a rational number, got bool True"),
        ({"objective": (half, half), "upper": (0.25, None)},
         "expected int, Fraction, or string, got float"),
    ):
        with pytest.raises(InputError, match=rf"^{re.escape(message)}$"):
            LinearProgram(**kwargs)


def test_deterministic_resolve():
    lp = LinearProgram(
        objective=(F(1), F(2), F(-1)),
        sense="min",
        constraints=(
            ((F(1), F(1), F(1)), EQUAL, F(1)),
            ((F(1), F(-1), F(0)), LESS_EQUAL, F(1, 2)),
        ),
        lower=(F(0), F(0), F(0)),
    )
    first = solve_lp(lp)
    second = solve_lp(lp)
    assert isinstance(first, LpSolution)
    assert first == second


def _random_boxed_lp(rng):
    n = rng.randrange(2, 5)
    m = rng.randrange(2, 6)
    rows = []
    for _ in range(m):
        coeffs = tuple(F(rng.randrange(-4, 5)) for _ in range(n))
        rel = "=" if rng.random() < 0.2 else rng.choice([LESS_EQUAL, GREATER_EQUAL])
        rows.append((coeffs, rel, F(rng.randrange(-6, 7))))
    return LinearProgram(
        objective=tuple(F(rng.randrange(-5, 6)) for _ in range(n)),
        sense=rng.choice(["min", "max"]),
        constraints=tuple(rows),
        lower=(F(0),) * n,
        upper=(F(5),) * n,
    )


def test_matches_vertex_enumeration_on_random_boxed_programs():
    """Boxed feasible regions are polytopes, so enumerating candidate
    active sets is a complete, independent way to find the optimum."""
    rng = random.Random(20240817)
    optima = 0
    for _ in range(60):
        lp = _random_boxed_lp(rng)
        fast = solve_lp(lp)
        status, value = brute_force_lp(lp)
        assert fast.status == status
        if status == OPTIMAL:
            assert fast.objective_value == value
            optima += 1
    assert optima >= 15  # the generator must exercise the optimal path


def test_duals_priced_in_user_space():
    # min x1 + 2 x2 st x1 + x2 >= 1, x1 - x2 <= 3, x >= 0
    lp = LinearProgram(
        objective=(F(1), F(2)),
        sense="min",
        constraints=(
            ((F(1), F(1)), GREATER_EQUAL, F(1)),
            ((F(1), F(-1)), LESS_EQUAL, F(3)),
        ),
        lower=(F(0), F(0)),
    )
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.objective_value == F(1)
    assert sol.dual[0] == F(1)  # the binding covering row prices at 1
    assert sol.dual[1] == F(0)
    r = sol.reduced_costs
    assert r[0] == F(0) and r[1] == F(1)


def _rationals(low, high):
    return st.fractions(low, high, max_denominator=12)


@st.composite
def bounded_programs(draw):
    """Small programs with a bounded feasible region, so that
    ``brute_force_lp`` is complete: rational data with denominators up to
    12, negative right-hand sides, two-sided bounds with a nonzero lower
    bound, up to n equalities (some of them combinations of the others),
    and lower-only, upper-only and free variables held in by explicit
    (scaled) rows."""
    n = draw(st.integers(1, 3))
    coeff = _rationals(-6, 6)
    rhs = _rationals(-8, 8)
    rows = []
    lower, upper, anchor = [], [], []
    for j in range(n):
        kind = draw(st.sampled_from(["box", "lower", "upper", "free"]))
        lo = draw(_rationals(-4, 4))
        hi = lo + draw(_rationals(0, 6))
        scale = draw(_rationals(F(1, 12), 3))
        unit = tuple(scale if k == j else F(0) for k in range(n))
        lower.append(lo if kind in ("box", "lower") else None)
        upper.append(hi if kind in ("box", "upper") else None)
        anchor.append((lo + hi) / 2)
        if kind in ("upper", "free"):
            rows.append((unit, GREATER_EQUAL, scale * lo))
        if kind in ("lower", "free"):
            rows.append((unit, LESS_EQUAL, scale * hi))
    # Half of the inequalities and fresh equalities hold at the centre
    # of the bounds, so that programs with several equalities are often
    # still feasible.
    for _ in range(draw(st.integers(1, 3))):
        coeffs = tuple(draw(coeff) for _ in range(n))
        rel = draw(st.sampled_from([LESS_EQUAL, GREATER_EQUAL]))
        if draw(st.booleans()):
            slack = draw(_rationals(0, 4))
            centre = sum((c * x for c, x in zip(coeffs, anchor)), F(0))
            b = centre + slack if rel == LESS_EQUAL else centre - slack
        else:
            b = draw(rhs)
        rows.append((coeffs, rel, b))
    equalities = []
    for _ in range(draw(st.integers(0, n))):
        if equalities and draw(st.booleans()):
            # Dependent: a combination of the earlier equalities, with
            # the same combination of their right-hand sides (redundant)
            # or a fresh one (usually inconsistent, so infeasible).
            mult = [draw(_rationals(-3, 3)) for _ in equalities]
            coeffs = tuple(
                sum((k * row[0][j] for k, row in zip(mult, equalities)), F(0))
                for j in range(n)
            )
            if draw(st.booleans()):
                b = sum((k * row[2] for k, row in zip(mult, equalities)), F(0))
            else:
                b = draw(rhs)
        else:
            coeffs = tuple(draw(coeff) for _ in range(n))
            if draw(st.booleans()):
                b = sum((c * x for c, x in zip(coeffs, anchor)), F(0))
            else:
                b = draw(rhs)
        assume(any(coeffs))
        equalities.append((coeffs, EQUAL, b))
    rows += equalities
    return LinearProgram(
        objective=tuple(draw(coeff) for _ in range(n)),
        sense=draw(st.sampled_from(["min", "max"])),
        constraints=tuple(draw(st.permutations(rows))),
        lower=tuple(lower),
        upper=tuple(upper),
    )


@given(bounded_programs())
@settings(max_examples=150, deadline=None)
def test_matches_brute_force_on_rational_bounded_programs(lp):
    sol = solve_lp(lp)
    status, value = brute_force_lp(lp)
    assert sol.status == status
    if status == OPTIMAL:
        assert sol.objective_value == value
        verify_optimal(lp, sol)
    else:
        assert sol.farkas is not None
        verify_infeasibility(lp, sol.farkas)


# The audits as they were when every check ran in ``Fraction`` arithmetic
# over the whole program; the integer audits must agree with them on
# every solution, corrupted or not: accept alike, or raise the same
# first message.


def _reference_dot(a, b):
    return sum((u * v for u, v in zip(a, b) if u and v), F(0))


def _reference_weighted_rows(lp, y):
    s = [F(0)] * lp.n_variables
    for yi, (coeffs, _, _) in zip(y, lp.constraints):
        if yi:
            for j, a in enumerate(coeffs):
                if a:
                    s[j] += yi * a
    return s


def _reference_check(condition, message):
    if not condition:
        raise InternalCheckError(message)


def _reference_verify_optimal(lp, sol):
    _check = _reference_check
    _check(sol.status == OPTIMAL, "not an optimal solution")
    x = sol.primal
    y = sol.dual
    n = lp.n_variables
    minimize = lp.sense == MINIMIZE

    for j in range(n):
        lo, up = lp.lower[j], lp.upper[j]
        _check(lo is None or x[j] >= lo, f"variable {j} below lower bound")
        _check(up is None or x[j] <= up, f"variable {j} above upper bound")
    for i, (coeffs, rel, rhs) in enumerate(lp.constraints):
        lhs = _reference_dot(coeffs, x)
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

    weighted = _reference_weighted_rows(lp, y)
    bound_term = F(0)
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

    dual_value = _reference_dot(y, [rhs for _, _, rhs in lp.constraints]) + bound_term
    _check(
        sol.objective_value == dual_value,
        "primal and dual objective values differ",
    )


def _reference_verify_infeasibility(lp, farkas):
    _check = _reference_check
    y = list(farkas)
    _check(len(y) == len(lp.constraints), "certificate length mismatch")
    for i, (_, rel, _) in enumerate(lp.constraints):
        if rel == LESS_EQUAL:
            _check(y[i] <= 0, f"certificate sign at <= row {i}")
        elif rel == GREATER_EQUAL:
            _check(y[i] >= 0, f"certificate sign at >= row {i}")
    box_max = F(0)
    for j, s in enumerate(_reference_weighted_rows(lp, y)):
        if s > 0:
            _check(lp.upper[j] is not None,
                   f"certificate needs an upper bound on variable {j}")
            box_max += s * lp.upper[j]
        elif s < 0:
            _check(lp.lower[j] is not None,
                   f"certificate needs a lower bound on variable {j}")
            box_max += s * lp.lower[j]
    rhs_total = _reference_dot(y, [rhs for _, _, rhs in lp.constraints])
    _check(box_max < rhs_total, "certificate does not separate")


def _audit_message(audit, *args):
    """None when *audit* accepts, else its InternalCheckError message."""
    try:
        audit(*args)
    except InternalCheckError as exc:
        return str(exc)
    return None


def _replace(values, index, value):
    values = list(values)
    values[index] = value
    return tuple(values)


def _some_index(draw, values):
    """An index into *values*, a nonzero entry where there is one."""
    nonzero = [i for i, v in enumerate(values) if v]
    return draw(st.sampled_from(nonzero or range(len(values))))


@st.composite
def audited_solutions(draw):
    """A solved program from ``bounded_programs`` and its solution,
    corrupted in one of the ways an audit must catch, or left alone."""
    lp = draw(bounded_programs())
    sol = solve_lp(lp)
    if sol.status == OPTIMAL:
        kinds = ["primal", "reduced cost", "objective"]
        kinds += ["dual"] if lp.constraints else []
    else:
        kinds = ["farkas"] if sol.farkas else []
    kind = draw(st.sampled_from(kinds + ["none"]))
    if kind == "primal":
        j = draw(st.integers(0, lp.n_variables - 1))
        step = draw(st.sampled_from([F(1, 1000), F(-1, 1000)]))
        sol = LpSolution(status=sol.status, objective_value=sol.objective_value,
                         primal=_replace(sol.primal, j, sol.primal[j] + step),
                         dual=sol.dual, reduced_costs=sol.reduced_costs)
    elif kind == "dual":
        i = _some_index(draw, sol.dual)
        sol = LpSolution(status=sol.status, objective_value=sol.objective_value,
                         primal=sol.primal,
                         dual=_replace(sol.dual, i, -sol.dual[i]),
                         reduced_costs=sol.reduced_costs)
    elif kind == "reduced cost":
        j = draw(st.integers(0, lp.n_variables - 1))
        shift = draw(_rationals(-2, 2).filter(bool))
        sol = LpSolution(status=sol.status, objective_value=sol.objective_value,
                         primal=sol.primal, dual=sol.dual,
                         reduced_costs=_replace(sol.reduced_costs, j,
                                                sol.reduced_costs[j] + shift))
    elif kind == "objective":
        shift = draw(_rationals(-2, 2).filter(bool))
        sol = LpSolution(status=sol.status,
                         objective_value=sol.objective_value + shift,
                         primal=sol.primal, dual=sol.dual,
                         reduced_costs=sol.reduced_costs)
    elif kind == "farkas":
        i = _some_index(draw, sol.farkas)
        sol = LpSolution(status=sol.status,
                         farkas=_replace(sol.farkas, i, F(0)))
    return lp, sol, kind


@given(audited_solutions())
@settings(max_examples=300, deadline=None)
def test_audits_match_fraction_reference(case):
    lp, sol, kind = case
    if sol.status == OPTIMAL:
        got = _audit_message(verify_optimal, lp, sol)
        want = _audit_message(_reference_verify_optimal, lp, sol)
    else:
        got = _audit_message(verify_infeasibility, lp, sol.farkas)
        want = _audit_message(_reference_verify_infeasibility, lp, sol.farkas)
    assert got == want
    if kind == "none":
        assert got is None


def test_each_corruption_is_caught_with_the_reference_message():
    """One fixed program per audit, each corruption rejected, so that the
    property test above cannot pass by accepting everything."""
    lp = LinearProgram(
        objective=(F(2), F(3)),
        sense="max",
        constraints=(
            ((F(1), F(2)), LESS_EQUAL, F(4)),
            ((F(1), F(-1)), GREATER_EQUAL, F(-3)),
            ((F(1, 2), F(1, 3)), EQUAL, F(3, 2)),
        ),
        lower=(F(0), F(0)),
        upper=(F(5), None),
    )
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    bad = [
        LpSolution(status=OPTIMAL, objective_value=sol.objective_value,
                   primal=_replace(sol.primal, 0, sol.primal[0] + F(1, 1000)),
                   dual=sol.dual, reduced_costs=sol.reduced_costs),
        LpSolution(status=OPTIMAL, objective_value=sol.objective_value,
                   primal=sol.primal, dual=tuple(-y for y in sol.dual),
                   reduced_costs=sol.reduced_costs),
        LpSolution(status=OPTIMAL, objective_value=sol.objective_value,
                   primal=sol.primal, dual=sol.dual,
                   reduced_costs=_replace(sol.reduced_costs, 1,
                                          sol.reduced_costs[1] + 1)),
        LpSolution(status=OPTIMAL, objective_value=sol.objective_value + 1,
                   primal=sol.primal, dual=sol.dual,
                   reduced_costs=sol.reduced_costs),
    ]
    for corrupted in bad:
        want = _audit_message(_reference_verify_optimal, lp, corrupted)
        assert want is not None
        assert _audit_message(verify_optimal, lp, corrupted) == want

    infeasible = LinearProgram(
        objective=(F(0), F(0)),
        sense="min",
        constraints=(
            ((F(1, 2), F(1, 3)), LESS_EQUAL, F(1)),
            ((F(1), F(1)), GREATER_EQUAL, F(7, 2)),
        ),
        lower=(F(0), F(0)),
    )
    sol = solve_lp(infeasible)
    assert sol.status == INFEASIBLE
    for i, y in enumerate(sol.farkas):
        if y:
            farkas = _replace(sol.farkas, i, F(0))
            want = _audit_message(_reference_verify_infeasibility,
                                  infeasible, farkas)
            assert want is not None
            assert _audit_message(verify_infeasibility, infeasible,
                                  farkas) == want


@pytest.mark.parametrize("j", [0, 1])
def test_reduced_cost_audit_compares_the_tableau_with_the_duals(monkeypatch, j):
    """The reduced costs are read off the final objective row and the
    audit recomputes them from the duals, so a corrupted structural entry
    of that row (variable 0 two-sided, variable 1 bounded below) is
    caught there, while the duals, read at the identity columns, are
    unchanged."""
    lp = LinearProgram(
        objective=(F(2), F(3)),
        sense="max",
        constraints=(
            ((F(1), F(2)), LESS_EQUAL, F(4)),
            ((F(1), F(-1)), GREATER_EQUAL, F(-3)),
            ((F(1, 2), F(1, 3)), EQUAL, F(3, 2)),
        ),
        lower=(F(0), F(0)),
        upper=(F(5), None),
    )
    run = simplex._run_simplex
    phases = []

    def corrupted_run(rows, dens, basis, eligible):
        status = run(rows, dens, basis, eligible)
        phases.append(status)
        if len(phases) == 2:  # phase 2: shift reduced cost j by one
            rows[-1][j] += dens[-1]
        return status

    monkeypatch.setattr(simplex, "_run_simplex", corrupted_run)
    with pytest.raises(
        InternalCheckError, match=rf"^reduced cost {j} inconsistent with duals$"
    ):
        solve_lp(lp)
    assert phases == [OPTIMAL, OPTIMAL]


# The row elimination as it was when every scaled row was put back in
# lowest terms at once, over all its entries.  The kernel may leave a
# common factor in a row, but the row must stand for the same rationals.


def _reference_eliminate(row, den, p, f, support):
    g = gcd(f, p)
    a, b = p // g, f // g
    if a != 1:
        row = [v * a for v in row]
        den *= a
    for k, w in support:
        row[k] -= b * w
    g = gcd(den, *row) if a != 1 else 1
    if g != 1:
        row = [v // g for v in row]
        den //= g
    return row, den


def _in_lowest_terms(row, den):
    return gcd(den, *row) == 1


@st.composite
def eliminations(draw):
    """A row over a positive denominator, with zeros inside and outside
    the pivot row's support, sometimes sharing a common factor with its
    denominator and sometimes near the reduction cap; and a pivot row
    over ``p > 0`` whose entry in the pivot column is ``p``, where the
    row has ``f``, a multiple of ``p`` or not."""
    width = draw(st.integers(2, 8))
    c = draw(st.integers(0, width - 1))
    entries = st.integers(-10**6, 10**6)
    sparse = st.one_of(st.just(0), entries)
    p = draw(st.integers(1, 10**4))
    if draw(st.booleans()):
        f = p * draw(st.integers(-50, 50).filter(bool))
    else:
        f = draw(entries.filter(bool))
    row = [draw(sparse) for _ in range(width)]
    row[c] = f
    den = draw(st.one_of(st.integers(1, 10**4), st.integers(2**50, 2**66)))
    common = draw(st.sampled_from([1, 2, 6, 1009, 2**20]))
    pivot = [draw(sparse) for _ in range(width)]
    pivot[c] = p
    support = [(k, v) for k, v in enumerate(pivot) if v]
    return [v * common for v in row], den * common, p, f * common, support


@given(eliminations())
@settings(max_examples=500, deadline=None)
def test_eliminate_matches_reference(case):
    row, den, p, f, support = case
    want, want_den = _reference_eliminate(list(row), den, p, f, support)
    got, got_den = simplex._eliminate(list(row), den, p, f, support)
    assert got_den > 0
    assert [F(v, got_den) for v in got] == [F(v, want_den) for v in want]
    assert got_den <= max(den, 2**62) or _in_lowest_terms(got, got_den)


@contextlib.contextmanager
def _checked_pivots(eliminate=None):
    """Check the tableau after every pivot of the solves run inside: each
    row's basic column equals its denominator, and no denominator above
    2**62 belongs to a row that is not in lowest terms.  Yields a record
    of the pivots, as (row, column) pairs, and of the eliminations that
    reduced a row.  A given *eliminate* replaces the row elimination and
    is held to the first check only: the reference leaves a row it does
    not scale as the update left it, at any size."""
    capped = eliminate is None
    pivot, eliminate = simplex._pivot, eliminate or simplex._eliminate
    record = {"pivots": [], "reductions": 0}

    def checked_pivot(rows, dens, basis, r, c):
        pivot(rows, dens, basis, r, c)
        record["pivots"].append((r, c))
        for k, j in enumerate(basis):
            assert rows[k][j] == dens[k]
        for row, den in zip(rows, dens):
            assert den > 0
            assert den <= 2**62 or not capped or _in_lowest_terms(row, den)

    def counted_eliminate(row, den, p, f, support):
        scaled = den * (p // gcd(f, p))
        row, den = eliminate(row, den, p, f, support)
        record["reductions"] += den < scaled
        return row, den

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_pivot", checked_pivot)
        mp.setattr(simplex, "_eliminate", counted_eliminate)
        yield record


@given(bounded_programs())
@settings(max_examples=150, deadline=None)
def test_tableau_invariants_hold_after_every_pivot(lp):
    with _checked_pivots() as got:
        sol = solve_lp(lp)
    with _checked_pivots(_reference_eliminate) as want:
        assert solve_lp(lp) == sol
    assert got["pivots"] == want["pivots"]


def test_tableau_invariants_hold_past_the_reduction_cap():
    """A credal-12 distance with member denominators near 1000: rows
    outgrow 62 bits, are reduced, and the pivots and the result are
    those of the reference elimination."""
    rng = random.Random(0)
    space = PointSpace(labels=tuple(str(i) for i in range(12)))

    def member():
        denom = rng.randrange(990, 1010)
        cuts = sorted(rng.randrange(denom + 1) for _ in range(space.size - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [denom])]
        return ProbVector(space, tuple(F(v, denom) for v in parts))

    p_set = CredalSet(tuple(member() for _ in range(4)))
    q_set = CredalSet(tuple(member() for _ in range(8)))
    with _checked_pivots() as got:
        result = min_set_distance(p_set, q_set)
    with _checked_pivots(_reference_eliminate) as want:
        assert min_set_distance(p_set, q_set) == result
    assert got["pivots"] == want["pivots"]
    assert got["reductions"] > 0


_entries = st.one_of(st.integers(-4, 4), _rationals(-6, 6))


@st.composite
def two_form_programs(draw):
    """One program given twice: every constraint as a dense tuple, and
    as a ``{column: value}`` mapping of its nonzero entries plus some
    explicit zeros, in shuffled order.  Values mix ``int`` and
    ``Fraction``, and an integral value may switch type between the
    forms."""
    n = draw(st.integers(1, 4))
    objective = tuple(draw(_entries) for _ in range(n))
    dense, mapped = [], []
    for _ in range(draw(st.integers(0, 4))):
        coeffs = tuple(draw(st.one_of(st.just(0), _entries)) for _ in range(n))
        rel = draw(st.sampled_from([LESS_EQUAL, EQUAL, GREATER_EQUAL]))
        rhs = draw(_entries)
        cols = [j for j in range(n) if coeffs[j] or draw(st.booleans())]
        items = []
        for j in draw(st.permutations(cols)):
            v = coeffs[j]
            if v == int(v) and draw(st.booleans()):
                v = int(v) if type(v) is F else F(v)
            items.append((j, v))
        dense.append((coeffs, rel, rhs))
        mapped.append((dict(items), rel, rhs))
    lower = tuple(draw(st.one_of(st.none(), st.just(F(0)), _entries))
                  for _ in range(n))
    upper = tuple(None if lo is None else lo + draw(_rationals(0, 6))
                  for lo in lower)
    return (
        dict(objective=objective, sense=draw(st.sampled_from(["min", "max"])),
             lower=lower, upper=upper),
        dense,
        mapped,
    )


@given(two_form_programs())
@settings(max_examples=200, deadline=None)
def test_mapping_rows_build_the_same_program_as_dense_rows(case):
    kwargs, dense, mapped = case
    by_rows = LinearProgram(constraints=dense, **kwargs)
    by_map = LinearProgram(constraints=mapped, **kwargs)
    assert by_map._int_rows == by_rows._int_rows
    assert by_map.constraints == by_rows.constraints == tuple(
        (tuple(map(F, coeffs)), rel, F(rhs)) for coeffs, rel, rhs in dense
    )
    assert all(type(v) is F for coeffs, _, rhs in by_map.constraints
               for v in (*coeffs, rhs))
    assert by_map == by_rows
    assert hash(by_map) == hash(by_rows)
    assert solve_lp(by_map) == solve_lp(by_rows)


@pytest.mark.parametrize(
    "row, why",
    [
        ({3: 1}, "column outside"),
        ({-1: 1}, "column outside"),
        ({"0": 1}, "columns must be int"),
        ({1.0: 1}, "columns must be int"),
        ({True: 1}, "columns must be int"),
        ({0: 0.5}, "float"),
        ({0: 0.0}, "float"),
        ({0: True}, "bool"),
    ],
)
def test_bad_mapping_rows_rejected_naming_the_constraint(row, why):
    with pytest.raises(InputError, match=rf"^constraint 1: .*{why}"):
        LinearProgram(
            objective=(1, 1, 1),
            constraints=(({0: 1, 2: F(1, 2)}, LESS_EQUAL, 1),
                         (row, LESS_EQUAL, 1)),
        )
