"""Almost-linear opinion pooling.

A planner's probability vector P is compared against a finite panel of
expert opinions.  Exact linear pooling asks for P = sum_i m_i Q_i with a
weighted average of the opinions; here the question is how far P is from
achievable, under several error models:

* additive: P = Q_m + e with Q_m a convex combination and ||e||_1 <= eps;
* Genest-style: P = (1 - eps) Q_m + eps R with R a probability vector,
  so the error is itself a (scaled) distribution;
* normalized additive: nonnegative weights, optionally constrained to
  sum to one, minimizing ||P - sum m_i Q_i||_1.

The additive and normalized levels are the L1 fit ``duality._l1_fit``
of P to the opinion columns; the additive level and the normalized one
with the sum constrained solve the same one-block program.  The Genest
level is the largest opinion mass lying under P.

Each error model pairs with a unanimity ("Pareto") condition on expected
payoffs or on event probabilities; the checkers return, on failure, a
pair of payoff functions for which every expert prefers one side while
the planner strictly prefers the other beyond the allowed slack.
Conditions C and C* are each decided on the one program that computes
their level, and their witness comes from that program's optimal duals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import ge, sub
from typing import Optional

from .duality import _combine, _int_columns, _l1_fit, _unit_shift
from .errors import CapExceededError, InputError, InternalCheckError
from .measures import (
    CredalSet,
    ProbVector,
    SignedVector,
    StakesVector,
    expectation,
    oscillation,
)
from .rational import parse_rational
from .simplex import (
    LESS_EQUAL,
    OPTIMAL,
    LinearProgram,
    _int_row,
    solve_lp,
)

__all__ = [
    "PoolingInstance",
    "PoolingReport",
    "ParetoWitness",
    "pool_min_eps_additive",
    "pool_min_eps_genest",
    "pool_min_eps_normalized",
    "check_condition_C",
    "check_condition_Cstar",
    "check_condition_CM",
    "check_event_minmax",
    "DEFAULT_EVENT_CAP",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Event tables have 2^points entries per vector; the CM pair scan
# compares up to about 4^points / 2 pairs (a planner inside the opinion
# hull prunes nothing), so refuse beyond this.
DEFAULT_EVENT_CAP = 12


@dataclass(frozen=True)
class PoolingInstance:
    """A planner vector and the expert panel it is measured against."""

    planner: ProbVector
    opinions: CredalSet

    def __post_init__(self) -> None:
        if self.planner.space != self.opinions.space:
            raise InputError("planner and opinions on different point spaces")

    @property
    def space(self):
        return self.planner.space


@dataclass(frozen=True)
class PoolingReport:
    """Optimal pooling at the stated error level.

    ``kind`` is one of ``"additive"``, ``"genest"``,
    ``"normalized-additive"``.  ``weights`` are the opinion weights (for
    Genest they sum to 1 - epsilon, otherwise per the variant).  Exactly
    one of ``error`` (a signed vector, additive variants) and
    ``residual`` (a probability vector, Genest) describes the slack;
    the residual is omitted when epsilon is zero.
    """

    kind: str
    epsilon_min: Fraction
    weights: tuple[Fraction, ...]
    error: Optional[SignedVector] = None
    residual: Optional[ProbVector] = None
    sum_constrained: Optional[bool] = None


@dataclass(frozen=True)
class ParetoWitness:
    """Two payoff functions breaking a unanimity condition.

    Every expert weakly prefers f to g (``premise_margins`` are their
    expected-payoff leads, all nonnegative) while the planner prefers g
    by strictly more than the condition's slack: the conclusion fails by
    exactly ``violation_amount > 0``.
    """

    f: StakesVector
    g: StakesVector
    premise_margins: tuple[Fraction, ...]
    violation_amount: Fraction

    def __post_init__(self) -> None:
        if any(m < 0 for m in self.premise_margins):
            raise InternalCheckError("witness premise fails for some expert")
        if not self.violation_amount > 0:
            raise InternalCheckError("witness does not violate the conclusion")


def pool_min_eps_additive(inst: PoolingInstance) -> PoolingReport:
    """Least eps with P = Q_m + e, Q_m a convex combination of the
    opinions and ||e||_1 <= eps.  This is the minimum L1 distance from
    the planner to the opinion hull."""
    return _pool_fit(inst, None)[0]


def pool_min_eps_genest(inst: PoolingInstance) -> PoolingReport:
    """Least eps with P = (1 - eps) Q_m + eps R for some probability
    vector R.  Equivalently: maximize the opinion mass lambda >= 0 with
    sum_j lambda_j Q_j <= P coordinatewise; then eps = 1 - sum lambda."""
    return _genest_fit(inst)[0]


def _genest_fit(
    inst: PoolingInstance,
) -> tuple[PoolingReport, tuple[Fraction, ...]]:
    """The Genest program's report and the optimal duals ``y >= 0`` of
    its point rows: ``E_Qj[y] >= 1`` for every opinion and
    ``E_P[y] = 1 - eps``."""
    n = inst.space.size
    nq = inst.opinions.size
    rows = []
    for x in range(n):
        coeffs = tuple(q.weights[x] for q in inst.opinions.members)
        rows.append((coeffs, LESS_EQUAL, inst.planner.weights[x]))
    lp = LinearProgram(
        objective=(_ONE,) * nq,
        sense="max",
        constraints=tuple(rows),
        lower=(_ZERO,) * nq,
    )
    sol = solve_lp(lp)
    if sol.status != OPTIMAL:  # pragma: no cover - always feasible, bounded
        raise InternalCheckError(f"pooling program came back {sol.status}")
    lam = sol.primal
    eps = _ONE - sol.objective_value
    # eps R = P - sum_j lam_j Q_j, as integers r over d, checked for
    # sign and mass before R is built.
    cols, q_den = _int_columns([q.weights for q in inst.opinions.members])
    l_ints, l_den = _int_row(lam)
    p_den = inst.planner._den
    d = lcm(p_den, l_den * q_den)
    r = [
        a * (d // p_den) - c * (d // (l_den * q_den))
        for a, c in zip(inst.planner._ints, _combine(cols, l_ints))
    ]
    if min(r) < 0:
        raise InternalCheckError("residual has a negative entry")
    if sum(r) * eps.denominator != eps.numerator * d:
        raise InternalCheckError("residual mass disagrees with the level")
    residual = None
    if eps:
        scale = d * eps.numerator
        residual = ProbVector(
            space=inst.space,
            weights=tuple(Fraction(v * eps.denominator, scale) for v in r),
        )
    report = PoolingReport(
        kind="genest",
        epsilon_min=eps,
        weights=lam,
        residual=residual,
    )
    return report, sol.dual


def pool_min_eps_normalized(
    inst: PoolingInstance, constrain_sum: bool
) -> PoolingReport:
    """Minimize ||P - sum_i m_i Q_i||_1 over nonnegative weights, with
    the weights summing to one when *constrain_sum* is set and free
    otherwise: the L1 fit of P to the opinion columns, in one block or
    none."""
    return _pool_fit(inst, constrain_sum)[0]


def _pool_fit(
    inst: PoolingInstance, constrain_sum: Optional[bool]
) -> tuple[PoolingReport, StakesVector]:
    """The L1 fit ``_l1_fit`` of P to the opinion columns, and its
    betting stakes.  The weights form one block summing to one unless
    *constrain_sum* is False; None is that same fit, reported as the
    additive kind."""
    nq = inst.opinions.size
    value, weights, error, stakes = _l1_fit(
        inst.planner.weights,
        [q.weights for q in inst.opinions.members],
        () if constrain_sum is False else (range(nq),),
    )
    report = PoolingReport(
        kind="additive" if constrain_sum is None else "normalized-additive",
        epsilon_min=value,
        weights=weights,
        error=SignedVector(space=inst.space, weights=error),
        sum_constrained=constrain_sum,
    )
    return report, StakesVector(space=inst.space, values=stakes)


def _constant_stakes(space, value: Fraction) -> StakesVector:
    return StakesVector(space=space, values=(value,) * space.size)


def check_condition_C(
    inst: PoolingInstance, eps: object
) -> Optional[ParetoWitness]:
    """Unanimity up to oscillation slack.

    Holds (returns None) when for all payoff pairs (f, g): every expert
    weakly preferring f forces the planner to prefer f up to
    ``eps * osc(f - g) / 2``.  This is equivalent to the additive pooling
    level being at most eps; otherwise the optimal separating stakes give
    a violating pair with g constant.
    """
    return _condition_C(inst, eps)[0]


def _condition_C(
    inst: PoolingInstance, eps: object
) -> tuple[Optional[ParetoWitness], PoolingReport]:
    """Condition C together with the additive report it was decided on."""
    tol = parse_rational(eps)
    if tol < 0:
        raise InputError("slack must be nonnegative")
    report, stakes = _pool_fit(inst, None)
    if report.epsilon_min <= tol:
        return None, report
    return _pareto_witness(inst, stakes, tol, star=False), report


def check_condition_Cstar(
    inst: PoolingInstance, eps: object
) -> Optional[ParetoWitness]:
    """Unanimity with the one-sided penalty ``eps * (osc(h) - max h)``
    for h = f - g.  Equivalent to the Genest-style pooling level being at
    most eps.  Below that level the Genest program's optimal duals y
    separate at eps too, since ``E_P[-y] = -(1 - level)`` exceeds
    ``(1 - eps) max_j E_Qj[-y]``; the witness comes from ``-y`` shifted
    and scaled to unit stakes."""
    return _condition_Cstar(inst, eps)[0]


def _condition_Cstar(
    inst: PoolingInstance, eps: object
) -> tuple[Optional[ParetoWitness], PoolingReport]:
    """Condition C* together with the Genest report it was decided on."""
    tol = parse_rational(eps)
    if not (0 <= tol <= 1):
        raise InputError("slack must lie in [0, 1]")
    report, duals = _genest_fit(inst)
    if report.epsilon_min <= tol:
        return None, report
    stakes = StakesVector(
        space=inst.space, values=_unit_shift([-y for y in duals])
    )
    return _pareto_witness(inst, stakes, tol, star=True), report


def _pareto_witness(
    inst: PoolingInstance, stakes: StakesVector, tol: Fraction, star: bool
) -> ParetoWitness:
    """The pair f = -stakes, g = the experts' least expected payoff of f
    as a constant, measured by ``_pareto_terms``."""
    f = StakesVector(
        space=inst.space,
        values=tuple(-v for v in stakes.values),
    )
    floor = min(expectation(f, q) for q in inst.opinions.members)
    g = _constant_stakes(inst.space, floor)
    margins, violation = _pareto_terms(inst, f, g, tol, star)
    return ParetoWitness(
        f=f, g=g, premise_margins=margins, violation_amount=violation
    )


def _pareto_terms(
    inst: PoolingInstance, f: StakesVector, g: StakesVector,
    tol: Fraction, star: bool,
) -> tuple[tuple[Fraction, ...], Fraction]:
    """The premise margins ``E_Q[f] - E_Q[g]``, one per expert, and the
    amount by which the planner's side fails,
    ``E_P[g] - tol * penalty(h) - E_P[f]`` for h = f - g, with penalty
    ``osc(h) / 2`` for condition C and ``osc(h) - max h`` for C*."""
    margins = tuple(
        expectation(f, q) - expectation(g, q) for q in inst.opinions.members
    )
    values = tuple(map(sub, f.values, g.values))
    h = StakesVector(space=inst.space, values=values)
    penalty = oscillation(h) - max(h.values) if star else oscillation(h) / 2
    violation = (
        expectation(g, inst.planner) - tol * penalty
    ) - expectation(f, inst.planner)
    return margins, violation


def _event_table(
    planner: ProbVector, opinions: CredalSet
) -> tuple[int, list[int], list[list[int]]]:
    """Every event's probability under the planner and under each
    opinion, as integers over one common denominator ``d`` (the lcm of
    all weight denominators): ``(d, planner table, opinion tables)``,
    each table indexed by bitmask, bit i standing for point i."""
    vectors = (planner,) + opinions.members
    d = lcm(*(w.denominator for v in vectors for w in v.weights))
    tables = []
    for v in vectors:
        out = [0]
        for w in v.weights:
            # the events containing this point are those already listed
            # with it added, at mask + 2^i
            weight = w.numerator * (d // w.denominator)
            out += [s + weight for s in out]
        tables.append(out)
    return d, tables[0], tables[1:]


def _mask_labels(space, mask: int) -> tuple[str, ...]:
    return tuple(
        space.labels[i] for i in range(space.size) if mask >> i & 1
    )


def _check_event_cap(space, max_points: int) -> None:
    if space.size > max_points:
        raise CapExceededError(
            f"event enumeration over {space.size} points exceeds the cap "
            f"of {max_points}"
        )


def _cm_scan(p_ev: list[int], q_ev: list[list[int]]) -> tuple[int, int, int]:
    """The largest ``p_ev[m2] - p_ev[m1]`` over mask pairs with
    ``qe[m1] >= qe[m2]`` in every opinion table, and the
    lexicographically first pair attaining it; ``(0, 0, 0)`` when no
    gap is positive.

    For each E1 in ascending order the masks are scanned by decreasing
    planner weight (ties by mask), so the first E2 that every opinion
    weighs no more than E1 is this E1's best; the scan stops once no
    remaining E2 could beat the best gap so far."""
    cols = list(zip(*q_ev))
    order = sorted(range(len(p_ev)), key=lambda m: (-p_ev[m], m))
    ranked = [(p_ev[m], m, cols[m]) for m in order]
    best, best_m1, best_m2 = 0, 0, 0
    for m1, c1 in enumerate(cols):
        bound = p_ev[m1] + best
        for p2, m2, c2 in ranked:
            if p2 <= bound:
                break
            if all(map(ge, c1, c2)):
                best, best_m1, best_m2 = p2 - p_ev[m1], m1, m2
                break
    return best, best_m1, best_m2


def check_condition_CM(
    planner: ProbVector,
    opinions: CredalSet,
    eps: object,
    max_points: int = DEFAULT_EVENT_CAP,
) -> tuple[Fraction, tuple[tuple[str, ...], tuple[str, ...]]]:
    """Event-pair unanimity: whenever every expert weighs event E1 at
    least as heavily as E2, the planner may undervalue E1 against E2 by
    at most eps.

    Returns the least slack for which the condition holds together with
    the lexicographically first pair of events (by bitmask) attaining
    it; the condition at *eps* holds exactly when
    ``eps >= min_required_eps``.  Event probabilities are integers over
    one common denominator, and the pair scan visits each E1's
    candidates by decreasing planner weight, stopping at the first one
    every expert ranks below E1 or once none can beat the best gap.
    The worst case is a planner inside the opinion hull, where nothing
    prunes and about half of the 4^points pairs are compared, so the
    point space is capped.  The returned pair is re-verified in
    ``Fraction`` arithmetic.
    """
    parse_rational(eps)  # validated for form; the threshold is returned
    if planner.space != opinions.space:
        raise InputError("planner and opinions on different point spaces")
    _check_event_cap(planner.space, max_points)
    d, p_ev, q_ev = _event_table(planner, opinions)
    best, m1, m2 = _cm_scan(p_ev, q_ev)
    required = Fraction(best, d)
    e1 = _mask_labels(planner.space, m1)
    e2 = _mask_labels(planner.space, m2)
    gap = planner.event_probability(e2) - planner.event_probability(e1)
    premise = all(
        q.event_probability(e1) >= q.event_probability(e2)
        for q in opinions.members
    )
    if gap != required or not premise:
        raise InternalCheckError("event pair fails re-verification")
    return required, (e1, e2)


def check_event_minmax(
    planner: ProbVector,
    opinions: CredalSet,
    max_points: int = DEFAULT_EVENT_CAP,
) -> tuple[Fraction, Fraction, tuple[str, ...]]:
    """Least slacks for the two single-event envelope conditions:
    planner at most ``max_i Q_i(E) + eps/2`` on every event, and at least
    ``min_i Q_i(E) - eps/2``.  The two thresholds coincide (complement
    an event to swap them); both are returned, along with the first
    event attaining the upper-envelope slack, re-verified in
    ``Fraction`` arithmetic."""
    if planner.space != opinions.space:
        raise InputError("planner and opinions on different point spaces")
    _check_event_cap(planner.space, max_points)
    d, p_ev, q_ev = _event_table(planner, opinions)
    worst_over = worst_under = worst_mask = 0
    for mask, (p, hi, lo) in enumerate(
        zip(p_ev, map(max, zip(*q_ev)), map(min, zip(*q_ev)))
    ):
        if p - hi > worst_over:
            worst_over = p - hi
            worst_mask = mask
        if lo - p > worst_under:
            worst_under = lo - p
    eps_over = Fraction(2 * worst_over, d)
    eps_under = Fraction(2 * worst_under, d)
    if eps_over != eps_under:
        raise InternalCheckError("envelope thresholds must coincide")
    event = _mask_labels(planner.space, worst_mask)
    hi = max(q.event_probability(event) for q in opinions.members)
    if 2 * (planner.event_probability(event) - hi) != eps_over:
        raise InternalCheckError("envelope event fails re-verification")
    return eps_over, eps_under, event
