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
of P to the opinion columns (the additive one through
``min_set_distance``); the Genest level is its own program.

Each error model pairs with a unanimity ("Pareto") condition on expected
payoffs or on event probabilities; the checkers return, on failure, a
pair of payoff functions for which every expert prefers one side while
the planner strictly prefers the other beyond the allowed slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .duality import (
    FULL_SIMPLEX,
    ContaminationRefusal,
    DistanceResult,
    _l1_fit,
    min_set_distance,
    contamination_feasible,
)
from .errors import CapExceededError, InputError, InternalCheckError
from .measures import (
    CredalSet,
    ProbVector,
    SignedVector,
    StakesVector,
    expectation,
    mixture,
    oscillation,
)
from .rational import parse_rational
from .simplex import (
    LESS_EQUAL,
    OPTIMAL,
    LinearProgram,
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

DEFAULT_EVENT_CAP = 12  # event pairs grow as 4^points; refuse beyond this


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
    return _additive_report(
        inst, min_set_distance(CredalSet((inst.planner,)), inst.opinions)
    )


def _additive_report(
    inst: PoolingInstance, result: DistanceResult
) -> PoolingReport:
    q_mix = mixture(result.q_weights, inst.opinions)
    error = SignedVector(
        space=inst.space,
        weights=tuple(
            a - b for a, b in zip(inst.planner.weights, q_mix.weights)
        ),
    )
    if error.l1_norm() != result.value:
        raise InternalCheckError("additive error norm mismatch")
    return PoolingReport(
        kind="additive",
        epsilon_min=result.value,
        weights=result.q_weights,
        error=error,
    )


def pool_min_eps_genest(inst: PoolingInstance) -> PoolingReport:
    """Least eps with P = (1 - eps) Q_m + eps R for some probability
    vector R.  Equivalently: maximize the opinion mass lambda >= 0 with
    sum_j lambda_j Q_j <= P coordinatewise; then eps = 1 - sum lambda."""
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
    covered = [
        sum((lam[j] * inst.opinions.members[j].weights[x] for j in range(nq)), _ZERO)
        for x in range(n)
    ]
    if eps == 0:
        residual = None
    else:
        residual = ProbVector(
            space=inst.space,
            weights=tuple(
                (inst.planner.weights[x] - covered[x]) / eps for x in range(n)
            ),
        )
    for x in range(n):
        rhs = covered[x] + (eps * residual.weights[x] if residual else _ZERO)
        if rhs != inst.planner.weights[x]:
            raise InternalCheckError("residual decomposition fails")
    return PoolingReport(
        kind="genest",
        epsilon_min=eps,
        weights=lam,
        residual=residual,
    )


def pool_min_eps_normalized(
    inst: PoolingInstance, constrain_sum: bool
) -> PoolingReport:
    """Minimize ||P - sum_i m_i Q_i||_1 over nonnegative weights, with
    the weights summing to one when *constrain_sum* is set and free
    otherwise: the L1 fit of P to the opinion columns, in one block or
    none."""
    nq = inst.opinions.size
    value, weights, error, _ = _l1_fit(
        inst.planner.weights,
        [q.weights for q in inst.opinions.members],
        (range(nq),) if constrain_sum else (),
    )
    return PoolingReport(
        kind="normalized-additive",
        epsilon_min=value,
        weights=weights,
        error=SignedVector(space=inst.space, weights=error),
        sum_constrained=constrain_sum,
    )


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
) -> tuple[Optional[ParetoWitness], DistanceResult]:
    """Condition C together with the distance result it was decided
    on, which also yields the additive report."""
    tol = parse_rational(eps)
    if tol < 0:
        raise InputError("slack must be nonnegative")
    result = min_set_distance(CredalSet((inst.planner,)), inst.opinions)
    if result.value <= tol:
        return None, result
    witness = _pareto_witness(
        inst, result.stakes, lambda h: tol * oscillation(h) / 2
    )
    return witness, result


def check_condition_Cstar(
    inst: PoolingInstance, eps: object
) -> Optional[ParetoWitness]:
    """Unanimity with the one-sided penalty ``eps * (osc(h) - max h)``
    for h = f - g.  Equivalent to the Genest-style pooling level being at
    most eps; the witness on failure comes from the contamination
    refusal stakes."""
    tol = parse_rational(eps)
    if not (0 <= tol <= 1):
        raise InputError("slack must lie in [0, 1]")
    outcome = contamination_feasible(
        inst.planner, inst.opinions, FULL_SIMPLEX, tol
    )
    if not isinstance(outcome, ContaminationRefusal):
        return None
    return _pareto_witness(
        inst, outcome.stakes, lambda h: tol * (oscillation(h) - max(h.values))
    )


def _pareto_witness(
    inst: PoolingInstance, stakes: StakesVector, penalty
) -> ParetoWitness:
    """The pair f = -stakes, g = the experts' least expected payoff of f
    as a constant, with the conclusion's slack ``penalty(f - g)``."""
    f = StakesVector(
        space=inst.space,
        values=tuple(-v for v in stakes.values),
    )
    floor = min(expectation(f, q) for q in inst.opinions.members)
    g = _constant_stakes(inst.space, floor)
    margins = tuple(
        expectation(f, q) - floor for q in inst.opinions.members
    )
    h = StakesVector(
        space=inst.space,
        values=tuple(a - b for a, b in zip(f.values, g.values)),
    )
    conclusion_rhs = expectation(g, inst.planner) - penalty(h)
    violation = conclusion_rhs - expectation(f, inst.planner)
    return ParetoWitness(
        f=f, g=g, premise_margins=margins, violation_amount=violation
    )


def _event_probabilities(p: ProbVector) -> list[Fraction]:
    """Probability of every subset of points, indexed by bitmask."""
    n = p.space.size
    out = [_ZERO] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        out[mask] = out[mask & (mask - 1)] + p.weights[low]
    return out


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
    a pair of events attaining it; the condition at *eps* holds exactly
    when ``eps >= min_required_eps``.  Exhaustive over all event pairs,
    so the point space is capped.
    """
    parse_rational(eps)  # validated for form; the threshold is returned
    if planner.space != opinions.space:
        raise InputError("planner and opinions on different point spaces")
    _check_event_cap(planner.space, max_points)
    p_ev = _event_probabilities(planner)
    q_ev = [_event_probabilities(q) for q in opinions.members]
    total = 1 << planner.space.size
    best = _ZERO
    best_pair = (0, 0)
    for m1 in range(total):
        for m2 in range(total):
            if all(qe[m1] >= qe[m2] for qe in q_ev):
                gap = p_ev[m2] - p_ev[m1]
                if gap > best:
                    best = gap
                    best_pair = (m1, m2)
    pair = (
        _mask_labels(planner.space, best_pair[0]),
        _mask_labels(planner.space, best_pair[1]),
    )
    return best, pair


def check_event_minmax(
    planner: ProbVector,
    opinions: CredalSet,
    max_points: int = DEFAULT_EVENT_CAP,
) -> tuple[Fraction, Fraction, tuple[str, ...]]:
    """Least slacks for the two single-event envelope conditions:
    planner at most ``max_i Q_i(E) + eps/2`` on every event, and at least
    ``min_i Q_i(E) - eps/2``.  The two thresholds coincide (complement
    an event to swap them); both are returned, along with the first
    event attaining the upper-envelope slack."""
    if planner.space != opinions.space:
        raise InputError("planner and opinions on different point spaces")
    _check_event_cap(planner.space, max_points)
    p_ev = _event_probabilities(planner)
    q_ev = [_event_probabilities(q) for q in opinions.members]
    total = 1 << planner.space.size
    worst_over = _ZERO
    worst_under = _ZERO
    worst_mask = 0
    for mask in range(total):
        hi = max(qe[mask] for qe in q_ev)
        lo = min(qe[mask] for qe in q_ev)
        if p_ev[mask] - hi > worst_over:
            worst_over = p_ev[mask] - hi
            worst_mask = mask
        worst_under = max(worst_under, lo - p_ev[mask])
    eps_over = 2 * worst_over
    eps_under = 2 * worst_under
    if eps_over != eps_under:
        raise InternalCheckError("envelope thresholds must coincide")
    labels = planner.space.labels
    event = tuple(
        labels[i] for i in range(planner.space.size) if worst_mask >> i & 1
    )
    return eps_over, eps_under, event
