"""Minimum distance between credal sets and its betting dual.

The primal question: how close can members of two convex families of
probability vectors get in L1 distance?  The dual question: how much can
a bettor with sup-norm-bounded stakes guarantee to win by buying against
one family and selling against the other?  The two optimal values agree
exactly, and the solver returns both sides: mixture weights attaining the
minimum distance and a stakes function attaining the same value as an
expected-payoff gap.

That program is one instance of ``_l1_fit``, the exact L1 distance from
a target vector to a convex hull of generator columns with its betting
dual and audit.  Linear pooling (``pooling.pool_min_eps_normalized``)
and random utility (``rum.rum_min_eps``) are the other two.

On top of that sit two decision procedures.  ``gordan_decide`` classifies
an instance as Separation (a stakes function guarantees a gap above the
tolerance) or Proximity (mixtures come within the tolerance), never both.
``contamination_feasible`` asks whether a target vector can be written as
``(1 - eps) Q + eps R`` with Q from one family and R from another (or
from the full simplex); on failure it returns nonnegative unit-norm
stakes whose expected payoffs certify the failure by strict inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import InputError, InternalCheckError
from .measures import (
    CredalSet,
    ProbVector,
    StakesVector,
    expectation,
    mixture,
)
from .rational import parse_rational
from .simplex import (
    EQUAL,
    INFEASIBLE,
    LESS_EQUAL,
    OPTIMAL,
    LinearProgram,
    solve_lp,
)

__all__ = [
    "DistanceResult",
    "Separation",
    "Proximity",
    "GordanOutcome",
    "SeparationCheck",
    "ContaminationDecomposition",
    "ContaminationRefusal",
    "FullSimplex",
    "FULL_SIMPLEX",
    "min_set_distance",
    "member_gap",
    "gordan_decide",
    "check_bounded_separation",
    "contamination_feasible",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)

_Vector = tuple[Fraction, ...]


@dataclass(frozen=True)
class DistanceResult:
    """Minimum L1 distance between two credal sets, with both optimizers.

    ``value`` equals the distance between the mixtures named by
    ``p_weights`` and ``q_weights``, and also equals the guaranteed
    expected-payoff gap of ``stakes``:
    ``min_P E_stakes[P] - max_Q E_stakes[Q]`` over the members.  When the
    value is positive the stakes have sup norm exactly one.
    """

    value: Fraction
    p_weights: tuple[Fraction, ...]
    q_weights: tuple[Fraction, ...]
    stakes: StakesVector


@dataclass(frozen=True)
class Separation:
    """A stakes function with guaranteed gap above the tolerance."""

    stakes: StakesVector
    gap: Fraction


@dataclass(frozen=True)
class Proximity:
    """Mixture weights bringing the two sets within the tolerance."""

    p_weights: tuple[Fraction, ...]
    q_weights: tuple[Fraction, ...]
    distance: Fraction


GordanOutcome = Union[Separation, Proximity]


@dataclass(frozen=True)
class SeparationCheck:
    """Result of the bounded-separation test at a given tolerance."""

    holds: bool
    witness: Optional[StakesVector] = None
    gap: Optional[Fraction] = None


class FullSimplex:
    """Sentinel: draw the residual from the whole probability simplex."""

    def __repr__(self) -> str:  # pragma: no cover
        return "FULL_SIMPLEX"


FULL_SIMPLEX = FullSimplex()


@dataclass(frozen=True)
class ContaminationDecomposition:
    """An exact decomposition ``P = (1 - eps) Q_m + eps R``.

    ``q_weights`` mix the Q-family members into ``Q_m``.  ``residual`` is
    None exactly when eps is zero, in which case R carries no weight and
    ``P = Q_m`` holds outright.
    """

    epsilon: Fraction
    q_weights: tuple[Fraction, ...]
    residual: Optional[ProbVector]


@dataclass(frozen=True)
class ContaminationRefusal:
    """Proof that no decomposition exists: nonnegative stakes of sup norm
    one whose expected payoff against P strictly exceeds the best the
    mixture side can deliver.  ``lhs > rhs`` always."""

    stakes: StakesVector
    lhs: Fraction
    rhs: Fraction


def member_gap(
    f: StakesVector, p_set: CredalSet, q_set: CredalSet
) -> Fraction:
    """Guaranteed gap of *f*: worst expected payoff over the P members
    minus best expected payoff over the Q members."""
    lo = min(expectation(f, p) for p in p_set.members)
    hi = max(expectation(f, q) for q in q_set.members)
    return lo - hi


def _require_shared_space(p_set: CredalSet, q_set: CredalSet) -> None:
    if p_set.space != q_set.space:
        raise InputError("credal sets live on different point spaces")


def _dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((u * v for u, v in zip(a, b) if v), _ZERO)


def _l1_fit(
    target: Sequence[Fraction],
    columns: Sequence[Sequence[Fraction]],
    blocks: Sequence[range],
) -> tuple[Fraction, _Vector, _Vector, _Vector]:
    """The L1 fit shared by set distance, pooling and RUM: least
    ``sum_x |t - G u|_x`` over ``u >= 0``, where the weights of each
    block of column indices sum to one and columns outside every block
    scale freely.

    One exact program, variables z then u: ``-z - G u <= -t`` and
    ``-z + G u <= t`` per coordinate, then one equality row per block.
    Returns the value, the weights u, the error ``t - G u`` and the
    betting stakes ``f_x = dual[n + x] - dual[x]``.  Audited by
    substitution: the error norm is the value; ``|f| <= 1``, with sup
    norm one at a positive value; ``f . G_j <= 0`` off the blocks; and
    ``f . t - sum_b max_{j in b} f . G_j`` is the value.
    """
    n, k = len(target), len(columns)
    lo = [[_ZERO] * (n + k) for _ in range(n)]
    hi = [[_ZERO] * (n + k) for _ in range(n)]
    for x in range(n):
        lo[x][x] = hi[x][x] = _MINUS_ONE
    for j, col in enumerate(columns):
        for x, g in enumerate(col):
            if g:
                lo[x][n + j] = -g
                hi[x][n + j] = g
    rows = [(tuple(r), LESS_EQUAL, -t) for r, t in zip(lo, target)]
    rows += [(tuple(r), LESS_EQUAL, t) for r, t in zip(hi, target)]
    for block in blocks:
        coeffs = [_ZERO] * (n + k)
        for j in block:
            coeffs[n + j] = _ONE
        rows.append((tuple(coeffs), EQUAL, _ONE))
    lp = LinearProgram(
        objective=(_ONE,) * n + (_ZERO,) * k,
        sense="min",
        constraints=tuple(rows),
        lower=(_ZERO,) * (n + k),
    )
    sol = solve_lp(lp)
    if sol.status != OPTIMAL:  # pragma: no cover - feasible and bounded
        raise InternalCheckError(f"L1-fit program came back {sol.status}")

    value = sol.objective_value
    weights = sol.primal[n:]
    error = tuple(
        t - sum((u * col[x] for u, col in zip(weights, columns) if u), _ZERO)
        for x, t in enumerate(target)
    )
    stakes = tuple(sol.dual[n + x] - sol.dual[x] for x in range(n))
    if sum(abs(e) for e in error) != value:
        raise InternalCheckError("fitted error norm disagrees with the value")
    norm = max(abs(f) for f in stakes)
    if norm > 1:
        raise InternalCheckError("stakes exceed unit sup norm")
    if value > 0 and norm != 1:
        raise InternalCheckError("positive value but stakes below unit norm")
    payoffs = [_dot(stakes, col) for col in columns]
    if any(payoffs[j] > 0 for j in set(range(k)).difference(*blocks)):
        raise InternalCheckError("stakes gain on an unconstrained column")
    best = sum((max(payoffs[j] for j in block) for block in blocks), _ZERO)
    if _dot(stakes, target) - best != value:
        raise InternalCheckError("stakes gap disagrees with the value")
    return value, weights, error, stakes


def min_set_distance(p_set: CredalSet, q_set: CredalSet) -> DistanceResult:
    """Minimize L1 distance over the product of the two hulls.

    The L1 fit ``_l1_fit`` with target zero, columns ``-P_j`` then
    ``Q_k`` and one block per family: its error is the difference of the
    two mixtures and its audited stakes are the betting certificate.
    """
    _require_shared_space(p_set, q_set)
    np_ = p_set.size
    columns = [tuple(-v for v in p.weights) for p in p_set.members]
    columns += [q.weights for q in q_set.members]
    value, weights, _, stakes = _l1_fit(
        (_ZERO,) * p_set.space.size,
        columns,
        (range(np_), range(np_, np_ + q_set.size)),
    )
    return DistanceResult(
        value=value,
        p_weights=weights[:np_],
        q_weights=weights[np_:],
        stakes=StakesVector(space=p_set.space, values=stakes),
    )


def gordan_decide(
    p_set: CredalSet, q_set: CredalSet, eps: object
) -> GordanOutcome:
    """Classify at tolerance *eps*: Separation when the minimum distance
    strictly exceeds eps, Proximity otherwise (ties go to Proximity)."""
    tol = parse_rational(eps)
    if tol < 0:
        raise InputError("tolerance must be nonnegative")
    result = min_set_distance(p_set, q_set)
    if result.value > tol:
        return Separation(stakes=result.stakes, gap=result.value)
    return Proximity(
        p_weights=result.p_weights,
        q_weights=result.q_weights,
        distance=result.value,
    )


def check_bounded_separation(
    p_set: CredalSet, q_set: CredalSet, eps: object
) -> SeparationCheck:
    """Can mixtures from the two sets come within *eps* in L1?

    When not, the returned unit-norm witness f guarantees
    ``min_P E_f[P] > max_Q E_f[Q] + eps``; equivalently, -f shows that
    ``max_P E[P] >= min_Q E[Q] - eps`` fails.  Both forms are re-checked
    by substitution before returning.
    """
    tol = parse_rational(eps)
    if tol < 0:
        raise InputError("tolerance must be nonnegative")
    result = min_set_distance(p_set, q_set)
    if result.value <= tol:
        return SeparationCheck(holds=True)
    witness = result.stakes
    gap = member_gap(witness, p_set, q_set)
    if not gap > tol:
        raise InternalCheckError("witness fails the direct form")
    neg = StakesVector(
        space=witness.space, values=tuple(-v for v in witness.values)
    )
    neg_hi = max(expectation(neg, p) for p in p_set.members)
    neg_lo = min(expectation(neg, q) for q in q_set.members)
    if not neg_hi < neg_lo - tol:
        raise InternalCheckError("witness fails the mirrored form")
    return SeparationCheck(holds=False, witness=witness, gap=gap)


def contamination_feasible(
    p: ProbVector,
    q_set: CredalSet,
    r_set: Union[CredalSet, FullSimplex],
    eps: object,
) -> Union[ContaminationDecomposition, ContaminationRefusal]:
    """Decide whether ``p = (1 - eps) Q + eps R`` has an exact solution
    with Q in the hull of *q_set* and R in the hull of *r_set* (or R any
    probability vector when *r_set* is ``FULL_SIMPLEX``)."""
    tol = parse_rational(eps)
    if not (0 <= tol <= 1):
        raise InputError("contamination level must lie in [0, 1]")
    if p.space != q_set.space:
        raise InputError("target and opinion family on different spaces")
    full = isinstance(r_set, FullSimplex)
    if not full:
        if p.space != r_set.space:
            raise InputError("target and residual family on different spaces")
    space = p.space
    n = space.size
    nq = q_set.size
    n_res = n if full else r_set.size
    nvars = nq + n_res

    rows = []
    one_minus = _ONE - tol
    for x in range(n):
        coeffs = [_ZERO] * nvars
        for j, q in enumerate(q_set.members):
            coeffs[j] = one_minus * q.weights[x]
        if full:
            coeffs[nq + x] = _ONE  # residual mass placed directly
        else:
            for m, r in enumerate(r_set.members):
                coeffs[nq + m] = tol * r.weights[x]
        rows.append((tuple(coeffs), EQUAL, p.weights[x]))
    coeffs = [_ONE] * nq + [_ZERO] * n_res
    rows.append((tuple(coeffs), EQUAL, _ONE))
    coeffs = [_ZERO] * nq + [_ONE] * n_res
    rows.append((tuple(coeffs), EQUAL, tol if full else _ONE))

    lp = LinearProgram(
        objective=(_ZERO,) * nvars,
        sense="min",
        constraints=tuple(rows),
        lower=(_ZERO,) * nvars,
    )
    sol = solve_lp(lp)

    if sol.status == OPTIMAL:
        q_weights = sol.primal[:nq]
        if tol == 0:
            residual = None
        elif full:
            residual = ProbVector(
                space=space,
                weights=tuple(v / tol for v in sol.primal[nq:]),
            )
        else:
            residual = mixture(sol.primal[nq:], r_set)
        _verify_decomposition(p, q_set, q_weights, residual, tol)
        return ContaminationDecomposition(
            epsilon=tol, q_weights=q_weights, residual=residual
        )

    if sol.status != INFEASIBLE:  # pragma: no cover
        raise InternalCheckError(f"feasibility program came back {sol.status}")

    # Farkas multipliers on the point rows separate p from the mixture
    # side; shifting by the minimum and rescaling to sup norm one keeps
    # the strict inequality and lands in the nonnegative unit ball.
    f0 = [sol.farkas[x] for x in range(n)]
    shift = min(f0)
    shifted = [v - shift for v in f0]
    top = max(shifted)
    if top == 0:  # pragma: no cover - impossible for a valid certificate
        raise InternalCheckError("degenerate refusal stakes")
    values = tuple(v / top for v in shifted)
    stakes = StakesVector(space=space, values=values)
    lhs = expectation(stakes, p)
    best_q = max(expectation(stakes, q) for q in q_set.members)
    if full:
        best_r = max(values)
    else:
        best_r = max(expectation(stakes, r) for r in r_set.members)
    rhs = one_minus * best_q + tol * best_r
    if not lhs > rhs:
        raise InternalCheckError("refusal stakes fail to separate")
    return ContaminationRefusal(stakes=stakes, lhs=lhs, rhs=rhs)


def _verify_decomposition(
    p: ProbVector,
    q_set: CredalSet,
    q_weights: tuple[Fraction, ...],
    residual: Optional[ProbVector],
    tol: Fraction,
) -> None:
    q_mix = mixture(q_weights, q_set)
    for x in range(p.space.size):
        lhs = (1 - tol) * q_mix.weights[x]
        if residual is not None:
            lhs += tol * residual.weights[x]
        if lhs != p.weights[x]:
            raise InternalCheckError("decomposition fails coordinatewise")
    if residual is None and tol != 0:
        raise InternalCheckError("missing residual at positive level")
