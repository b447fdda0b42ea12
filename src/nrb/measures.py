"""Probability vectors on a finite point space and two distances.

The workhorse metric is the total variation norm in its L1 form,
``d1(P, Q) = sum_x |P(x) - Q(x)|``, which ranges over [0, 2].  When the
point space carries a metric, the Kantorovich-Rubinstein distance is also
available: the best expected-payoff gap achievable with stakes that are
1-Lipschitz and bounded by 1 in absolute value.  It never exceeds d1.

Stakes vectors are bounded payoff functions f on the points; their norm
is the sup norm and their oscillation is max f - min f.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import InputError, InternalCheckError
from .rational import _quote, format_rational, parse_rational
from .simplex import (
    GREATER_EQUAL,
    LESS_EQUAL,
    OPTIMAL,
    LinearProgram,
    _int_row,
    solve_lp,
)

__all__ = [
    "PointSpace",
    "ProbVector",
    "SignedVector",
    "StakesVector",
    "CredalSet",
    "l1_distance",
    "kr_distance",
    "mixture",
    "hahn_split",
    "oscillation",
    "expectation",
    "point_space_to_json",
    "point_space_from_json",
    "vector_to_json",
    "prob_vector_from_json",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class PointSpace:
    """Finite set of outcome labels, optionally with an exact metric.

    The metric, when present, is a full matrix checked for symmetry,
    zero diagonal, strict positivity off the diagonal, and the triangle
    inequality.
    """

    labels: tuple[str, ...]
    metric: Optional[tuple[tuple[Fraction, ...], ...]] = None

    def __post_init__(self) -> None:
        labels = tuple(str(x) for x in self.labels)
        if not labels:
            raise InputError("a point space needs at least one point")
        if len(set(labels)) != len(labels):
            raise InputError("point labels must be distinct")
        object.__setattr__(self, "labels", labels)
        if self.metric is None:
            return
        n = len(labels)
        rows = tuple(tuple(parse_rational(v) for v in row) for row in self.metric)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise InputError("metric must be a square matrix over the points")
        for i in range(n):
            if rows[i][i] != 0:
                raise InputError("metric diagonal must be zero")
            for j in range(n):
                if rows[i][j] != rows[j][i]:
                    raise InputError("metric must be symmetric")
                if i != j and rows[i][j] <= 0:
                    raise InputError("metric must be positive off the diagonal")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if rows[i][j] > rows[i][k] + rows[k][j]:
                        raise InputError("metric violates the triangle inequality")
        object.__setattr__(self, "metric", rows)

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError as exc:
            raise InputError(f"unknown point {label!r}") from exc

    def distance(self, a: str, b: str) -> Fraction:
        if self.metric is None:
            raise InputError("point space has no metric")
        return self.metric[self.index(a)][self.index(b)]


def _weights_tuple(space: PointSpace, values: Iterable[object]) -> tuple[Fraction, ...]:
    """*values* as a tuple of ``Fraction``, parsing only when some value
    is not one already."""
    w = tuple(values)
    if not {*map(type, w)} <= {Fraction}:
        w = tuple(map(parse_rational, w))
    if len(w) != space.size:
        raise InputError(
            f"expected {space.size} weights, got {len(w)}"
        )
    return w


@dataclass(frozen=True)
class ProbVector:
    """A probability vector: nonnegative weights summing to one.

    It also keeps its weights as integers ``_ints`` over one common
    denominator ``_den``, outside the dataclass fields (so ``==``,
    ``hash`` and ``repr`` read ``weights`` alone).  Both checks run on
    those integers, and ``expectation`` reads them."""

    space: PointSpace
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        w = _weights_tuple(self.space, self.weights)
        ints, den = _int_row(w)
        if min(ints) < 0:
            raise InputError("probabilities must be nonnegative")
        if sum(ints) != den:
            raise InputError(
                "probabilities must sum to 1, got "
                f"{_quote(Fraction(sum(ints), den))}"
            )
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_ints", ints)
        object.__setattr__(self, "_den", den)

    def weight(self, label: str) -> Fraction:
        return self.weights[self.space.index(label)]

    def event_probability(self, labels: Iterable[str]) -> Fraction:
        return sum((self.weight(x) for x in labels), _ZERO)


@dataclass(frozen=True)
class SignedVector:
    """A signed measure on the points; no sign or total constraint."""

    space: PointSpace
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "weights", _weights_tuple(self.space, self.weights)
        )

    def total(self) -> Fraction:
        return sum(self.weights, _ZERO)

    def l1_norm(self) -> Fraction:
        return sum((abs(v) for v in self.weights), _ZERO)


@dataclass(frozen=True)
class StakesVector:
    """A payoff function on the points.  ``norm`` is the sup norm and is
    recomputed from the values, never trusted from input.  Like
    ``ProbVector`` it keeps its values as integers ``_ints`` over one
    denominator ``_den``, outside the fields."""

    space: PointSpace
    values: tuple[Fraction, ...]
    norm: Fraction = _ZERO

    def __post_init__(self) -> None:
        vals = _weights_tuple(self.space, self.values)
        ints, den = _int_row(vals)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "norm", Fraction(max(map(abs, ints)), den))
        object.__setattr__(self, "_ints", ints)
        object.__setattr__(self, "_den", den)

    def value(self, label: str) -> Fraction:
        return self.values[self.space.index(label)]


@dataclass(frozen=True)
class CredalSet:
    """A nonempty finite family of probability vectors on one space,
    standing for the closed convex hull of its members."""

    members: tuple[ProbVector, ...]

    def __post_init__(self) -> None:
        members = tuple(self.members)
        if not members:
            raise InputError("a credal set needs at least one member")
        space = members[0].space
        if any(p.space != space for p in members[1:]):
            raise InputError("credal set members must share one point space")
        object.__setattr__(self, "members", members)

    @property
    def space(self) -> PointSpace:
        return self.members[0].space

    @property
    def size(self) -> int:
        return len(self.members)


def _same_space(p: ProbVector, q: ProbVector) -> None:
    if p.space != q.space:
        raise InputError("vectors live on different point spaces")


def l1_distance(p: ProbVector, q: ProbVector) -> Fraction:
    """Total variation distance in L1 form; between 0 and 2."""
    _same_space(p, q)
    return sum(
        (abs(a - b) for a, b in zip(p.weights, q.weights)), _ZERO
    )


def kr_distance(p: ProbVector, q: ProbVector) -> tuple[Fraction, StakesVector]:
    """Kantorovich-Rubinstein distance and an optimal stakes function.

    Maximizes ``sum_x f(x) (p - q)(x)`` over f that are 1-Lipschitz for
    the space metric and bounded by 1 in absolute value.  Requires the
    space to carry a metric.  The stakes are re-verified by
    substitution: bounded, 1-Lipschitz, and attaining the value.
    """
    _same_space(p, q)
    space = p.space
    if space.metric is None:
        raise InputError("Kantorovich-Rubinstein distance needs a metric")
    n = space.size
    diff = [p.weights[i] - q.weights[i] for i in range(n)]
    rows = [
        ({i: 1, j: -1}, LESS_EQUAL, space.metric[i][j])
        for i in range(n)
        for j in range(n)
        if i != j
    ]
    lp = LinearProgram(
        objective=tuple(diff),
        sense="max",
        constraints=rows,
        lower=(Fraction(-1),) * n,
        upper=(_ONE,) * n,
    )
    sol = solve_lp(lp)
    if sol.status != OPTIMAL:
        raise InternalCheckError(f"metric program came back {sol.status}")
    f = sol.primal
    if any(abs(v) > 1 for v in f):
        raise InternalCheckError("metric stakes exceed unit sup norm")
    if any(
        f[i] - f[j] > space.metric[i][j] for i in range(n) for j in range(n)
    ):
        raise InternalCheckError("metric stakes are not 1-Lipschitz")
    if sum((a * b for a, b in zip(f, diff)), _ZERO) != sol.objective_value:
        raise InternalCheckError("metric stakes do not attain the value")
    return sol.objective_value, StakesVector(space=space, values=f)


def mixture(weights: Sequence[object], credal: CredalSet) -> ProbVector:
    """Convex combination of the credal set's members."""
    w = tuple(parse_rational(v) for v in weights)
    if len(w) != credal.size:
        raise InputError(
            f"expected {credal.size} mixture weights, got {len(w)}"
        )
    if any(v < 0 for v in w):
        raise InputError("mixture weights must be nonnegative")
    if sum(w) != 1:
        raise InputError("mixture weights must sum to 1")
    n = credal.space.size
    out = [_ZERO] * n
    for wi, member in zip(w, credal.members):
        if wi:
            for i in range(n):
                out[i] += wi * member.weights[i]
    return ProbVector(space=credal.space, weights=tuple(out))


def hahn_split(e: SignedVector) -> tuple[SignedVector, SignedVector]:
    """Coordinatewise split ``e = pos - neg`` with disjoint supports.
    Zero coordinates land in the positive part's support complement on
    both sides: both parts are zero there."""
    pos = tuple(v if v > 0 else _ZERO for v in e.weights)
    neg = tuple(-v if v < 0 else _ZERO for v in e.weights)
    return (
        SignedVector(space=e.space, weights=pos),
        SignedVector(space=e.space, weights=neg),
    )


def oscillation(f: StakesVector) -> Fraction:
    """Spread of the stakes: ``max f - min f``."""
    return max(f.values) - min(f.values)


def expectation(f: StakesVector, p: ProbVector) -> Fraction:
    """Expected payoff ``sum_x f(x) p(x)``, one integer dot product of
    the two integer forms."""
    if f.space != p.space:
        raise InputError("stakes and probabilities on different spaces")
    return Fraction(sum(map(mul, f._ints, p._ints)), f._den * p._den)


def point_space_to_json(space: PointSpace) -> dict:
    metric = None
    if space.metric is not None:
        metric = [[format_rational(v) for v in row] for row in space.metric]
    return {"labels": list(space.labels), "metric": metric}


def point_space_from_json(obj: object) -> PointSpace:
    if not isinstance(obj, dict) or "labels" not in obj:
        raise InputError("point space must be an object with a labels array")
    labels = obj["labels"]
    if not isinstance(labels, list):
        raise InputError("labels must be an array")
    metric = obj.get("metric")
    if metric is not None:
        if not isinstance(metric, list) or not all(
            isinstance(r, list) for r in metric
        ):
            raise InputError("metric must be an array of arrays or null")
        metric = tuple(tuple(parse_rational(v) for v in row) for row in metric)
    return PointSpace(labels=tuple(labels), metric=metric)


def vector_to_json(values: Sequence[Fraction]) -> list[str]:
    return [format_rational(v) for v in values]


def prob_vector_from_json(space: PointSpace, arr: object) -> ProbVector:
    if not isinstance(arr, list):
        raise InputError("probability vector must be an array")
    return ProbVector(space=space, weights=tuple(map(parse_rational, arr)))
