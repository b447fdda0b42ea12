"""Inclusion-exclusion test for rationalizable stochastic choice.

For a full-domain stochastic choice function, define for each pair
``(y, Y)`` the alternating sum over supersets

    K(y, Y) = sum over Z containing Y of (-1)^{|Z minus Y|} P0(y, Z).

Falmagne's theorem says the choice function is a mixture of ordering
maximizers exactly when every ``K(y, Y)`` is nonnegative; the values
are then the mixture's marginals "y is best in Y, beaten by the rest".
Summing the negative parts gives a cheap diagnostic for how
non-rationalizable a choice function is.  It is not itself a lower
bound on the additive distance ``rum_min_eps``, which often lies below
it.  What holds is that each pair ``(y, Z)`` enters at most 2^(n-1)
sums, with coefficient +1 or -1, so moving the table by an L1 distance
d moves the negative mass by at most 2^(n-1) d: the distance is at
least the negative mass divided by 2^(n-1).  The n 2^(n-1) sums come from
one superset Moebius transform over the table itself, one integer per
pair: each alternative's 2^(n-1) menus form a subcube, and one subset
transform of the layout's ``cube`` order reversed takes all n at once,
(n-1) n 2^(n-2) integer subtractions in all, O(n^2 2^n); they and their
negative mass take no alternative cap.  K(y, R) sits at the place of the
menu lattice's edge from R to R - y.
``hoffman_ratio`` is not: on a non-rationalizable table it solves the
additive program ``rum_min_eps`` over all n! orderings, so it refuses
tables beyond the RUM alternative cap and grows factorially below it.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Optional

from .rum import RumInstance, _subset_sums, rum_min_eps

__all__ = [
    "bm_polynomials",
    "bm_negative_norm",
    "hoffman_ratio",
]

_ZERO = Fraction(0)


def bm_polynomials(
    inst: RumInstance,
) -> dict[tuple[str, tuple[str, ...]], Fraction]:
    """Alternating superset sums, keyed like the choice table in
    ``pairs()`` order: ``_bm_sums`` over the instance's common
    denominator.  The zero sums, most of them on a mixture, share one
    ``Fraction``."""
    den = inst._den
    return {
        pair: Fraction(v, den) if v else _ZERO
        for pair, v in zip(inst._layout.pairs, _bm_sums(inst))
    }


def bm_negative_norm(inst: RumInstance) -> Fraction:
    """Total negative mass of the alternating sums; zero exactly when
    the choice function is rationalizable."""
    return _negative_mass(inst, _bm_sums(inst))


def hoffman_ratio(inst: RumInstance) -> Optional[Fraction]:
    """Ratio of the exact additive distance to the negative mass, or
    None for a rationalizable instance.  Purely a condition-number style
    report; both quantities are exact.  The ratio can fall below 1, but
    never below 2^(1-n) for n alternatives."""
    return _ratio(inst, bm_negative_norm(inst))


def _bm_sums(inst: RumInstance) -> list[int]:
    """The alternating superset sums as numerators over ``inst._den``, in
    ``pairs()`` order.  The instance's integer table is gathered into the
    layout's ``cube`` order reversed, where each alternative's menus are
    indexed by their complements, goes through one subset Moebius
    transform, and is reversed back."""
    layout = inst._layout
    k = list(map(inst._nums.__getitem__, reversed(layout.cube)))
    _subset_sums(k, 1 << inst.n_alternatives >> 1, operator.sub)
    k.reverse()
    return list(map(k.__getitem__, layout.cube_index))


def _negative_mass(inst: RumInstance, sums: list[int]) -> Fraction:
    """Negative mass of the instance's ``_bm_sums``."""
    return Fraction(-sum(v for v in sums if v < 0), inst._den)


def _ratio(inst: RumInstance, norm: Fraction) -> Optional[Fraction]:
    """``hoffman_ratio`` from an already computed negative mass."""
    if norm == 0:
        return None
    return rum_min_eps(inst).epsilon_min / norm
