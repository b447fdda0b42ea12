"""Inclusion-exclusion test for rationalizable stochastic choice.

For a full-domain stochastic choice function, define for each pair
``(y, Y)`` the alternating sum over supersets

    K(y, Y) = sum over Z containing Y of (-1)^{|Z minus Y|} P0(y, Z).

Falmagne's theorem says the choice function is a mixture of ordering
maximizers exactly when every ``K(y, Y)`` is nonnegative; the values
are then the mixture's marginals "y is best in Y, beaten by the rest".
Summing the negative parts gives a cheap lower-bound diagnostic for how
non-rationalizable a choice function is.  The sums and their negative
mass are polynomial in the number of menus and take no alternative cap.
``hoffman_ratio`` is not: on a non-rationalizable table it solves the
additive program ``rum_min_eps`` over all n! orderings, so it refuses
tables beyond the RUM alternative cap and grows factorially below it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .rum import RumInstance, rum_min_eps

__all__ = [
    "bm_polynomials",
    "bm_negative_norm",
    "hoffman_ratio",
]

_ZERO = Fraction(0)


def bm_polynomials(
    inst: RumInstance,
) -> dict[tuple[str, tuple[str, ...]], Fraction]:
    """Alternating superset sums, keyed like the choice table."""
    alts = inst.alternatives
    n = len(alts)
    full = (1 << n) - 1
    # choice probabilities indexed by (alternative index, menu mask)
    prob: dict[tuple[int, int], Fraction] = {}
    index = {a: i for i, a in enumerate(alts)}
    for (y, menu), p in inst.choice.items():
        mask = 0
        for a in menu:
            mask |= 1 << index[a]
        prob[(index[y], mask)] = p
    out: dict[tuple[str, tuple[str, ...]], Fraction] = {}
    for y, menu in inst.pairs():
        mask = 0
        for a in menu:
            mask |= 1 << index[a]
        rest = full & ~mask
        total = _ZERO
        # iterate the subsets of the complement, including the empty one
        sub = rest
        while True:
            sign = -1 if bin(sub).count("1") % 2 else 1
            total += sign * prob[(index[y], mask | sub)]
            if sub == 0:
                break
            sub = (sub - 1) & rest
        out[(y, menu)] = total
    return out


def bm_negative_norm(inst: RumInstance) -> Fraction:
    """Total negative mass of the alternating sums; zero exactly when
    the choice function is rationalizable."""
    return _negative_mass(bm_polynomials(inst))


def hoffman_ratio(inst: RumInstance) -> Optional[Fraction]:
    """Ratio of the exact additive distance to the negative-mass lower
    diagnostic, or None for a rationalizable instance.  Purely a
    condition-number style report; both quantities are exact."""
    return _ratio(inst, bm_negative_norm(inst))


def _negative_mass(sums: dict[object, Fraction]) -> Fraction:
    """Negative mass of already computed alternating sums."""
    return sum((-k for k in sums.values() if k < 0), _ZERO)


def _ratio(inst: RumInstance, norm: Fraction) -> Optional[Fraction]:
    """``hoffman_ratio`` from an already computed negative mass."""
    if norm == 0:
        return None
    return rum_min_eps(inst).epsilon_min / norm
