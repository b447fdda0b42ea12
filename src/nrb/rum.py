"""Approximate random utility maximization over full menu domains.

A stochastic choice function assigns each nonempty menu of alternatives
a probability vector over its members.  It is rationalizable when it
equals a mixture over strict orderings, each ordering choosing its best
available alternative.  The functions here measure how far a choice
function is from rationalizable in two exact senses:

* additive: the least ``eps`` admitting ``P0 = A pi + e`` with mixture
  ``pi`` and ``sum_i |e_i| <= eps``, where A is the 0/1 matrix of best
  choices (rows are (alternative, menu) pairs, columns orderings), which
  is the L1 fit ``duality._l1_fit`` of P0 to the columns of A;
* residual: the least ``eps`` admitting ``P0 = (1 - eps) A pi + eps R``
  with R an arbitrary per-menu probability kernel, so the deviation is
  itself choice-like rather than merely small.

Each distance pairs with a finite test on integer-tagged trials: a tag
vector t counts how often each (alternative, menu) pair is put on trial,
and rationality-up-to-eps bounds the planner's total success against the
best single ordering plus a slack proportional to the tag spread (or,
for the residual variant, to the largest tag).  Each check is decided
on the program that computes its distance, and when it fails the tag
vector comes from that program's optimal duals: the additive stakes,
or the pair-row duals of the residual program, which separate at every
level below the residual optimum.  The returned tag vector violates the
inequality strictly, and is verified by substitution before being
returned.

The menu domain over an alternatives tuple (each alternative's bit, the
menus with their bitmasks, the pairs in ``pairs()`` order and each pair's
mask and position, one subcube order of the pairs and the menu lattice's
edges) is built once per tuple and shared, read only, by every table over
it (``_layout``, a small cache keyed by the tuple, never by table
content).  ``RumInstance`` validates a table in one pass.  A table keyed
by the layout's pairs in ``pairs()`` order is read by position: a
``_Table`` view over the layout in that order (as the CLI hands over a
document keyed canonically and in order) with no key read at all, a dict
after one tuple comparison.  Any other table is read key by key: a
canonical key is one lookup in the layout, and a respelled menu is
checked and canonicalised once per call.  Either way each distinct
probability string is parsed once.  The checked table is kept once, by
position: ``_probs[i]`` is the probability of ``pairs()[i]``, and
``choice`` is a read-only ``_Table`` view over the layout's pairs and
that tuple, which iterates in the caller's key order and compares,
prints and pickles as the dict it replaced (so ``==``, ``hash`` and
``repr`` are as before).  Outside the dataclass fields the instance also
keeps one integer per pair over one common denominator ``_den``:
``_nums[i]`` is the numerator of ``pairs()[i]``, and ``_masks``, the
layout's, maps each pair to its menu's bitmask (bit i for
``alternatives[i]``).  A menu's pairs are contiguous, so its sum is the
sum of its span.  The Block-Marschak sums, the tag scores' best-ordering
DP and ``instance_from_mixture`` gather the pairs into the layout's
alternative-major subcube order, where one subset transform over a flat
list serves every alternative at once; the DP and the mixture find their
places along the lattice's edges.

``build_matrix`` returns the pairs and the orderings, both the layout's;
the matrix's n!-wide rows are built on first read.  Scoring a tag vector
(``evaluate_arsp``, ``evaluate_arsp_star``) reads no rows: a subset DP
finds the best single ordering in O(n^2 2^n) steps.  The approximation
programs read the rows, so the alternative count is capped: 7 by
default, or the value of the ``NRB_MAX_ALTERNATIVES`` environment
variable, the one setting of the cap.  The cap is decided in
``enumerate_orderings`` on every call.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Optional

from .duality import _l1_fit, _unit_shift
from .errors import CapExceededError, InputError, InternalCheckError
from .rational import _quote, parse_rational
from .simplex import EQUAL, OPTIMAL, LinearProgram, _int_row, solve_lp

__all__ = [
    "ENV_MAX_ALTERNATIVES",
    "DEFAULT_ALTERNATIVES_CAP",
    "max_alternatives",
    "RumInstance",
    "ChoiceMatrix",
    "RumReport",
    "TaggedTrialSequence",
    "enumerate_menus",
    "enumerate_orderings",
    "build_matrix",
    "instance_from_mixture",
    "rum_min_eps",
    "check_eps_arsp",
    "rum_residual_min_eps",
    "check_eps_arsp_star",
    "evaluate_arsp",
    "evaluate_arsp_star",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)

ENV_MAX_ALTERNATIVES = "NRB_MAX_ALTERNATIVES"
DEFAULT_ALTERNATIVES_CAP = 7


def max_alternatives() -> int:
    """Current alternative-count cap (environment override or default)."""
    raw = os.environ.get(ENV_MAX_ALTERNATIVES)
    if raw is None:
        return DEFAULT_ALTERNATIVES_CAP
    try:
        value = int(raw)
    except ValueError as exc:
        raise InputError(
            f"{ENV_MAX_ALTERNATIVES} must be an integer, got {raw!r}"
        ) from exc
    if value < 1:
        raise InputError(f"{ENV_MAX_ALTERNATIVES} must be positive")
    return value


def enumerate_menus(alternatives: Sequence[str]) -> tuple[tuple[str, ...], ...]:
    """All nonempty menus, smallest first, lexicographic within a size
    (positions in the alternative list give the letter order)."""
    return tuple(itertools.chain.from_iterable(
        itertools.combinations(alternatives, size)
        for size in range(1, len(alternatives) + 1)
    ))


def enumerate_orderings(
    alternatives: Sequence[str]
) -> tuple[tuple[str, ...], ...]:
    """All strict orderings (best alternative first), lexicographic by
    position in the alternative list.  Refuses above ``max_alternatives()``
    on every call; below it, orderings of strings come from the shared
    layout, so they are enumerated once per tuple."""
    alts = tuple(alternatives)
    limit = max_alternatives()
    if len(alts) > limit:
        raise CapExceededError(
            f"{len(alts)} alternatives exceed the enumeration cap of {limit}"
        )
    if all(type(a) is str for a in alts):  # 1 == 1.0 would share a layout
        return _layout(alts).orderings
    return tuple(itertools.permutations(alts))


_Pair = tuple[str, tuple[str, ...]]


@dataclass(frozen=True, eq=False)
class _Layout:
    """The full menu domain over one alternatives tuple, shared by every
    table over it (``_layout``) and read only: frozen, its maps
    ``MappingProxyType`` views and its sequences tuples.

    ``bit[a]`` is a's bit in a menu bitmask, by list position.  ``pairs``
    lists the (alternative, menu) pairs in ``pairs()`` order, ``masks``
    maps each to its menu's bitmask in that order and ``index`` to its
    position.  ``menus`` lists each menu with its mask and the range of
    positions of its pairs, in ``enumerate_menus`` order, and
    ``by_mask[mask]`` is that menu.

    The pairs also run in an alternative-major subcube order: block i
    holds the 2^(n-1) menus that contain ``alternatives[i]``, each at
    its mask with bit i squeezed out (the bits above i shift down one).
    ``cube[k]`` is the position in ``pairs`` of the pair at place k of
    that order and ``cube_index[p]`` the place of pair p.  A subset
    transform over the blocks sums each pair over its submenus, and over
    the list reversed (each block's index complemented) over its
    supermenus.  ``edges[R]`` holds ``(place of pair (a, R), R - a)`` for
    each member a of mask R in list order: every path of edges from the
    full mask to 0 is one ordering, in ``enumerate_orderings`` order.
    The n! ``orderings``, the ``"y|menu"`` ``keys`` of the pairs and the
    ``pair_of`` map back from those keys are built on first read."""

    alternatives: tuple[str, ...]
    bit: Mapping[str, int]
    pairs: tuple[_Pair, ...]
    masks: Mapping[_Pair, int]
    index: Mapping[_Pair, int]
    menus: tuple[tuple[tuple[str, ...], int, range], ...]
    by_mask: tuple[tuple[str, ...], ...]
    cube: tuple[int, ...]
    cube_index: tuple[int, ...]
    edges: tuple[tuple[tuple[int, int], ...], ...]

    @functools.cached_property
    def orderings(self) -> tuple[tuple[str, ...], ...]:
        return tuple(itertools.permutations(self.alternatives))

    @functools.cached_property
    def keys(self) -> tuple[str, ...]:
        """Each pair as the document key ``"y|a,b"``, in ``pairs`` order."""
        keys = []
        for menu, _, _ in self.menus:
            joined = "|" + ",".join(menu)
            keys += [y + joined for y in menu]
        return tuple(keys)

    @functools.cached_property
    def pair_of(self) -> Mapping[str, _Pair]:
        """The pair of each of ``keys``, for a parser to read without
        splitting: empty when an alternative is empty or holds ``|`` or
        ``,``, since such a key would not split back into its pair."""
        if any(not a or "|" in a or "," in a for a in self.alternatives):
            return MappingProxyType({})
        return MappingProxyType(dict(zip(self.keys, self.pairs)))


@functools.lru_cache(maxsize=8)
def _layout(alternatives: tuple[str, ...]) -> _Layout:
    """The layout of the alternatives tuple, built once while it stays
    among the last 8 tuples used: keyed by the tuple alone, so a batch or
    a loop over tables on the same alternatives builds it once."""
    n = len(alternatives)
    pairs: list[_Pair] = []
    masks: dict[_Pair, int] = {}
    menus = []
    by_mask: list[tuple[str, ...]] = [()] * (1 << n)
    half = 1 << n >> 1  # the 2^(n-1) menus holding each alternative
    cube = [0] * (n * half)
    cube_index = []
    edges: list[tuple[tuple[int, int], ...]] = [()] * (1 << n)
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            menu = tuple(alternatives[i] for i in combo)
            mask = sum(1 << i for i in combo)
            by_mask[mask] = menu
            start = len(pairs)
            out = []
            for i in combo:
                # the mask with bit i squeezed out, the bits above it
                # shifted down, in block i
                k = i * half + mask - (1 << i) - (mask >> i + 1 << i)
                cube[k] = len(pairs)
                cube_index.append(k)
                out.append((k, mask ^ 1 << i))
                pair = (alternatives[i], menu)
                masks[pair] = mask
                pairs.append(pair)
            edges[mask] = tuple(out)
            menus.append((menu, mask, range(start, len(pairs))))
    return _Layout(
        alternatives=alternatives,
        bit=MappingProxyType({a: 1 << i for i, a in enumerate(alternatives)}),
        pairs=tuple(pairs),
        masks=MappingProxyType(masks),
        index=MappingProxyType({p: i for i, p in enumerate(pairs)}),
        menus=tuple(menus),
        by_mask=tuple(by_mask),
        cube=tuple(cube),
        cube_index=tuple(cube_index),
        edges=tuple(edges),
    )


class _Table(Mapping):
    """A read-only view of a table over a layout's pairs: ``values[i]`` is
    the value of ``pairs[i]``, and the keys run in ``pairs()`` order or,
    given *order*, at those positions in turn.  It compares, prints and
    pickles as the dict of its items, and like a dict it is unhashable."""

    __slots__ = ("_layout", "_values", "_order")

    def __init__(
        self,
        layout: _Layout,
        values: tuple,
        order: Optional[tuple[int, ...]] = None,
    ) -> None:
        self._layout, self._values, self._order = layout, values, order

    def __getitem__(self, key):
        return self._values[self._layout.index[key]]

    def __iter__(self):
        pairs = self._layout.pairs
        if self._order is None:
            return iter(pairs)
        return map(pairs.__getitem__, self._order)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other):
        if type(other) is _Table and other._layout is self._layout:
            return self._values == other._values
        return super().__eq__(other)

    def __repr__(self) -> str:
        return repr(dict(self))

    def __reduce__(self):
        return dict, (dict(self),)


@dataclass(frozen=True)
class RumInstance:
    """A stochastic choice function on the full menu domain.

    ``choice`` maps ``(alternative, menu)`` to the probability of that
    alternative being chosen from that menu.  Menus are tuples in the
    order of ``alternatives``; the constructor canonicalizes and demands
    a complete table: every pair present, nothing extra, menu rows
    summing to one.  When the keys, in order, are the pairs of the shared
    menu layout of the alternatives (``pairs()``), it reads the values by
    position, since such keys can fail no check: a ``_Table`` over that
    layout in that order with no key read, a dict after one tuple
    comparison.  Otherwise it makes one pass over the keys, looking each
    up in the layout.  It then sums each menu's span of integers.  Either
    way the first check a table fails names the problem, with the same
    message.
    A short table over more alternatives than ``max_alternatives()`` is
    refused first (``CapExceededError``), before its layout is built.
    It keeps the checked values once, as ``_probs`` in ``pairs()`` order,
    with ``choice`` a read-only view over them in the caller's key order,
    and as integers (see the module docstring).  It pickles by its
    fields, ``choice`` as a dict, rebuilt through the constructor."""

    alternatives: tuple[str, ...]
    choice: Mapping[tuple[str, tuple[str, ...]], Fraction]

    def __post_init__(self) -> None:
        alts = tuple(str(a) for a in self.alternatives)
        if not alts:
            raise InputError("need at least one alternative")
        if len(set(alts)) != len(alts):
            raise InputError("alternatives must be distinct")
        object.__setattr__(self, "alternatives", alts)
        entries = self.choice
        if type(entries) is not _Table:
            entries = dict(entries)
        domain = len(alts) << len(alts) >> 1
        if len(entries) < domain and len(alts) > max_alternatives():
            raise CapExceededError(
                f"{len(alts)} alternatives exceed the cap of "
                f"{max_alternatives()} for an incomplete table: "
                f"{len(entries)} of {domain} entries"
            )
        layout = _layout(alts)
        pairs = layout.pairs
        # each distinct probability once, by index; only strings are
        # memoised: others go to parse_rational, so a float still raises
        # InputError and an unhashable value is never a key
        values: list[Fraction] = []
        parsed: dict[str, int] = {}

        def read(key, value) -> int:
            k = parsed.get(value) if type(value) is str else None
            if k is None:
                prob = parse_rational(value)
                if prob.numerator < 0:
                    raise InputError(f"negative probability at {key!r}")
                k = len(values)
                values.append(prob)
                if type(value) is str:
                    parsed[value] = k
            return k

        order = None
        if (
            type(entries) is _Table
            and entries._layout is layout
            and entries._order is None
        ):
            raw = entries._values
        elif tuple(entries) == pairs:
            raw = entries.values()
        else:
            raw = None
        if raw is not None:
            # The keys are the layout's pairs in order, so each is distinct,
            # canonical and present: only the values and the sums can fail.
            flat = []
            for key, value in zip(pairs, raw):
                k = parsed.get(value) if type(value) is str else None
                flat.append(read(key, value) if k is None else k)
        else:
            flat, order = _read_keys(layout, entries, values, read)
        # The keys are now distinct canonical pairs.  Each takes its integer
        # over the common denominator (0 where absent), in pairs() order,
        # so every menu's sum is the sum of its span.  Only a table with a
        # missing pair or a bad sum walks the menus in order, so that the
        # first fault is named.
        ints, den = _int_row(values)
        ints.append(0)  # for the index -1
        nums = tuple(map(ints.__getitem__, flat))
        totals = [sum(nums[s.start:s.stop]) for _, _, s in layout.menus]
        complete = order is None or len(order) == len(pairs)
        if not complete or totals.count(den) != len(totals):
            missing = []
            for (menu, _, span), total in zip(layout.menus, totals):
                missing += [pairs[i] for i in span if flat[i] < 0]
                if not missing and total != den:
                    raise InputError(
                        f"choice probabilities on menu {menu!r} sum to "
                        f"{_quote(Fraction(total, den))}"
                    )
            raise InputError(f"missing choice entries: {missing}")
        if order is not None:  # the caller's key order, unless canonical
            order = None if order == sorted(order) else tuple(order)
        probs = tuple(map(values.__getitem__, flat))
        object.__setattr__(self, "choice", _Table(layout, probs, order))
        object.__setattr__(self, "_layout", layout)
        object.__setattr__(self, "_probs", probs)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_nums", nums)
        object.__setattr__(self, "_masks", layout.masks)

    def __reduce__(self):
        # rebuilt through the constructor: the shared layout is not pickled
        return type(self), (self.alternatives, dict(self.choice))

    @property
    def n_alternatives(self) -> int:
        return len(self.alternatives)

    def menus(self) -> tuple[tuple[str, ...], ...]:
        return enumerate_menus(self.alternatives)

    def pairs(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """Row order of every matrix and report: menus as enumerated,
        alternatives in list order within each menu."""
        return self._layout.pairs

    def probability(self, y: str, menu: tuple[str, ...]) -> Fraction:
        return self.choice[(y, menu)]


def _read_keys(
    layout: _Layout,
    entries: Mapping,
    values: list[Fraction],
    read: Callable[[object, object], int],
) -> tuple[list[int], list[int]]:
    """``flat``, each pair's index in *values* (-1 if absent), and the
    positions of the keys in key order, for a table not keyed by the
    layout's pairs in order.  Each key is looked up in the layout, or
    checked and canonicalised, in key order, and its value is found by
    *read*, its index in *values*."""
    bit, pairs, position = layout.bit, layout.pairs, layout.index.get
    # a menu spelled other than canonically -> its canonical menu, once
    # it has passed the unknown-alternative and repetition checks; kept
    # per call, never in the shared layout
    respelled: dict[tuple, tuple[str, ...]] = {}
    flat = [-1] * len(pairs)
    order = []
    for key, value in entries.items():
        i = position(key)  # the keys are hashable: they were dict keys
        if i is None:
            try:
                y, menu = key
            except (TypeError, ValueError) as exc:
                raise InputError(f"bad choice key {key!r}") from exc
            menu = tuple(menu)
            canon = respelled.get(menu)
            if canon is None:
                try:
                    mask = sum(map(bit.__getitem__, menu))
                except KeyError:
                    mask = None
                if mask is None or y not in bit:
                    raise InputError(f"unknown alternative in {key!r}")
                # a repeated bit carries, so the mask has fewer bits set
                if mask.bit_count() != len(menu):
                    raise InputError(
                        f"menu {menu!r} repeats an alternative"
                    )
                canon = respelled[menu] = layout.by_mask[mask]
            i = position((y, canon))
            if i is None:
                if y not in bit:
                    raise InputError(f"unknown alternative in {key!r}")
                raise InputError(f"{y!r} is not on the menu {menu!r}")
        k = read(key, value)
        if flat[i] >= 0:
            raise InputError(f"duplicate entry for {pairs[i]!r}")
        flat[i] = k
        order.append(i)
    return flat, order


@dataclass(frozen=True)
class ChoiceMatrix:
    """0/1 matrix of rational best choices: entry (pair, ordering) is 1
    exactly when the pair's alternative is the ordering's favorite on
    the pair's menu.

    ``orderings`` are those of ``enumerate_orderings`` over the
    alternatives in list order (``orderings[0]``), as ``build_matrix``
    returns them.  The n!-wide ``rows`` are built on first read and
    kept; scoring a tag vector reads only ``pairs``, so it never builds
    them."""

    pairs: tuple[tuple[str, tuple[str, ...]], ...]
    orderings: tuple[tuple[str, ...], ...]

    @functools.cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """One row per pair, flagging the orderings it wins, in time
        linear in the rows' entries.

        ``itertools.permutations`` lists the orderings of a remaining
        set R in blocks of ``(|R| - 1)!``, one per leading member in
        list order.  So the favorites of a menu over all orderings of R
        form one byte string: a leading member on the menu wins its
        whole block, and any other leading member passes the block to
        the orderings of R without it.  Each row then flags where its
        alternative wins."""
        alternatives = self.orderings[0]
        n = len(alternatives)
        memo: dict[tuple[int, int], bytes] = {}

        def winners(menu: int, rest: int) -> bytes:
            # menu is a subset of rest: leaders off the menu recurse
            # without themselves, so no menu member ever leaves rest
            out = memo.get((menu, rest))
            if out is None:
                block = math.factorial(rest.bit_count() - 1)
                parts = []
                for a in range(n):
                    if rest >> a & 1:
                        parts.append(
                            bytes((a,)) * block if menu >> a & 1
                            else winners(menu, rest ^ (1 << a))
                        )
                out = memo[(menu, rest)] = b"".join(parts)
            return out

        # two passes: every menu's winners first, rows only once the
        # memo is gone, so the large row tuples do not interleave with it
        masks, full = _layout(alternatives).masks, (1 << n) - 1
        wins: dict[tuple[str, ...], bytes] = {}
        for pair in self.pairs:
            if pair[1] not in wins:
                wins[pair[1]] = winners(masks[pair], full)
        memo.clear()
        flags = {
            a: bytes(i) + b"\x01" + bytes(255 - i)
            for i, a in enumerate(alternatives)
        }
        return tuple(
            tuple(wins[menu].translate(flags[y])) for y, menu in self.pairs
        )


@dataclass(frozen=True)
class TaggedTrialSequence:
    """Nonnegative integer tags over the (alternative, menu) pairs,
    with ``width`` the spread ``max - min``."""

    tags: tuple[int, ...]
    width: int = 0

    def __post_init__(self) -> None:
        tags = tuple(self.tags)
        if not tags:
            raise InputError("empty tag vector")
        if any(not isinstance(t, int) or t < 0 for t in tags):
            raise InputError("tags must be nonnegative integers")
        object.__setattr__(self, "tags", tags)
        object.__setattr__(self, "width", max(tags) - min(tags))


@dataclass(frozen=True)
class RumReport:
    """Optimal approximation at the reported level.

    ``kind`` is ``"additive"`` or ``"residual"``.  ``pi`` is the mixture,
    sparse: it maps each ordering of positive weight to its weight, in
    ``enumerate_orderings`` order, so reading it needs no enumeration.
    ``error`` and ``residual`` align with the pair enumeration.  ``pi`` is
    omitted in the residual report when the whole mass is residual
    (eps = 1); ``residual`` is omitted at eps 0.
    """

    kind: str
    epsilon_min: Fraction
    pi: Optional[dict[tuple[str, ...], Fraction]] = None
    error: Optional[tuple[Fraction, ...]] = None
    residual: Optional[tuple[Fraction, ...]] = None


def build_matrix(inst: RumInstance) -> ChoiceMatrix:
    """The pairs and the orderings of the choice matrix, refusing above
    the alternative cap before any work.  The rows, n! entries each,
    are built on first read of ``ChoiceMatrix.rows``: the programs read
    them, scoring a tag vector does not."""
    orderings = enumerate_orderings(inst.alternatives)
    return ChoiceMatrix(pairs=inst.pairs(), orderings=orderings)


def _subset_sums(flat: list[int], block: int, combine=operator.add) -> None:
    """Zeta transform in place of each run of *block* entries of *flat*,
    *block* a power of two that divides its length: each run, indexed by
    bitmask, ends up holding at each mask the sum over its subsets, or
    with ``operator.sub`` the alternating sum.  Per bit b, the masks with
    b combine with those without it in b strided slices, each spanning
    every run, or in runs of b once b is large."""
    size, b = len(flat), 1
    while b < block:
        step = 2 * b
        if b * step <= size:
            for o in range(b, step):
                flat[o::step] = map(combine, flat[o::step], flat[o - b::step])
        else:
            for r in range(b, size, step):
                flat[r:r + b] = map(combine, flat[r:r + b], flat[r - b:r])
        b = step


def instance_from_mixture(
    alternatives: Sequence[str], weights: Sequence[object]
) -> RumInstance:
    """The stochastic choice function of a mixture over orderings."""
    alts = tuple(str(a) for a in alternatives)  # as ``RumInstance`` keys them
    orderings = enumerate_orderings(alts)
    w = tuple(parse_rational(v) for v in weights)
    if len(w) != len(orderings):
        raise InputError(
            f"expected {len(orderings)} ordering weights, got {len(w)}"
        )
    if any(v < 0 for v in w) or sum(w) != 1:
        raise InputError("ordering weights must be a probability vector")
    # won: the weight, in integers over the common denominator d, of the
    # orderings that win the pair (y, R) on their remaining set R, at its
    # place; ordering j takes from R the edge at j's next digit in the
    # factorial number system.  y is the favorite on every menu inside R
    # that holds y, so the pair's mass is the sum over its supermenus.
    units, d = _int_row(w)
    layout = _layout(alts)
    radix = [math.factorial(k) for k in reversed(range(len(alts)))]
    won = [0] * len(layout.pairs)
    for j, u in enumerate(units):
        if u:
            r = len(layout.edges) - 1
            for f in radix:
                e, j = divmod(j, f)
                k, r = layout.edges[r][e]
                won[k] += u
    won.reverse()
    _subset_sums(won, 1 << len(alts) >> 1)
    won.reverse()
    masses = map(won.__getitem__, layout.cube_index)
    table = _Table(layout, tuple(Fraction(v, d) for v in masses))
    return RumInstance(alternatives=alts, choice=table)


def _min_eps_with_stakes(
    inst: RumInstance
) -> tuple[RumReport, ChoiceMatrix, tuple[Fraction, ...]]:
    """Solve the additive approximation program, the L1 fit of P0 to
    the matrix columns in one block, and also return the optimal dual
    stakes over the pairs (the betting side)."""
    matrix = build_matrix(inst)
    columns = list(zip(*matrix.rows))
    eps, weights, error, stakes = _l1_fit(
        inst._probs, columns,
        (range(len(columns)),),
    )
    pi = {o: w for o, w in zip(matrix.orderings, weights) if w}
    report = RumReport(kind="additive", epsilon_min=eps, pi=pi, error=error)
    return report, matrix, stakes


def rum_min_eps(inst: RumInstance) -> RumReport:
    """Least additive approximation level (L1 distance from the choice
    function to the rationalizable polytope, in pair coordinates)."""
    report, _, _ = _min_eps_with_stakes(inst)
    return report


def _best_ordering_total(layout: _Layout, t: Sequence[int]) -> int:
    """Largest total tag any single ordering collects, given the tags *t*
    in ``pairs()`` order, without a scan of the n! columns:
    ``V(R) = max_{a in R} [w(a, R) + V(R - a)]``, where ``w(a, R)`` sums
    the tags of the pairs ``(a, M)`` with ``M ⊆ R``.  An ordering of R led
    by a wins exactly the menus of R that contain a, and the menus without
    a are left to the orderings of ``R - a``.  ``w`` is one zeta
    (subset-sum) transform of the tags in the layout's ``cube`` order,
    read at the place of pair (a, R) along the lattice's ``edges``, so
    the whole step is O(n^2 2^n) exact additions."""
    flat = list(map(t.__getitem__, layout.cube))
    _subset_sums(flat, 1 << len(layout.alternatives) >> 1)
    value = [0] * len(layout.edges)
    for r in range(1, len(value)):
        value[r] = max([flat[k] + value[s] for k, s in layout.edges[r]])
    return value[-1]


def _tag_sides(
    inst: RumInstance,
    matrix: ChoiceMatrix,
    tags: Sequence[int],
    eps: object,
) -> tuple[Fraction, list[int], Fraction, int]:
    """Shared prelude of the two evaluators: the parsed slack, the tags,
    the observed success total ``sum p0_i t_i`` (one integer dot product
    with the instance's numerators) and the best-ordering total.  Tags
    on a matrix whose pairs are not the layout's are first summed onto
    the layout's positions."""
    tol = parse_rational(eps)
    t = list(tags)
    if len(t) != len(matrix.pairs):
        raise InputError("tag vector length mismatch")
    layout = inst._layout
    placed = t
    if matrix.pairs is not layout.pairs:
        placed = [0] * len(layout.pairs)
        for i, tag in zip(map(layout.index.__getitem__, matrix.pairs), t):
            placed[i] += tag
    lhs = Fraction(sum(map(operator.mul, placed, inst._nums)), inst._den)
    return tol, t, lhs, _best_ordering_total(layout, placed)


def evaluate_arsp(
    inst: RumInstance,
    matrix: ChoiceMatrix,
    tags: Sequence[int],
    eps: object,
) -> tuple[Fraction, Fraction]:
    """Sides of the tagged-trials inequality at slack *eps*: observed
    success total versus best-ordering total (``_best_ordering_total``)
    plus ``width * eps / 2``.  The condition holds when lhs <= rhs for
    every tag vector."""
    tol, t, lhs, best = _tag_sides(inst, matrix, tags, eps)
    return lhs, best + Fraction(max(t) - min(t)) * tol / 2


def evaluate_arsp_star(
    inst: RumInstance,
    matrix: ChoiceMatrix,
    tags: Sequence[int],
    eps: object,
) -> tuple[Fraction, Fraction]:
    """Sides of the residual-variant inequality: observed total versus
    ``(1 - eps) * best ordering + (2^n - 1) * eps * max tag``."""
    tol, t, lhs, best = _tag_sides(inst, matrix, tags, eps)
    n_menus = (1 << len(inst.alternatives)) - 1
    return lhs, (1 - tol) * best + n_menus * tol * max(t)


def _tag_vector(values: Sequence[Fraction]) -> TaggedTrialSequence:
    """*values* shifted and scaled to [0, 1] (``_unit_shift``) and cleared
    of denominators, as a tag vector.  The tags are coprime with no gcd
    step: the entry 1 becomes the common denominator, and each prime of
    it divides some entry's denominator fully, so not that entry's tag."""
    return TaggedTrialSequence(tags=tuple(_int_row(_unit_shift(values))[0]))


def check_eps_arsp(
    inst: RumInstance, eps: object
) -> Optional[TaggedTrialSequence]:
    """Tagged-trials rationality test at slack *eps*.

    Returns None when every integer tag vector satisfies the inequality
    (equivalently, the additive level is at most eps).  Otherwise builds
    a violating tag vector from the optimal dual stakes (``_arsp_check``).
    """
    return _arsp_check(inst, eps)[0]


def _arsp_check(
    inst: RumInstance, eps: object
) -> tuple[Optional[TaggedTrialSequence], RumReport, ChoiceMatrix]:
    """``check_eps_arsp`` with the additive report and the matrix it
    was decided on.  The certificate is the stakes' ``_tag_vector``,
    verified to violate strictly by substitution."""
    tol = parse_rational(eps)
    if tol < 0:
        raise InputError("slack must be nonnegative")
    report, matrix, stakes = _min_eps_with_stakes(inst)
    if report.epsilon_min <= tol:
        return None, report, matrix
    cert = _tag_vector(stakes)
    lhs, rhs = evaluate_arsp(inst, matrix, cert.tags, tol)
    if not lhs > rhs:
        raise InternalCheckError("tag certificate fails to violate")
    return cert, report, matrix


def rum_residual_min_eps(inst: RumInstance) -> RumReport:
    """Least eps with ``P0 = (1 - eps) A pi + eps R`` where R assigns
    each menu a probability vector over its members.  Always solvable:
    eps = 1 puts everything in the residual."""
    return _residual_fit(inst)[0]


def _residual_fit(
    inst: RumInstance
) -> tuple[RumReport, ChoiceMatrix, tuple[Fraction, ...]]:
    """Solve the residual program: variables mu per ordering, rho per
    pair, then eps; ``A mu + rho = p0`` per pair (mixture mass plus
    residual mass reproduce the choice function) and ``sum mu + eps = 1``;
    minimize eps.  Returns the report, the matrix and the optimal duals y
    of the pair rows."""
    matrix = build_matrix(inst)
    p0 = inst._probs
    m = len(matrix.pairs)
    n_ord = len(matrix.orderings)
    nvars = n_ord + m + 1
    rows = []
    for i, (row, p) in enumerate(zip(matrix.rows, p0)):
        coeffs = dict.fromkeys(itertools.compress(range(n_ord), row), 1)
        coeffs[n_ord + i] = 1
        rows.append((coeffs, EQUAL, p))
    coeffs = dict.fromkeys(range(n_ord), 1)
    coeffs[nvars - 1] = 1
    rows.append((coeffs, EQUAL, 1))
    lp = LinearProgram(
        objective=(_ZERO,) * (nvars - 1) + (_ONE,),
        sense="min",
        constraints=rows,
        lower=(_ZERO,) * nvars,
    )
    sol = solve_lp(lp)
    if sol.status != OPTIMAL:  # pragma: no cover - eps = 1 is feasible
        raise InternalCheckError(f"residual program came back {sol.status}")
    eps = sol.objective_value
    mu = sol.primal[:n_ord]
    rho = sol.primal[n_ord : n_ord + m]
    support = [j for j, v in enumerate(mu) if v]
    pi = None
    if eps != 1:
        pi = {matrix.orderings[j]: mu[j] / (1 - eps) for j in support}
    residual = None
    if eps != 0:
        residual = tuple(v / eps for v in rho)
        _verify_residual_kernel(inst._layout, residual)
    # the decomposition in integers, over mu's support and all of rho
    nums, den = _int_row([mu[j] for j in support] + list(rho))
    for row, mass, p in zip(matrix.rows, nums[len(support) :], p0):
        fitted = sum(w for j, w in zip(support, nums) if row[j])
        if (fitted + mass) * p.denominator != p.numerator * den:
            raise InternalCheckError("residual decomposition fails")
    report = RumReport(
        kind="residual", epsilon_min=eps, pi=pi, residual=residual
    )
    return report, matrix, sol.dual[:m]


def _verify_residual_kernel(
    layout: _Layout, residual: Sequence[Fraction]
) -> None:
    """The recovered residual, in ``pairs()`` order, must be a probability
    vector on each menu: nonnegative, and one over each menu's span."""
    if any(v < 0 for v in residual):
        raise InternalCheckError("negative residual mass")
    if any(sum(residual[s.start:s.stop]) != 1 for _, _, s in layout.menus):
        raise InternalCheckError("residual menu masses must each be one")


def check_eps_arsp_star(
    inst: RumInstance, eps: object
) -> Optional[TaggedTrialSequence]:
    """Residual-variant rationality test at level *eps* in [0, 1].

    Returns None when the residual decomposition exists at this level,
    that is, when the residual level is at most *eps*.  Otherwise the
    residual program's pair-row duals y (with y0 on the mass row) give
    ``y . p0 + y0 (1 - eps) = level - y0 eps > 0``, since ``y0 <= 1``.
    They are shifted and scaled to [0, 1], cleared to coprime integers,
    and verified to violate the inequality strictly.
    """
    return _arsp_star_check(inst, eps)[0]


def _arsp_star_check(
    inst: RumInstance, eps: object
) -> tuple[Optional[TaggedTrialSequence], RumReport, ChoiceMatrix]:
    """``check_eps_arsp_star`` with the residual report and the matrix
    it was decided on."""
    tol = parse_rational(eps)
    if not (0 <= tol <= 1):
        raise InputError("level must lie in [0, 1]")
    report, matrix, duals = _residual_fit(inst)
    if report.epsilon_min <= tol:
        return None, report, matrix
    # no lift per menu: duals are <= 0 and residual mass zeroes one per menu
    cert = _tag_vector(duals)
    lhs, rhs = evaluate_arsp_star(inst, matrix, cert.tags, tol)
    if not lhs > rhs:
        raise InternalCheckError("residual tag certificate fails to violate")
    return cert, report, matrix
