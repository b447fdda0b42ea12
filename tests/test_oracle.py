"""The slow cross-checking implementations, tested against the fast ones."""

import gc
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrb import (
    CapExceededError,
    CredalSet,
    GridSpec,
    InputError,
    LinearProgram,
    PointSpace,
    ProbVector,
    brute_force_lp,
    build_matrix,
    check_eps_arsp,
    evaluate_arsp,
    exhaustive_rum_check,
    grid_max_gap,
    instance_from_mixture,
    min_set_distance,
    RumInstance,
    solve_lp,
    vertex_distance,
)
from nrb.oracle import _best_choice_table, _scan_tags_python, _solve_square
from nrb.simplex import LESS_EQUAL, GREATER_EQUAL, EQUAL, INFEASIBLE, OPTIMAL
from tests.conftest import lattice_vectors, random_credal_set, random_rum


def test_vertex_distance_matches_lp():
    rng = random.Random(5005)
    for _ in range(25):
        n = rng.randrange(2, 5)
        space = PointSpace(labels=tuple(str(i) for i in range(n)))
        p_set = random_credal_set(rng, space, max_members=3)
        q_set = random_credal_set(rng, space, max_members=3)
        assert vertex_distance(p_set, q_set) == min_set_distance(
            p_set, q_set
        ).value


def test_vertex_distance_self_is_zero(nielsen_sets):
    p_set, q_set = nielsen_sets
    assert vertex_distance(p_set, p_set) == 0
    assert vertex_distance(q_set, q_set) == 0
    assert vertex_distance(p_set, q_set) == F(2, 3)


def test_vertex_distance_member_cap(three_space):
    members = tuple(
        ProbVector(
            space=three_space,
            weights=(F(k, 10), F(10 - k, 20), F(10 - k, 20)),
        )
        for k in range(7)
    )
    with pytest.raises(CapExceededError):
        vertex_distance(CredalSet(members), CredalSet(members[:1]))


@st.composite
def _member_vectors(draw, space):
    """A lattice vector, or a Dirac vector on one point."""
    if draw(st.booleans()):
        hit = draw(st.integers(0, space.size - 1))
        return ProbVector(
            space, tuple(F(int(x == hit)) for x in range(space.size))
        )
    return draw(
        lattice_vectors(space, st.sampled_from((1, 2, 3, 4, 6, 12, 60)))
    )


@st.composite
def _set_pairs(draw):
    """Two credal sets on 1-4 points with up to three members each,
    sometimes with a duplicated member or the second set equal to the
    first."""
    n = draw(st.integers(1, 4))
    space = PointSpace(labels=tuple(str(i) for i in range(n)))
    sets = []
    for _ in range(2):
        members = draw(
            st.lists(_member_vectors(space), min_size=1, max_size=3)
        )
        if draw(st.booleans()):
            members.append(draw(st.sampled_from(members)))
        sets.append(CredalSet(tuple(members)))
    if draw(st.integers(0, 4)) == 0:
        sets[1] = sets[0]
    return tuple(sets)


@given(_set_pairs())
@settings(max_examples=200, deadline=None)
def test_vertex_distance_matches_lp_on_degenerate_sets(sets):
    p_set, q_set = sets
    value = min_set_distance(p_set, q_set).value
    assert vertex_distance(p_set, q_set) == value
    assert vertex_distance(q_set, p_set) == value
    if p_set == q_set:
        assert value == 0


@given(st.integers(7, 9), st.booleans())
@settings(max_examples=10, deadline=None)
def test_vertex_distance_refuses_past_six_members(size, on_p_side):
    space = PointSpace(labels=("0", "1"))
    members = tuple(
        ProbVector(space, (F(k, size), F(size - k, size))) for k in range(size)
    )
    big, small = CredalSet(members), CredalSet(members[:1])
    with pytest.raises(CapExceededError):
        if on_p_side:
            vertex_distance(big, small)
        else:
            vertex_distance(small, big)


def test_grid_gap_bounds_distance_from_below(nielsen_sets):
    p_set, q_set = nielsen_sets
    value = min_set_distance(p_set, q_set).value
    coarse = grid_max_gap(p_set, q_set, GridSpec(resolution=1))
    # the optimal stakes are integral here, so the coarse grid is exact
    assert coarse == value == F(2, 3)
    assert grid_max_gap(p_set, q_set, GridSpec(resolution=3)) == F(2, 3)


def test_grid_gap_refines_upward():
    rng = random.Random(404)
    space = PointSpace(labels=("0", "1", "2"))
    for _ in range(6):
        p_set = random_credal_set(rng, space, max_members=2)
        q_set = random_credal_set(rng, space, max_members=2)
        value = min_set_distance(p_set, q_set).value
        g1 = grid_max_gap(p_set, q_set, GridSpec(resolution=1))
        g2 = grid_max_gap(p_set, q_set, GridSpec(resolution=2))
        g4 = grid_max_gap(p_set, q_set, GridSpec(resolution=4))
        # doubling the resolution keeps every old stakes vector available
        assert g1 <= g2 <= g4 <= value


def test_grid_gap_zero_on_identical_sets(nielsen_sets):
    p_set, _ = nielsen_sets
    assert grid_max_gap(p_set, p_set, GridSpec(resolution=2)) == 0


def test_grid_caps_and_validation(nielsen_sets):
    p_set, q_set = nielsen_sets
    with pytest.raises(InputError):
        GridSpec(resolution=0)
    with pytest.raises(InputError):
        GridSpec(resolution="2")
    with pytest.raises(CapExceededError):
        grid_max_gap(p_set, q_set, GridSpec(resolution=9))
    big = PointSpace(labels=tuple(str(i) for i in range(7)))
    uniform = ProbVector(space=big, weights=(F(1, 7),) * 7)
    with pytest.raises(CapExceededError):
        grid_max_gap(
            CredalSet((uniform,)), CredalSet((uniform,)), GridSpec(resolution=1)
        )


# ---------------------------------------------------------------------------
# exhaustive tagged-trials scan


def test_exhaustive_finds_the_two_tag_reversal(warp_cycle):
    hit = exhaustive_rum_check(warp_cycle, 1, max_tag=1)
    assert hit is not None
    pairs = warp_cycle.pairs()
    support = {pairs[i] for i, t in enumerate(hit.tags) if t}
    assert support == {("2", ("1", "2")), ("1", ("1", "2", "3"))}
    matrix = build_matrix(warp_cycle)
    lhs, rhs = evaluate_arsp(warp_cycle, matrix, hit.tags, 1)
    assert (lhs, rhs) == (F(2), F(3, 2))


def test_exhaustive_none_at_the_level(warp_cycle):
    assert exhaustive_rum_check(warp_cycle, 2, max_tag=3) is None
    assert exhaustive_rum_check(warp_cycle, F(199, 100), max_tag=1) is not None


def test_exhaustive_agrees_with_lp_check():
    """Two-way agreement on a deterministic family: a scan hit implies
    the certificate search succeeds, and a certificate within the tag
    budget implies the scan hits."""
    rng = random.Random(77)
    weights = [F(1, 6)] * 6
    for trial in range(12):
        if trial % 2 == 0:
            # contaminate a rationalizable table toward a fixed corner
            theta = F(rng.randrange(0, 5), 8)
            base = instance_from_mixture(("1", "2", "3"), weights)
            table = {}
            for (y, menu), p in base.choice.items():
                bump = F(1, len(menu))
                table[(y, menu)] = (1 - theta) * p + theta * bump
            inst = RumInstance(alternatives=("1", "2", "3"), choice=table)
        else:
            inst = random_rum(rng, 3)
        for eps in (F(0), F(1, 2), F(1)):
            hit = exhaustive_rum_check(inst, eps, max_tag=3)
            cert = check_eps_arsp(inst, eps)
            if hit is not None:
                assert cert is not None
            if cert is not None and max(cert.tags) <= 3:
                assert hit is not None


# First violating vector of each blend theta = i/49 of the reversal
# instance toward the uniform mixture (acceptance criterion 9's family)
# at slack 1 and max_tag 3, digits in pair order, recorded from the
# full enumeration.  The scan must reach the same vector first.
_BLEND_FIRST_HITS = ["000010000100"] * 21 + [None] * 29


def test_exhaustive_first_hits_on_blend_family(warp_cycle):
    alts = ("1", "2", "3")
    tame = instance_from_mixture(alts, (F(1, 6),) * 6)
    hits = []
    for i in range(50):
        theta = F(i, 49)
        table = {
            key: (1 - theta) * warp_cycle.choice[key] + theta * tame.choice[key]
            for key in warp_cycle.choice
        }
        inst = RumInstance(alternatives=alts, choice=table)
        hit = exhaustive_rum_check(inst, F(1), max_tag=3)
        hits.append(None if hit is None else "".join(map(str, hit.tags)))
    assert hits == _BLEND_FIRST_HITS


def test_exhaustive_caps_and_validation(warp_cycle, skewed_triples):
    with pytest.raises(CapExceededError):
        exhaustive_rum_check(skewed_triples, 1, max_tag=1)
    with pytest.raises(CapExceededError):
        exhaustive_rum_check(warp_cycle, 1, max_tag=4)
    with pytest.raises(InputError):
        exhaustive_rum_check(warp_cycle, -1, max_tag=1)
    with pytest.raises(InputError):
        exhaustive_rum_check(warp_cycle, 1, max_tag=F(1))
    # only the zero vector fits below one tag, and it never violates
    assert exhaustive_rum_check(warp_cycle, 0, max_tag=0) is None


def test_scan_backends_agree(warp_cycle):
    pairs = warp_cycle.pairs()
    p0 = [warp_cycle.probability(y, menu) for y, menu in pairs]
    rows = _best_choice_table(warp_cycle)
    total = 2 ** len(pairs)
    slow = _scan_tags_python(p0, rows, 2, total, F(1))
    fast = exhaustive_rum_check(warp_cycle, 1, max_tag=1)
    assert slow is not None and fast is not None
    assert tuple(slow) == fast.tags
    assert _scan_tags_python(p0, rows, 2, total, F(2)) is None

    rng = random.Random(31)
    cases = [
        (inst, eps, max_tag)
        for n in (1, 2)
        for inst in (random_rum(rng, n), random_rum(rng, n))
        for max_tag in range(4)
        for eps in (F(0), F(1, 2))
    ]
    # denominators near 3**40: the cleared coefficients pass 2**62
    tame = instance_from_mixture(("1", "2", "3"), (F(1, 6),) * 6)
    big = _blend(warp_cycle, tame, F(1, 3**40))
    assert max(p.denominator for p in big.choice.values()) > 2**62
    cases += [(big, F(1), 1), (big, 2 - F(1, 5**30), 1)]
    for inst in (warp_cycle, random_rum(rng, 3), random_rum(rng, 3)):
        cases += [(inst, F(0), 1), (inst, F(1, 2), 1)]
    # two tables whose first hits come early in the plain loop; a full
    # plain scan at max_tag 2 takes tens of seconds
    for seed in (1, 6):
        cases.append((random_rum(random.Random(seed), 3), F(1), 2))
    hits = 0
    for inst, eps, max_tag in cases:
        fast = exhaustive_rum_check(inst, eps, max_tag)
        slow = _reference_first_hit(inst, eps, max_tag)
        assert (None if fast is None else fast.tags) == slow
        hits += slow is not None
    assert hits >= 6


def _reference_first_hit(inst, eps, max_tag):
    pairs = inst.pairs()
    p0 = [inst.probability(y, menu) for y, menu in pairs]
    base = max_tag + 1
    hit = _scan_tags_python(
        p0, _best_choice_table(inst), base, base ** len(pairs), eps
    )
    return None if hit is None else tuple(hit)


def _blend(inst, other, theta):
    return RumInstance(
        alternatives=inst.alternatives,
        choice={
            key: (1 - theta) * inst.choice[key] + theta * other.choice[key]
            for key in inst.choice
        },
    )


def test_exhaustive_check_leaves_no_reference_cycle(warp_cycle):
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert exhaustive_rum_check(warp_cycle, 1, max_tag=1) is not None
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# the fraction-free square solve against a Fraction Gauss-Jordan


def _reference_solve(matrix, rhs):
    """Gauss-Jordan in ``Fraction`` with the same pivot choice: the first
    nonzero entry at or below the diagonal."""
    n = len(matrix)
    aug = [[F(v) for v in row] + [F(b)] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


# mostly small entries and many zeros, so that singular systems and row
# swaps are common
_ENTRY = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-6, 6), st.sampled_from((1, 1, 2, 3, 7))),
)


@st.composite
def _square_systems(draw):
    n = draw(st.integers(1, 5))
    matrix = draw(st.lists(
        st.lists(_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n
    ))
    rhs = draw(st.lists(_ENTRY, min_size=n, max_size=n))
    return matrix, rhs


@settings(max_examples=300, deadline=None)
@given(_square_systems())
def test_solve_square_matches_fraction_gauss_jordan(system):
    matrix, rhs = system
    assert _solve_square(matrix, rhs) == _reference_solve(matrix, rhs)


def test_solve_square_swaps_rows_and_refuses_singular_systems():
    # a zero on the diagonal until rows are swapped, twice
    swap = [[F(0), F(1, 2), F(1)], [F(0), F(0), F(3)], [F(2, 3), F(1), F(0)]]
    rhs = [F(1), F(-2), F(5, 7)]
    x = _solve_square(swap, rhs)
    assert x == _reference_solve(swap, rhs)
    assert [sum(a * v for a, v in zip(row, x)) for row in swap] == rhs
    assert _solve_square([[F(1), F(2)], [F(1, 2), F(1)]], [F(1), F(0)]) is None
    assert _solve_square([[F(0), F(1)], [F(0), F(5)]], [F(1), F(5)]) is None
    assert _solve_square([[F(0)]], [F(0)]) is None
    assert _solve_square([[F(-3, 4)]], [F(1, 2)]) == [F(-2, 3)]
    # integer entries, as brute_force_lp's unit rows may carry
    assert _solve_square([[1, 1], [1, -1]], [F(3), F(1)]) == [2, 1]


# ---------------------------------------------------------------------------
# active-set enumeration against the simplex solver


def _random_bounded_lp(rng: random.Random) -> LinearProgram:
    n = rng.randrange(2, 4)
    m = rng.randrange(1, 4)
    rows = []
    for _ in range(m):
        coeffs = tuple(F(rng.randrange(-3, 4)) for _ in range(n))
        rel = rng.choice((LESS_EQUAL, GREATER_EQUAL))
        rhs = F(rng.randrange(-4, 8), rng.choice((1, 2)))
        rows.append((coeffs, rel, rhs))
    return LinearProgram(
        objective=tuple(F(rng.randrange(-4, 5)) for _ in range(n)),
        sense=rng.choice(("min", "max")),
        constraints=tuple(rows),
        lower=(F(0),) * n,
        upper=(F(3),) * n,
    )


def test_brute_force_matches_simplex():
    rng = random.Random(2468)
    optima = 0
    for _ in range(40):
        lp = _random_bounded_lp(rng)
        sol = solve_lp(lp)
        status, value = brute_force_lp(lp)
        assert status == sol.status
        if sol.status == OPTIMAL:
            assert value == sol.objective_value
            optima += 1
    assert optima >= 10


def test_brute_force_equality_only_system():
    lp = LinearProgram(
        objective=(F(1), F(1)),
        sense="min",
        constraints=(
            ((F(1), F(0)), EQUAL, F(2)),
            ((F(0), F(1)), EQUAL, F(3)),
        ),
        lower=(None, None),
    )
    status, value = brute_force_lp(lp)
    assert status == OPTIMAL
    assert value == F(5)


def _unit_box_lp(objective, equalities):
    n = len(objective)
    return LinearProgram(
        objective=tuple(F(c) for c in objective),
        sense="min",
        constraints=tuple(
            (tuple(F(c) for c in coeffs), EQUAL, F(rhs))
            for coeffs, rhs in equalities
        ),
        lower=(F(0),) * n,
        upper=(F(1),) * n,
    )


def test_brute_force_dependent_equalities():
    """Dependent equality rows are reduced to an independent subset
    before active sets are picked (two rows, two variables)."""
    lp = _unit_box_lp((1, 2), (((1, 1), 1), ((2, 2), 2)))
    assert brute_force_lp(lp) == (OPTIMAL, F(1))
    assert solve_lp(lp).objective_value == F(1)
    inconsistent = _unit_box_lp((1, 2), (((1, 1), 1), ((2, 2), 3)))
    assert brute_force_lp(inconsistent) == (INFEASIBLE, None)
    assert solve_lp(inconsistent).status == INFEASIBLE


def test_brute_force_dependent_equalities_below_variable_count():
    """Two dependent equalities over three variables: the independent
    one plus two active bounds pin each vertex."""
    lp = _unit_box_lp((1, 2, 3), (((1, 1, 1), 1), ((2, 2, 2), 2)))
    assert brute_force_lp(lp) == (OPTIMAL, F(1))
    assert solve_lp(lp).objective_value == F(1)
