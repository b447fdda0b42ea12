"""The slow cross-checking implementations, tested against the fast ones."""

import random
from fractions import Fraction as F

import pytest

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
from nrb.oracle import _scan_tags_python, _best_choice_table
from nrb.simplex import LESS_EQUAL, GREATER_EQUAL, EQUAL, INFEASIBLE, OPTIMAL
from tests.conftest import random_credal_set, random_rum


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
