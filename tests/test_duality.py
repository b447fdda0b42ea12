import dataclasses
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrb import (
    FULL_SIMPLEX,
    ContaminationDecomposition,
    ContaminationRefusal,
    CredalSet,
    InputError,
    PointSpace,
    Proximity,
    ProbVector,
    Separation,
    check_bounded_separation,
    contamination_feasible,
    expectation,
    gordan_decide,
    l1_distance,
    member_gap,
    min_set_distance,
    mixture,
    pool_min_eps_additive,
    vertex_distance,
)
from nrb import duality
from nrb.errors import InternalCheckError
from nrb.simplex import EQUAL, LESS_EQUAL, LinearProgram, LpSolution, solve_lp
from tests.conftest import (
    random_credal_set,
    random_pooling,
    random_prob_vector,
)


def _space(n):
    return PointSpace(labels=tuple(str(i) for i in range(n)))


def _dirac(space, idx):
    w = [F(0)] * space.size
    w[idx] = F(1)
    return ProbVector(space, tuple(w))


def test_distance_to_itself_is_zero(nielsen_sets):
    _, q_set = nielsen_sets
    res = min_set_distance(q_set, q_set)
    assert res.value == 0


def test_singletons_reduce_to_plain_l1():
    sp = _space(3)
    p = ProbVector(sp, (F(1, 2), F(1, 2), F(0)))
    q = ProbVector(sp, (F(0), F(1, 2), F(1, 2)))
    res = min_set_distance(CredalSet((p,)), CredalSet((q,)))
    assert res.value == l1_distance(p, q) == 1


def test_planner_outside_pool_span(nielsen_sets):
    """Both opinions put zero on the third state while the planner puts
    1/3 there, so no mixture comes closer than 2/3."""
    p_set, q_set = nielsen_sets
    res = min_set_distance(p_set, q_set)
    assert res.value == F(2, 3)
    # the distance is attained by the returned mixtures
    p_mix = mixture(res.p_weights, p_set)
    q_mix = mixture(res.q_weights, q_set)
    assert l1_distance(p_mix, q_mix) == F(2, 3)
    # and certified by the returned stakes
    assert res.stakes.norm == 1
    assert member_gap(res.stakes, p_set, q_set) == F(2, 3)


def test_symmetry_of_the_set_distance(nielsen_sets):
    p_set, q_set = nielsen_sets
    assert (
        min_set_distance(p_set, q_set).value
        == min_set_distance(q_set, p_set).value
    )


def test_matches_oracle_on_random_instances():
    rng = random.Random(402)
    for _ in range(40):
        sp = _space(rng.randrange(2, 6))
        a = random_credal_set(rng, sp)
        b = random_credal_set(rng, sp)
        res = min_set_distance(a, b)
        assert res.value == vertex_distance(a, b)
        assert member_gap(res.stakes, a, b) == res.value
        if res.value > 0:
            assert res.stakes.norm == 1


def test_gordan_dichotomy(nielsen_sets):
    p_set, q_set = nielsen_sets
    sep = gordan_decide(p_set, q_set, F(1, 2))
    assert isinstance(sep, Separation)
    assert sep.gap == F(2, 3)
    assert member_gap(sep.stakes, p_set, q_set) == sep.gap
    prox = gordan_decide(p_set, q_set, F(2, 3))
    assert isinstance(prox, Proximity)
    assert prox.distance == F(2, 3)


def test_gordan_never_both_on_randoms():
    rng = random.Random(403)
    for _ in range(25):
        sp = _space(rng.randrange(2, 5))
        a = random_credal_set(rng, sp, max_members=3)
        b = random_credal_set(rng, sp, max_members=3)
        eps = F(rng.randrange(0, 9), 4)
        outcome = gordan_decide(a, b, eps)
        if isinstance(outcome, Separation):
            assert outcome.gap > eps
            assert member_gap(outcome.stakes, a, b) == outcome.gap
        else:
            assert outcome.distance <= eps
            pm = mixture(outcome.p_weights, a)
            qm = mixture(outcome.q_weights, b)
            assert l1_distance(pm, qm) == outcome.distance


def test_bounded_separation_check_agrees_with_distance(nielsen_sets):
    """holds is 'the sets come within eps'; a False answer carries the
    unit-norm stakes witnessing the violation."""
    p_set, q_set = nielsen_sets
    res = check_bounded_separation(p_set, q_set, F(0))
    assert not res.holds
    assert res.gap == F(2, 3)
    assert member_gap(res.witness, p_set, q_set) == F(2, 3)
    assert check_bounded_separation(p_set, q_set, F(2, 3)).holds
    # trivially satisfied at eps = 2, the diameter of the simplex
    assert check_bounded_separation(p_set, q_set, F(2)).holds


def test_negative_tolerance_rejected(nielsen_sets):
    p_set, q_set = nielsen_sets
    with pytest.raises(InputError):
        gordan_decide(p_set, q_set, F(-1))
    with pytest.raises(InputError, match="^tolerance must be nonnegative$"):
        check_bounded_separation(p_set, q_set, F(-1, 3))


class TestContamination:
    def test_nielsen_threshold(self, nielsen):
        """With a free residual, mass 1/3 on the third state can only
        come from the contamination term."""
        ok = contamination_feasible(
            nielsen.planner, nielsen.opinions, FULL_SIMPLEX, F(1, 3)
        )
        assert isinstance(ok, ContaminationDecomposition)
        assert ok.residual is not None
        rebuilt = [
            (1 - F(1, 3))
            * sum(
                w * q.weights[i]
                for w, q in zip(ok.q_weights, nielsen.opinions.members)
            )
            + F(1, 3) * ok.residual.weights[i]
            for i in range(3)
        ]
        assert tuple(rebuilt) == nielsen.planner.weights

    def test_nielsen_refusal_below_threshold(self, nielsen):
        out = contamination_feasible(
            nielsen.planner, nielsen.opinions, FULL_SIMPLEX, F(1, 4)
        )
        assert isinstance(out, ContaminationRefusal)
        assert out.lhs > out.rhs
        f = out.stakes
        assert min(f.values) == 0 and max(f.values) == 1
        # the serialized numbers re-verify: expected planner payoff
        # beats the best mixture-plus-residual payoff strictly
        lhs = expectation(f, nielsen.planner)
        best_q = max(
            expectation(f, q) for q in nielsen.opinions.members
        )
        assert lhs == out.lhs
        assert (1 - F(1, 4)) * best_q + F(1, 4) * max(f.values) == out.rhs

    def test_full_contamination_always_feasible(self, nielsen):
        out = contamination_feasible(
            nielsen.planner, nielsen.opinions, FULL_SIMPLEX, F(1)
        )
        assert isinstance(out, ContaminationDecomposition)
        assert out.residual.weights == nielsen.planner.weights

    def test_zero_level_means_membership(self, nielsen):
        out = contamination_feasible(
            nielsen.planner, nielsen.opinions, FULL_SIMPLEX, F(0)
        )
        assert isinstance(out, ContaminationRefusal)
        inside = mixture((F(1, 2), F(1, 2)), nielsen.opinions)
        ok = contamination_feasible(
            inside, nielsen.opinions, FULL_SIMPLEX, F(0)
        )
        assert isinstance(ok, ContaminationDecomposition)
        assert ok.residual is None

    def test_restricted_residual_set(self, nielsen, three_space):
        """Forcing the residual into a set that cannot reach the third
        state pushes the threshold to one."""
        r_set = CredalSet((_dirac(three_space, 0),))
        out = contamination_feasible(
            nielsen.planner, nielsen.opinions, r_set, F(1, 3)
        )
        assert isinstance(out, ContaminationRefusal)
        helpful = CredalSet((_dirac(three_space, 2),))
        ok = contamination_feasible(
            nielsen.planner, nielsen.opinions, helpful, F(1, 3)
        )
        assert isinstance(ok, ContaminationDecomposition)

    @pytest.mark.parametrize(
        "index, shift, message",
        [
            (0, F(1, 3), "decomposition weights miss their totals"),
            (0, F(-1), "decomposition has a negative weight"),
            (2, F(1, 9), "decomposition weights miss their totals"),
        ],
    )
    @pytest.mark.parametrize("helpful", [False, True])
    def test_corrupted_solves_are_internal_checks(
        self, monkeypatch, nielsen, three_space, helpful, index, shift, message
    ):
        """A corrupted decomposition fails the integer check before a
        mixture or a residual is built from it: an opinion weight (index
        0) or the first residual weight (index 2) is shifted."""
        r_set = CredalSet((_dirac(three_space, 2),)) if helpful else FULL_SIMPLEX

        def corrupted(lp):
            sol = solve_lp(lp)
            primal = list(sol.primal)
            primal[index] += shift
            return dataclasses.replace(sol, primal=tuple(primal))

        monkeypatch.setattr(duality, "solve_lp", corrupted)
        with pytest.raises(InternalCheckError, match=f"^{message}$"):
            contamination_feasible(nielsen.planner, nielsen.opinions, r_set, F(1, 3))

    def test_moved_residual_mass_fails_coordinatewise(self, monkeypatch, nielsen):
        """Residual mass moved between points keeps every total."""

        def corrupted(lp):
            sol = solve_lp(lp)
            primal = list(sol.primal)
            primal[2] += F(1, 9)
            primal[4] -= F(1, 9)
            return dataclasses.replace(sol, primal=tuple(primal))

        monkeypatch.setattr(duality, "solve_lp", corrupted)
        with pytest.raises(
            InternalCheckError, match="^decomposition fails coordinatewise$"
        ):
            contamination_feasible(
                nielsen.planner, nielsen.opinions, FULL_SIMPLEX, F(1, 3)
            )

    def test_level_outside_unit_interval_rejected(self, nielsen):
        with pytest.raises(InputError):
            contamination_feasible(
                nielsen.planner, nielsen.opinions, FULL_SIMPLEX, F(3, 2)
            )


def _reference_l1_audit(target, columns, blocks, sol):
    """The L1-fit audit as it was in ``Fraction`` arithmetic: the first
    failing check's message, or None."""
    n, k = len(target), len(columns)

    def dot(a, b):
        return sum((u * v for u, v in zip(a, b) if v), F(0))

    value = sol.objective_value
    weights = sol.primal[n:]
    error = tuple(
        t - sum((u * col[x] for u, col in zip(weights, columns) if u), F(0))
        for x, t in enumerate(target)
    )
    stakes = tuple(sol.dual[n + x] - sol.dual[x] for x in range(n))
    if sum(abs(e) for e in error) != value:
        return "fitted error norm disagrees with the value"
    norm = max(abs(f) for f in stakes)
    if norm > 1:
        return "stakes exceed unit sup norm"
    if value > 0 and norm != 1:
        return "positive value but stakes below unit norm"
    payoffs = [dot(stakes, col) for col in columns]
    if any(payoffs[j] > 0 for j in set(range(k)).difference(*blocks)):
        return "stakes gain on an unconstrained column"
    best = sum((max(payoffs[j] for j in block) for block in blocks), F(0))
    if dot(stakes, target) - best != value:
        return "stakes gap disagrees with the value"
    return None


_small = st.fractions(-2, 2, max_denominator=6)


@st.composite
def _l1_fits(draw):
    """An L1-fit instance (target, columns, blocks) and a corruption of
    its optimal solution: (kind, index, amount)."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 4))
    target = tuple(draw(_small) for _ in range(n))
    columns = [tuple(draw(_small) for _ in range(n)) for _ in range(k)]
    cut = draw(st.integers(0, k))
    blocks = draw(st.sampled_from([
        (), (range(k),), (range(cut),) if cut else (),
        (range(cut), range(cut, k)) if 0 < cut < k else (range(k),),
    ]))
    kind = draw(st.sampled_from(["shift", "flip", "scale", "objective", "none"]))
    index = draw(st.integers(0, 2 * n - 1))
    amount = draw(st.fractions(-1, 1, max_denominator=7).filter(bool))
    return target, columns, blocks, (kind, index, amount)


def _corrupt(sol, n, kind, index, amount):
    dual, value = list(sol.dual), sol.objective_value
    if kind == "shift":
        dual[index] += amount
    elif kind == "flip":
        dual[index] = -dual[index]
    elif kind == "scale":
        dual = [abs(amount) * y for y in dual]
    elif kind == "objective":
        value += amount
    return LpSolution(status=sol.status, objective_value=value,
                      primal=sol.primal, dual=tuple(dual),
                      reduced_costs=sol.reduced_costs)


@given(_l1_fits())
@settings(max_examples=300, deadline=None)
def test_l1_fit_audit_matches_fraction_reference(case):
    """The integer audit of ``_l1_fit`` rejects a corrupted solution
    exactly when the ``Fraction`` audit does, with the same message."""
    target, columns, blocks, (kind, index, amount) = case
    seen = []

    def corrupted_solve(lp):
        sol = _corrupt(solve_lp(lp), len(target), kind, index, amount)
        seen.append(sol)
        return sol

    duality.solve_lp = corrupted_solve
    try:
        duality._l1_fit(target, columns, blocks)
        got = None
    except InternalCheckError as exc:
        got = str(exc)
    finally:
        duality.solve_lp = solve_lp
    assert got == _reference_l1_audit(target, columns, blocks, seen[0])
    if kind == "none":
        assert got is None


def _reference_l1_program(target, columns, blocks):
    """The L1-fit program as ``_l1_fit`` built it from dense
    ``Fraction`` rows, kept as the test reference."""
    zero, one = F(0), F(1)
    n, k = len(target), len(columns)
    lo = [[zero] * (n + k) for _ in range(n)]
    hi = [[zero] * (n + k) for _ in range(n)]
    for x in range(n):
        lo[x][x] = hi[x][x] = F(-1)
    for j, col in enumerate(columns):
        for x, g in enumerate(col):
            if g:
                lo[x][n + j] = -g
                hi[x][n + j] = g
    rows = [(tuple(r), LESS_EQUAL, -t) for r, t in zip(lo, target)]
    rows += [(tuple(r), LESS_EQUAL, t) for r, t in zip(hi, target)]
    for block in blocks:
        coeffs = [zero] * (n + k)
        for j in block:
            coeffs[n + j] = one
        rows.append((tuple(coeffs), EQUAL, one))
    return LinearProgram(
        objective=(one,) * n + (zero,) * k,
        sense="min",
        constraints=tuple(rows),
        lower=(zero,) * (n + k),
    )


def _captured_programs(monkeypatch, module):
    """Patch *module*'s ``solve_lp`` to record every program it gets."""
    seen = []

    def capture(lp):
        seen.append(lp)
        return solve_lp(lp)

    monkeypatch.setattr(module, "solve_lp", capture)
    return seen


def _assert_same_program(got, want):
    assert got == want
    assert got._int_rows == want._int_rows


def test_set_distance_program_matches_dense_reference(monkeypatch, nielsen_sets):
    rng = random.Random(4)
    space = _space(5)
    cases = [nielsen_sets] + [
        (random_credal_set(rng, space), random_credal_set(rng, space))
        for _ in range(6)
    ]
    seen = _captured_programs(monkeypatch, duality)
    for p_set, q_set in cases:
        min_set_distance(p_set, q_set)
        columns = [tuple(-v for v in p.weights) for p in p_set.members]
        columns += [q.weights for q in q_set.members]
        np_ = p_set.size
        want = _reference_l1_program(
            (F(0),) * p_set.space.size,
            columns,
            (range(np_), range(np_, np_ + q_set.size)),
        )
        _assert_same_program(seen.pop(), want)


def test_pool_program_matches_dense_reference(monkeypatch, nielsen):
    rng = random.Random(4)
    cases = [nielsen] + [random_pooling(rng, 4, 4) for _ in range(6)]
    seen = _captured_programs(monkeypatch, duality)
    for inst in cases:
        pool_min_eps_additive(inst)
        want = _reference_l1_program(
            inst.planner.weights,
            [q.weights for q in inst.opinions.members],
            (range(inst.opinions.size),),
        )
        _assert_same_program(seen.pop(), want)


def _reference_contamination_program(p, q_set, r_set, tol):
    """The contamination program as ``contamination_feasible`` built it
    from dense ``Fraction`` rows, kept as the test reference."""
    zero, one = F(0), F(1)
    full = r_set is FULL_SIMPLEX
    n, nq = p.space.size, q_set.size
    n_res = n if full else r_set.size
    nvars = nq + n_res
    rows = []
    for x in range(n):
        coeffs = [zero] * nvars
        for j, q in enumerate(q_set.members):
            coeffs[j] = (one - tol) * q.weights[x]
        if full:
            coeffs[nq + x] = one
        else:
            for m, r in enumerate(r_set.members):
                coeffs[nq + m] = tol * r.weights[x]
        rows.append((tuple(coeffs), EQUAL, p.weights[x]))
    rows.append((tuple([one] * nq + [zero] * n_res), EQUAL, one))
    rows.append(
        (tuple([zero] * nq + [one] * n_res), EQUAL, tol if full else one)
    )
    return LinearProgram(
        objective=(zero,) * nvars,
        sense="min",
        constraints=tuple(rows),
        lower=(zero,) * nvars,
    )


@pytest.mark.parametrize("eps", [F(0), F(1, 2), F(1)])
def test_contamination_program_matches_dense_reference(
    monkeypatch, nielsen, three_space, eps
):
    rng = random.Random(6)
    cases = [
        (nielsen.planner, nielsen.opinions, FULL_SIMPLEX),
        (nielsen.planner, nielsen.opinions,
         CredalSet((_dirac(three_space, 2),))),
    ]
    for _ in range(10):
        space = _space(rng.randrange(2, 6))
        p, q_set = random_prob_vector(rng, space), random_credal_set(rng, space)
        cases.append((p, q_set, FULL_SIMPLEX))
        cases.append((p, q_set, random_credal_set(rng, space)))
    seen = _captured_programs(monkeypatch, duality)
    for p, q_set, r_set in cases:
        contamination_feasible(p, q_set, r_set, eps)
        want = _reference_contamination_program(p, q_set, r_set, eps)
        _assert_same_program(seen.pop(), want)
