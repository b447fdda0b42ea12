"""Opinion pooling levels and the unanimity conditions they certify."""

import dataclasses
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrb import (
    FULL_SIMPLEX,
    CapExceededError,
    ContaminationRefusal,
    CredalSet,
    InputError,
    InternalCheckError,
    ParetoWitness,
    PointSpace,
    PoolingInstance,
    ProbVector,
    StakesVector,
    check_condition_C,
    check_condition_CM,
    check_condition_Cstar,
    check_event_minmax,
    contamination_feasible,
    expectation,
    min_set_distance,
    mixture,
    oscillation,
    pool_min_eps_additive,
    pool_min_eps_genest,
    pool_min_eps_normalized,
)
from nrb import pooling
from nrb.simplex import solve_lp
from tests.conftest import lattice_vectors, random_pooling, random_prob_vector


# ---------------------------------------------------------------------------
# the worked two-expert instance: uniform planner against (2/3,1/3,0)
# and (1/3,2/3,0)


def test_additive_level(nielsen):
    report = pool_min_eps_additive(nielsen)
    assert report.kind == "additive"
    assert report.epsilon_min == F(2, 3)
    assert sum(report.weights) == 1
    assert report.error is not None and report.residual is None
    # best approximation puts everything on the first expert
    assert report.error.weights == (F(-1, 3), F(0), F(1, 3))
    q_mix = mixture(report.weights, nielsen.opinions)
    rebuilt = tuple(
        q + e for q, e in zip(q_mix.weights, report.error.weights)
    )
    assert rebuilt == nielsen.planner.weights


def test_genest_level(nielsen):
    report = pool_min_eps_genest(nielsen)
    assert report.kind == "genest"
    assert report.epsilon_min == F(1, 3)
    assert report.weights == (F(1, 3), F(1, 3))
    assert sum(report.weights) == 1 - report.epsilon_min
    assert report.residual is not None
    assert report.residual.weights == (F(0), F(0), F(1))
    for x in range(3):
        lhs = nielsen.planner.weights[x]
        rhs = sum(
            w * q.weights[x]
            for w, q in zip(report.weights, nielsen.opinions.members)
        ) + report.epsilon_min * report.residual.weights[x]
        assert lhs == rhs


def _corrupted_solve(weight=F(0), value=F(0)):
    """``solve_lp`` with ``weight`` added to the first primal entry and
    ``value`` to the objective value of its solution."""
    def solve(lp):
        sol = solve_lp(lp)
        return dataclasses.replace(
            sol,
            primal=(sol.primal[0] + weight,) + sol.primal[1:],
            objective_value=sol.objective_value + value,
        )
    return solve


@pytest.mark.parametrize(
    "weight, value, message",
    [
        (F(1, 3), F(0), "residual has a negative entry"),
        (F(0), F(-1, 6), "residual mass disagrees with the level"),
    ],
)
@pytest.mark.parametrize("decide", ["level", "cstar"])
def test_genest_residual_faults_are_internal_checks(
    monkeypatch, nielsen, decide, weight, value, message
):
    """A corrupted Genest solve is caught by the residual's own sign and
    mass checks, as an internal fault, before any probability vector is
    built from it."""
    monkeypatch.setattr(pooling, "solve_lp", _corrupted_solve(weight, value))
    with pytest.raises(InternalCheckError, match=f"^{message}$"):
        if decide == "level":
            pool_min_eps_genest(nielsen)
        else:
            check_condition_Cstar(nielsen, F(1, 2))


def test_genest_level_against_weight_grid(nielsen):
    """Sweep a fine grid of nonnegative weight pairs with sum <= 1 and
    check none leaves less uncovered mass than the reported optimum."""
    report = pool_min_eps_genest(nielsen)
    step = F(1, 60)
    best = F(1)
    q1, q2 = nielsen.opinions.members
    for i in range(61):
        lam1 = i * step
        for j in range(61 - i):
            lam2 = j * step
            ok = all(
                lam1 * q1.weights[x] + lam2 * q2.weights[x]
                <= nielsen.planner.weights[x]
                for x in range(3)
            )
            if ok:
                best = min(best, 1 - lam1 - lam2)
    assert best == report.epsilon_min == F(1, 3)


def test_normalized_levels(nielsen):
    constrained = pool_min_eps_normalized(nielsen, constrain_sum=True)
    assert constrained.kind == "normalized-additive"
    assert constrained.sum_constrained is True
    assert constrained.epsilon_min == F(2, 3)
    assert sum(constrained.weights) == 1

    free = pool_min_eps_normalized(nielsen, constrain_sum=False)
    assert free.sum_constrained is False
    assert free.epsilon_min == F(1, 3)
    assert sum(free.weights) == F(2, 3)
    # dropping the sum constraint never hurts
    assert free.epsilon_min <= constrained.epsilon_min


def test_normalized_error_excess_bounded(nielsen):
    """With free weights the planner/approximation mass mismatch is
    itself part of the reported error."""
    report = pool_min_eps_normalized(nielsen, constrain_sum=False)
    assert abs(1 - sum(report.weights)) <= report.epsilon_min


# ---------------------------------------------------------------------------
# condition C / C* against the pooling levels they characterize


EPS_GRID = [F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1)]


def _verify_witness(inst: PoolingInstance, wit: ParetoWitness, eps, one_sided):
    """Recompute every number in the witness from scratch."""
    margins = tuple(
        expectation(wit.f, q) - expectation(wit.g, q)
        for q in inst.opinions.members
    )
    assert margins == wit.premise_margins
    assert all(m >= 0 for m in margins)
    h = StakesVector(
        space=inst.space,
        values=tuple(a - b for a, b in zip(wit.f.values, wit.g.values)),
    )
    if one_sided:
        penalty = oscillation(h) - max(h.values)
    else:
        penalty = oscillation(h) / 2
    shortfall = (
        expectation(wit.g, inst.planner)
        - eps * penalty
        - expectation(wit.f, inst.planner)
    )
    assert shortfall == wit.violation_amount
    assert shortfall > 0


def test_condition_C_matches_additive():
    rng = random.Random(8821)
    for _ in range(40):
        inst = random_pooling(rng)
        level = pool_min_eps_additive(inst).epsilon_min
        for eps in EPS_GRID:
            wit = check_condition_C(inst, eps)
            if level <= eps:
                assert wit is None
            else:
                assert wit is not None
                _verify_witness(inst, wit, eps, one_sided=False)


def test_condition_Cstar_matches_genest():
    rng = random.Random(907)
    for _ in range(40):
        inst = random_pooling(rng)
        level = pool_min_eps_genest(inst).epsilon_min
        for eps in EPS_GRID:
            wit = check_condition_Cstar(inst, eps)
            if level <= eps:
                assert wit is None
            else:
                assert wit is not None
                _verify_witness(inst, wit, eps, one_sided=True)


def test_condition_Cstar_matches_contamination():
    """C* decided on the Genest program agrees with the fixed-level
    contamination program, and its witness pays the negated refusal
    stakes."""
    rng = random.Random(5150)
    violated = 0
    for _ in range(320):
        inst = random_pooling(rng)
        for eps in EPS_GRID:
            wit = check_condition_Cstar(inst, eps)
            outcome = contamination_feasible(
                inst.planner, inst.opinions, FULL_SIMPLEX, eps
            )
            if isinstance(outcome, ContaminationRefusal):
                assert wit is not None
                assert wit.f.values == tuple(-v for v in outcome.stakes.values)
                violated += 1
            else:
                assert wit is None
    assert violated > 0


def test_star_implies_doubled_plain():
    """The one-sided condition at eps forces the symmetric one at 2*eps,
    because the additive level never exceeds twice the Genest level."""
    rng = random.Random(3111)
    for _ in range(60):
        inst = random_pooling(rng)
        additive = pool_min_eps_additive(inst).epsilon_min
        genest = pool_min_eps_genest(inst).epsilon_min
        assert additive <= 2 * genest
        for eps in (F(1, 6), F(1, 3), F(1, 2)):
            if check_condition_Cstar(inst, eps) is None:
                assert check_condition_C(inst, 2 * eps) is None


def test_condition_C_rejects_negative_eps(nielsen):
    with pytest.raises(InputError):
        check_condition_C(nielsen, F(-1, 4))
    with pytest.raises(InputError):
        check_condition_Cstar(nielsen, F(3, 2))


def test_witness_invariants_enforced(three_space):
    f = StakesVector(space=three_space, values=(F(1), F(0), F(0)))
    g = StakesVector(space=three_space, values=(F(0), F(0), F(0)))
    with pytest.raises(InternalCheckError):
        ParetoWitness(
            f=f, g=g, premise_margins=(F(-1),), violation_amount=F(1)
        )
    with pytest.raises(InternalCheckError):
        ParetoWitness(
            f=f, g=g, premise_margins=(F(1),), violation_amount=F(0)
        )


# ---------------------------------------------------------------------------
# event-level conditions


def test_event_pair_level(nielsen):
    required, (e1, e2) = check_condition_CM(nielsen.planner, nielsen.opinions, 0)
    assert required == F(1, 3)
    # both experts give the empty event and {o3} probability zero alike,
    # yet the planner puts 1/3 on the third point
    assert e1 == ()
    assert e2 == ("3",)


def test_event_pair_level_below_normalized():
    """Event-pair unanimity is implied by sum-constrained pooling at the
    same level, so its threshold can only be smaller."""
    rng = random.Random(5150)
    for _ in range(40):
        inst = random_pooling(rng)
        required, _ = check_condition_CM(inst.planner, inst.opinions, 0)
        constrained = pool_min_eps_normalized(inst, constrain_sum=True)
        assert required <= constrained.epsilon_min


def test_event_minmax_level(nielsen):
    eps_over, eps_under, event = check_event_minmax(
        nielsen.planner, nielsen.opinions
    )
    assert eps_over == eps_under == F(2, 3)
    assert event == ("3",)


def test_event_minmax_below_constrained():
    rng = random.Random(6042)
    for _ in range(40):
        inst = random_pooling(rng)
        eps_over, eps_under, event = check_event_minmax(
            inst.planner, inst.opinions
        )
        assert eps_over == eps_under
        constrained = pool_min_eps_normalized(inst, constrain_sum=True)
        assert eps_over <= constrained.epsilon_min
        # the reported event attains the upper-envelope slack
        mask_prob = lambda p: sum(
            (p.weights[i] for i in range(inst.space.size)
             if inst.space.labels[i] in event),
            F(0),
        )
        hi = max(mask_prob(q) for q in inst.opinions.members)
        assert 2 * (mask_prob(inst.planner) - hi) == eps_over


def test_event_checks_refuse_large_spaces(nielsen):
    space = PointSpace(labels=tuple(str(i) for i in range(13)))
    uniform = ProbVector(space=space, weights=(F(1, 13),) * 13)
    opinions = CredalSet((uniform,))
    with pytest.raises(CapExceededError):
        check_condition_CM(uniform, opinions, 0)
    with pytest.raises(CapExceededError):
        check_event_minmax(uniform, opinions)
    # the cap is a parameter, not a constant baked into the loop
    with pytest.raises(CapExceededError):
        check_condition_CM(nielsen.planner, nielsen.opinions, 0, max_points=2)
    required, _ = check_condition_CM(
        nielsen.planner, nielsen.opinions, 0, max_points=3
    )
    assert required == F(1, 3)


def test_planner_in_hull_trivializes_everything(three_space):
    members = (
        ProbVector(space=three_space, weights=(F(1, 2), F(1, 4), F(1, 4))),
        ProbVector(space=three_space, weights=(F(1, 4), F(1, 2), F(1, 4))),
    )
    planner = mixture((F(1, 2), F(1, 2)), CredalSet(members))
    inst = PoolingInstance(planner=planner, opinions=CredalSet(members))
    assert pool_min_eps_additive(inst).epsilon_min == 0
    assert pool_min_eps_genest(inst).epsilon_min == 0
    assert pool_min_eps_normalized(inst, True).epsilon_min == 0
    assert check_condition_C(inst, 0) is None
    assert check_condition_Cstar(inst, 0) is None
    required, _ = check_condition_CM(planner, inst.opinions, 0)
    assert required == 0
    eps_over, _, _ = check_event_minmax(planner, inst.opinions)
    assert eps_over == 0


def test_mismatched_spaces_rejected(nielsen):
    other = PointSpace(labels=("a", "b", "c"))
    planner = ProbVector(space=other, weights=(F(1, 3),) * 3)
    with pytest.raises(InputError):
        PoolingInstance(planner=planner, opinions=nielsen.opinions)
    with pytest.raises(InputError):
        check_condition_CM(planner, nielsen.opinions, 0)
    with pytest.raises(InputError):
        check_event_minmax(planner, nielsen.opinions)


def test_single_expert_levels_collapse(three_space):
    """With one opinion the additive level is plain L1 distance and the
    Genest level is one minus the worst likelihood ratio."""
    p = ProbVector(space=three_space, weights=(F(1, 2), F(1, 3), F(1, 6)))
    q = ProbVector(space=three_space, weights=(F(1, 4), F(1, 4), F(1, 2)))
    inst = PoolingInstance(planner=p, opinions=CredalSet((q,)))
    add = pool_min_eps_additive(inst)
    assert add.epsilon_min == sum(
        abs(a - b) for a, b in zip(p.weights, q.weights)
    )
    gen = pool_min_eps_genest(inst)
    best_scale = min(
        p.weights[x] / q.weights[x] for x in range(3) if q.weights[x] > 0
    )
    assert gen.epsilon_min == 1 - best_scale


# ---------------------------------------------------------------------------
# the additive level against the two-block set distance it was once
# computed with: P as a one-member credal set against the opinions


_DENOMS = st.integers(1, 1000)


@st.composite
def _pooling_draws(draw):
    """Instances on 1-8 points with 1-6 opinions, denominators up to
    1000, sometimes with a duplicated opinion, a planner equal to an
    opinion or a planner mixed from the opinions."""
    n = draw(st.integers(1, 8))
    space = PointSpace(labels=tuple(str(i) for i in range(n)))
    members = draw(
        st.lists(lattice_vectors(space, _DENOMS), min_size=1, max_size=6)
    )
    if len(members) < 6 and draw(st.booleans()):
        members.append(draw(st.sampled_from(members)))
    opinions = CredalSet(tuple(members))
    shape = draw(st.sampled_from(("free", "opinion", "mixed")))
    if shape == "opinion":
        planner = draw(st.sampled_from(members))
    elif shape == "mixed":
        planner = mixture(
            draw(lattice_vectors(PointSpace(
                labels=tuple(str(j) for j in range(len(members)))
            ), _DENOMS)).weights,
            opinions,
        )
    else:
        planner = draw(lattice_vectors(space, _DENOMS))
    return PoolingInstance(planner=planner, opinions=opinions)


@given(_pooling_draws())
@settings(max_examples=300, deadline=None)
def test_additive_fit_matches_set_distance_reference(inst):
    ref = min_set_distance(CredalSet((inst.planner,)), inst.opinions)
    q_mix = mixture(ref.q_weights, inst.opinions)
    ref_error = tuple(
        a - b for a, b in zip(inst.planner.weights, q_mix.weights)
    )
    report = pool_min_eps_additive(inst)
    assert report.kind == "additive" and report.sum_constrained is None
    assert report.epsilon_min == ref.value
    assert report.weights == ref.q_weights
    assert report.error.weights == ref_error
    wit = check_condition_C(inst, 0)
    if ref.value == 0:
        assert wit is None
    else:
        assert wit.f.values == tuple(-v for v in ref.stakes.values)


# ---------------------------------------------------------------------------
# the integer event kernel against the Fraction enumeration it replaced


def _brute_event_probabilities(p: ProbVector) -> list:
    n = p.space.size
    out = [F(0)] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        out[mask] = out[mask & (mask - 1)] + p.weights[low]
    return out


def _brute_labels(space, mask):
    return tuple(space.labels[i] for i in range(space.size) if mask >> i & 1)


def _brute_condition_CM(planner, opinions):
    """All 4^n event pairs in ``Fraction`` arithmetic, first pair kept."""
    p_ev = _brute_event_probabilities(planner)
    q_ev = [_brute_event_probabilities(q) for q in opinions.members]
    total = 1 << planner.space.size
    best = F(0)
    best_pair = (0, 0)
    for m1 in range(total):
        for m2 in range(total):
            if all(qe[m1] >= qe[m2] for qe in q_ev):
                gap = p_ev[m2] - p_ev[m1]
                if gap > best:
                    best = gap
                    best_pair = (m1, m2)
    space = planner.space
    return best, (_brute_labels(space, best_pair[0]),
                  _brute_labels(space, best_pair[1]))


def _brute_event_minmax(planner, opinions):
    """All 2^n events in ``Fraction`` arithmetic, first event kept."""
    p_ev = _brute_event_probabilities(planner)
    q_ev = [_brute_event_probabilities(q) for q in opinions.members]
    worst_over = worst_under = F(0)
    worst_mask = 0
    for mask in range(1 << planner.space.size):
        hi = max(qe[mask] for qe in q_ev)
        lo = min(qe[mask] for qe in q_ev)
        if p_ev[mask] - hi > worst_over:
            worst_over = p_ev[mask] - hi
            worst_mask = mask
        worst_under = max(worst_under, lo - p_ev[mask])
    return (2 * worst_over, 2 * worst_under,
            _brute_labels(planner.space, worst_mask))


def _coarse_prob(rng, space):
    """A lattice vector whose denominator is drawn from {2, 3, 4, 6, 12},
    so equal event weights, and ties in both scans, are common."""
    return random_prob_vector(rng, space, rng.choice((2, 3, 4, 6, 12)))


def test_event_kernel_matches_fraction_enumeration():
    rng = random.Random(20261018)
    positive = 0
    for _ in range(520):
        n = rng.randint(1, 6)
        space = PointSpace(labels=tuple(str(i) for i in range(n)))
        planner = _coarse_prob(rng, space)
        if rng.random() < 0.2:  # a planner inside the hull: level 0
            opinions = CredalSet((planner,))
        else:
            opinions = CredalSet(tuple(
                _coarse_prob(rng, space) for _ in range(rng.randint(1, 4))
            ))
        expected = _brute_condition_CM(planner, opinions)
        assert check_condition_CM(planner, opinions, 0) == expected
        assert check_event_minmax(planner, opinions) == _brute_event_minmax(
            planner, opinions
        )
        positive += expected[0] > 0
    assert positive >= 200  # many draws must exercise the pruned scan


def test_event_kernel_finishes_in_hull_at_eleven_points():
    """Inside the hull no gap is positive, so the pair scan cannot prune
    and compares about half of the 4^11 pairs."""
    rng = random.Random(11)
    space = PointSpace(labels=tuple(str(i) for i in range(11)))
    members = CredalSet(
        tuple(random_prob_vector(rng, space, 12) for _ in range(3))
    )
    planner = mixture((F(1, 2), F(1, 3), F(1, 6)), members)
    assert check_condition_CM(planner, members, 0) == (F(0), ((), ()))
    assert check_event_minmax(planner, members) == (F(0), F(0), ())
