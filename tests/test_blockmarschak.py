"""Alternating-sum rationalizability diagnostics."""

import random
from fractions import Fraction as F

from nrb import (
    RumInstance,
    bm_negative_norm,
    bm_polynomials,
    hoffman_ratio,
    instance_from_mixture,
    rum_min_eps,
)
from tests.conftest import (
    _sized_menu_instance,
    _warp_cycle_instance,
    random_rationalizable_rum,
    random_rum,
)


def _bm_reference(inst):
    """The alternating superset sums by the signed loop over every
    subset of each menu's complement, kept as the test reference."""
    alts = inst.alternatives
    full = (1 << len(alts)) - 1
    index = {a: i for i, a in enumerate(alts)}
    prob = {}
    for (y, menu), p in inst.choice.items():
        mask = 0
        for a in menu:
            mask |= 1 << index[a]
        prob[(index[y], mask)] = p
    out = {}
    for y, menu in inst.pairs():
        mask = 0
        for a in menu:
            mask |= 1 << index[a]
        rest = full & ~mask
        total = F(0)
        sub = rest
        while True:
            sign = -1 if bin(sub).count("1") % 2 else 1
            total += sign * prob[(index[y], mask | sub)]
            if sub == 0:
                break
            sub = (sub - 1) & rest
        out[(y, menu)] = total
    return out


def _relabel(inst, names):
    """*inst* with its alternatives renamed position by position."""
    new = dict(zip(inst.alternatives, names))
    return RumInstance(
        alternatives=tuple(names),
        choice={
            (new[y], tuple(new[a] for a in menu)): p
            for (y, menu), p in inst.choice.items()
        },
    )


def test_polynomials_match_the_superset_loop():
    """Same keys, key order and exact values as the reference loop, for
    n = 1..6, with labels in and out of string order."""
    rng = random.Random(2718)
    names = ("z", "b", "10", "a", "2", "y")
    cases = [_warp_cycle_instance(), _sized_menu_instance()]
    for n in range(1, 7):
        for _ in range(3):
            inst = random_rum(rng, n, denom=rng.choice((1, 7, 20, 36)))
            cases += [inst, _relabel(inst, names[:n])]
        cases.append(random_rationalizable_rum(rng, min(n, 4)))
    for inst in cases:
        got, want = bm_polynomials(inst), _bm_reference(inst)
        assert list(got.items()) == list(want.items()), inst.alternatives
        assert all(type(v) is F for v in got.values())


def test_warp_cycle_polynomials(warp_cycle):
    k = bm_polynomials(warp_cycle)
    assert k[("2", ("2",))] == F(-1)
    assert k[("1", ("1", "2"))] == F(-1)
    assert k[("1", ("1",))] == F(1)
    assert k[("3", ("1", "3"))] == F(0)
    assert k[("1", ("1", "2", "3"))] == F(1)
    assert bm_negative_norm(warp_cycle) == F(2)


def test_warp_cycle_ratio(warp_cycle):
    # level and negative mass coincide here, so the quotient is one
    assert rum_min_eps(warp_cycle).epsilon_min == F(2)
    assert hoffman_ratio(warp_cycle) == F(1)


def test_ratio_none_when_rationalizable():
    rng = random.Random(52)
    inst = random_rationalizable_rum(rng, 3)
    assert bm_negative_norm(inst) == 0
    assert hoffman_ratio(inst) is None


def test_polynomials_telescope_to_one():
    """Summing K(y, Y) over the menus containing y collapses, by
    inclusion-exclusion, to the singleton probability, which is one."""
    rng = random.Random(808)
    for n in (3, 4):
        for _ in range(10):
            inst = random_rum(rng, n)
            k = bm_polynomials(inst)
            for y in inst.alternatives:
                total = sum(
                    (v for (alt, menu), v in k.items() if alt == y),
                    F(0),
                )
                assert total == 1


def test_mixture_polynomials_are_rank_marginals():
    """For a mixture of orderings, K(y, X) is the chance y is ranked
    first and K(y, {y}) the chance y is ranked last."""
    rng = random.Random(1234)
    for n in (3, 4):
        alts = tuple(str(i + 1) for i in range(n))
        inst = random_rationalizable_rum(rng, n)
        # recover the weights by re-solving; level zero makes them exact
        report = rum_min_eps(inst)
        assert report.epsilon_min == 0
        k = bm_polynomials(inst)
        full = tuple(inst.alternatives)
        for y in inst.alternatives:
            first = sum(
                (w for o, w in report.pi.items() if o[0] == y),
                F(0),
            )
            last = sum(
                (w for o, w in report.pi.items() if o[-1] == y),
                F(0),
            )
            assert k[(y, full)] == first
            assert k[(y, (y,))] == last
            assert first == inst.probability(y, full)


def test_nonnegativity_characterizes_level_zero():
    rng = random.Random(31415)
    for _ in range(30):
        if rng.random() < 0.5:
            inst = random_rum(rng, rng.choice((3, 4)))
        else:
            inst = random_rationalizable_rum(rng, rng.choice((3, 4)))
        norm = bm_negative_norm(inst)
        level = rum_min_eps(inst).epsilon_min
        assert (norm == 0) == (level == 0)
        ratio = hoffman_ratio(inst)
        if norm == 0:
            assert ratio is None
        else:
            assert ratio == level / norm


def test_negative_mass_bounds_the_distance_only_up_to_2_to_the_n_minus_1():
    """Each pair enters at most 2^(n-1) alternating sums with
    coefficient +1 or -1, so the additive distance is at least the
    negative mass over 2^(n-1).  The mass alone is no lower bound: the
    distance falls below it on some of these tables."""
    below = 0
    for n in (3, 4):
        for seed in range(40):
            inst = random_rum(random.Random(seed), n)
            distance = rum_min_eps(inst).epsilon_min
            mass = bm_negative_norm(inst)
            assert distance * 2 ** (n - 1) >= mass
            below += distance < mass
    assert below > 0
