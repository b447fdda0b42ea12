"""Shared fixtures: the worked instances used across suites, plus
deterministic random generators (everything is seeded; reruns are
bit-identical)."""

import itertools
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import strategies as st

from nrb import (
    CredalSet,
    PointSpace,
    PoolingInstance,
    ProbVector,
    RumInstance,
    enumerate_menus,
    enumerate_orderings,
    instance_from_mixture,
)


@pytest.fixture
def default_digit_limit():
    """The interpreter's default limit for ``int``-string conversion."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


@pytest.fixture(scope="session")
def three_space():
    return PointSpace(labels=("1", "2", "3"))


@pytest.fixture(scope="session")
def nielsen(three_space):
    """Planner uniform on three states, two opinions that both assign
    zero to state 3."""
    planner = ProbVector(three_space, (F(1, 3), F(1, 3), F(1, 3)))
    q1 = ProbVector(three_space, (F(2, 3), F(1, 3), F(0)))
    q2 = ProbVector(three_space, (F(1, 3), F(2, 3), F(0)))
    return PoolingInstance(
        planner=planner, opinions=CredalSet((q1, q2))
    )


@pytest.fixture(scope="session")
def nielsen_sets(nielsen):
    p_set = CredalSet((nielsen.planner,))
    return p_set, nielsen.opinions


@pytest.fixture(scope="session")
def harmonic_space():
    """Six points on the line: 0, 1, 1/2, 1/3, 1/4, 1/5 with the
    absolute-difference metric."""
    points = [F(0), F(1), F(1, 2), F(1, 3), F(1, 4), F(1, 5)]
    labels = tuple(str(x) for x in points)
    metric = tuple(
        tuple(abs(a - b) for b in points) for a in points
    )
    return PointSpace(labels=labels, metric=metric)


def _sized_menu_instance():
    """Four alternatives; uniform choice except on three-element menus,
    where the lowest-numbered alternative gets 4/10 and the others 3/10."""
    alts = ("1", "2", "3", "4")
    table = {}
    for menu in enumerate_menus(alts):
        if len(menu) == 3:
            for i, y in enumerate(menu):
                table[(y, menu)] = F(4, 10) if i == 0 else F(3, 10)
        else:
            for y in menu:
                table[(y, menu)] = F(1, len(menu))
    return RumInstance(alternatives=alts, choice=table)


@pytest.fixture(scope="session")
def skewed_triples():
    return _sized_menu_instance()


@pytest.fixture(scope="session")
def skewed_triples_mixture():
    """A mixture over orderings known to approximate the skewed-triples
    instance with total error exactly 1/10: weight 1/20 on nine listed
    orderings, 2/20 on four, 3/20 on 1234 (best alternative first)."""
    small = {"1342", "2341", "3124", "3142", "3241",
             "4123", "4132", "4231", "4321"}
    double = {"1432", "2143", "2431", "3421"}
    triple = {"1234"}
    weights = []
    for ordering in enumerate_orderings(("1", "2", "3", "4")):
        name = "".join(ordering)
        if name in small:
            weights.append(F(1, 20))
        elif name in double:
            weights.append(F(2, 20))
        elif name in triple:
            weights.append(F(3, 20))
        else:
            weights.append(F(0))
    return tuple(weights)


def _warp_cycle_instance():
    """Deterministic choice with a classic pairwise reversal: 2 beats 1
    head to head, yet 1 is taken from the full menu."""
    table = {("1", ("1",)): 1, ("2", ("2",)): 1, ("3", ("3",)): 1,
             ("1", ("1", "2")): 0, ("2", ("1", "2")): 1,
             ("1", ("1", "3")): 1, ("3", ("1", "3")): 0,
             ("2", ("2", "3")): 1, ("3", ("2", "3")): 0,
             ("1", ("1", "2", "3")): 1, ("2", ("1", "2", "3")): 0,
             ("3", ("1", "2", "3")): 0}
    return RumInstance(alternatives=("1", "2", "3"), choice=table)


@pytest.fixture(scope="session")
def warp_cycle():
    return _warp_cycle_instance()


def random_prob_vector(rng: random.Random, space, denom: int = 24):
    """Uniformly chosen lattice distribution with the given denominator."""
    cuts = sorted(rng.randrange(denom + 1) for _ in range(space.size - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [denom])]
    return ProbVector(space, tuple(F(p, denom) for p in parts))


@st.composite
def lattice_vectors(draw, space, denoms):
    """Hypothesis strategy: a lattice distribution on *space* whose
    denominator is drawn from the strategy *denoms*."""
    denom = draw(denoms)
    cuts = sorted(
        draw(st.integers(0, denom)) for _ in range(space.size - 1)
    )
    parts = [b - a for a, b in zip([0] + cuts, cuts + [denom])]
    return ProbVector(space, tuple(F(p, denom) for p in parts))


def random_credal_set(rng: random.Random, space, max_members: int = 4,
                      denom: int = 24):
    count = rng.randrange(1, max_members + 1)
    return CredalSet(
        tuple(random_prob_vector(rng, space, denom) for _ in range(count))
    )


def random_pooling(rng: random.Random, n_points: int = 3,
                   n_opinions: int = 3, denom: int = 24):
    space = PointSpace(labels=tuple(str(i) for i in range(n_points)))
    planner = random_prob_vector(rng, space, denom)
    opinions = CredalSet(
        tuple(
            random_prob_vector(rng, space, denom)
            for _ in range(rng.randrange(1, n_opinions + 1))
        )
    )
    return PoolingInstance(planner=planner, opinions=opinions)


def random_rum(rng: random.Random, n_alternatives: int, denom: int = 20):
    """Fully random stochastic choice function (usually far from
    rationalizable)."""
    alts = tuple(str(i + 1) for i in range(n_alternatives))
    table = {}
    for menu in enumerate_menus(alts):
        k = len(menu)
        cuts = sorted(rng.randrange(denom + 1) for _ in range(k - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [denom])]
        for y, p in zip(menu, parts):
            table[(y, menu)] = F(p, denom)
    return RumInstance(alternatives=alts, choice=table)


def random_rationalizable_rum(rng: random.Random, n_alternatives: int,
                              denom: int = 20):
    alts = tuple(str(i + 1) for i in range(n_alternatives))
    n_ord = len(list(itertools.permutations(alts)))
    cuts = sorted(rng.randrange(denom + 1) for _ in range(n_ord - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [denom])]
    return instance_from_mixture(alts, tuple(F(p, denom) for p in parts))
