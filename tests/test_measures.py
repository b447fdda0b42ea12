import dataclasses
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nrb.measures
from nrb import (
    CredalSet,
    InputError,
    InternalCheckError,
    PointSpace,
    ProbVector,
    SignedVector,
    StakesVector,
    expectation,
    hahn_split,
    kr_distance,
    l1_distance,
    mixture,
    oscillation,
)
from nrb.measures import (
    point_space_from_json,
    point_space_to_json,
    prob_vector_from_json,
    vector_to_json,
)
from nrb.simplex import INFEASIBLE, LpSolution, solve_lp


def _space(n):
    return PointSpace(labels=tuple(str(i) for i in range(n)))


def rationals(max_num=12, max_den=6):
    return st.builds(
        F,
        st.integers(min_value=0, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


@st.composite
def prob_vectors(draw, n=3, denom=24):
    cuts = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=denom),
                min_size=n - 1,
                max_size=n - 1,
            )
        )
    )
    parts = [b - a for a, b in zip([0] + cuts, cuts + [denom])]
    return ProbVector(_space(n), tuple(F(p, denom) for p in parts))


class TestPointSpace:
    def test_labels_must_be_distinct(self):
        with pytest.raises(InputError):
            PointSpace(labels=("a", "a"))

    def test_empty_space_rejected(self):
        with pytest.raises(InputError):
            PointSpace(labels=())

    def test_metric_must_be_symmetric(self):
        with pytest.raises(InputError):
            PointSpace(
                labels=("a", "b"),
                metric=((F(0), F(1)), (F(2), F(0))),
            )

    def test_metric_triangle_inequality_enforced(self):
        with pytest.raises(InputError):
            PointSpace(
                labels=("a", "b", "c"),
                metric=(
                    (F(0), F(1), F(5)),
                    (F(1), F(0), F(1)),
                    (F(5), F(1), F(0)),
                ),
            )

    def test_distance_lookup(self):
        sp = PointSpace(
            labels=("a", "b"), metric=((F(0), F(3)), (F(3), F(0)))
        )
        assert sp.distance("a", "b") == F(3)
        assert sp.distance("b", "b") == F(0)


class TestProbVector:
    def test_must_sum_to_one(self):
        with pytest.raises(InputError):
            ProbVector(_space(2), (F(1, 2), F(1, 3)))

    def test_no_negative_mass(self):
        with pytest.raises(InputError):
            ProbVector(_space(2), (F(3, 2), F(-1, 2)))

    def test_event_probability(self):
        p = ProbVector(_space(3), (F(1, 2), F(1, 3), F(1, 6)))
        assert p.event_probability(("0", "2")) == F(2, 3)
        assert p.event_probability(()) == 0


def test_l1_distance_worked_example():
    p = ProbVector(_space(3), (F(1, 2), F(1, 2), F(0)))
    q = ProbVector(_space(3), (F(0), F(1, 2), F(1, 2)))
    assert l1_distance(p, q) == 1


def test_l1_distance_disjoint_supports_is_two():
    p = ProbVector(_space(2), (F(1), F(0)))
    q = ProbVector(_space(2), (F(0), F(1)))
    assert l1_distance(p, q) == 2


@given(prob_vectors(), prob_vectors(), prob_vectors())
@settings(max_examples=60, deadline=None)
def test_l1_is_a_metric(p, q, r):
    assert l1_distance(p, q) == l1_distance(q, p)
    assert l1_distance(p, p) == 0
    assert l1_distance(p, q) <= l1_distance(p, r) + l1_distance(r, q)
    assert 0 <= l1_distance(p, q) <= 2


def test_stakes_norm_recomputed_not_trusted():
    f = StakesVector(_space(2), (F(1, 2), F(-2)), norm=F(99))
    assert f.norm == 2


def test_oscillation_and_expectation():
    sp = _space(3)
    f = StakesVector(sp, (F(1), F(0), F(-1)))
    p = ProbVector(sp, (F(1, 2), F(1, 4), F(1, 4)))
    assert oscillation(f) == 2
    assert expectation(f, p) == F(1, 4)


def test_hahn_split_reconstructs_and_is_disjoint():
    sp = _space(4)
    e = SignedVector(sp, (F(1, 3), F(0), F(-1, 2), F(1, 6)))
    pos, neg = hahn_split(e)
    assert all(v >= 0 for v in pos.weights)
    assert all(v >= 0 for v in neg.weights)
    assert all(
        p - n == v for p, n, v in zip(pos.weights, neg.weights, e.weights)
    )
    assert all(p * n == 0 for p, n in zip(pos.weights, neg.weights))
    assert e.l1_norm() == pos.total() + neg.total()


def test_mixture_weights_validated(nielsen):
    with pytest.raises(InputError):
        mixture((F(1, 2), F(1, 3)), nielsen.opinions)
    mixed = mixture((F(1, 2), F(1, 2)), nielsen.opinions)
    assert mixed.weights == (F(1, 2), F(1, 2), F(0))


class TestKrDistance:
    def test_needs_a_metric(self):
        sp = _space(2)
        p = ProbVector(sp, (F(1), F(0)))
        q = ProbVector(sp, (F(0), F(1)))
        with pytest.raises(InputError):
            kr_distance(p, q)

    def test_two_point_closed_form(self):
        # KR distance between point masses is min(d, 2): the stakes are
        # capped at unit sup norm as well as unit Lipschitz constant.
        for d in (F(1, 5), F(1), F(3), F(7, 2)):
            sp = PointSpace(
                labels=("a", "b"), metric=((F(0), d), (d, F(0)))
            )
            p = ProbVector(sp, (F(1), F(0)))
            q = ProbVector(sp, (F(0), F(1)))
            value, stakes = kr_distance(p, q)
            assert value == min(d, F(2))
            gap = expectation(stakes, p) - expectation(stakes, q)
            assert gap == value
            assert stakes.norm <= 1

    def test_harmonic_contrast(self, harmonic_space):
        """Point masses at 0 and 1/5 are metrically close but at full
        total variation distance."""
        weights = [F(0)] * 6
        weights[0] = F(1)
        delta0 = ProbVector(harmonic_space, tuple(weights))
        weights = [F(0)] * 6
        weights[5] = F(1)
        delta5 = ProbVector(harmonic_space, tuple(weights))
        value, _ = kr_distance(delta0, delta5)
        assert value == F(1, 5)
        assert l1_distance(delta0, delta5) == 2

    def test_bounded_by_l1(self):
        sp = PointSpace(
            labels=("a", "b", "c"),
            metric=(
                (F(0), F(2), F(2)),
                (F(2), F(0), F(4)),
                (F(2), F(4), F(0)),
            ),
        )
        p = ProbVector(sp, (F(1, 2), F(1, 2), F(0)))
        q = ProbVector(sp, (F(0), F(1, 2), F(1, 2)))
        value, _ = kr_distance(p, q)
        assert value <= l1_distance(p, q)

    def test_solver_failures_are_internal_checks(self, monkeypatch, harmonic_space):
        """A non-optimal metric program, or stakes that fail the
        substitution checks, is a defect: InternalCheckError, which the
        command line maps to exit 4, never InputError (exit 2)."""
        p = ProbVector(harmonic_space, (F(1),) + (F(0),) * 5)
        q = ProbVector(harmonic_space, (F(0),) * 5 + (F(1),))
        monkeypatch.setattr(
            nrb.measures, "solve_lp", lambda lp: LpSolution(status=INFEASIBLE)
        )
        with pytest.raises(InternalCheckError, match="metric program"):
            kr_distance(p, q)

        def doubled(lp):
            sol = solve_lp(lp)
            return dataclasses.replace(
                sol, primal=tuple(2 * v for v in sol.primal)
            )

        monkeypatch.setattr(nrb.measures, "solve_lp", doubled)
        with pytest.raises(InternalCheckError, match="metric stakes"):
            kr_distance(p, q)


def test_credal_set_requires_shared_space():
    p = ProbVector(_space(2), (F(1), F(0)))
    q = ProbVector(_space(3), (F(1), F(0), F(0)))
    with pytest.raises(InputError):
        CredalSet((p, q))
    with pytest.raises(InputError):
        CredalSet(())


def test_json_round_trips(harmonic_space):
    blob = point_space_to_json(harmonic_space)
    back = point_space_from_json(blob)
    assert back == harmonic_space
    p = ProbVector(harmonic_space, (F(1, 2), F(0), F(0), F(0), F(1, 6), F(1, 3)))
    assert prob_vector_from_json(back, vector_to_json(p.weights)) == p
