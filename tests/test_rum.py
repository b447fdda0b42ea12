"""Random-utility approximation levels and tagged-trial certificates."""

import copy
import dataclasses
import itertools
import operator
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nrb import (
    CapExceededError,
    ChoiceMatrix,
    CredalSet,
    InputError,
    PointSpace,
    ProbVector,
    RumInstance,
    TaggedTrialSequence,
    bm_negative_norm,
    bm_polynomials,
    build_matrix,
    check_eps_arsp,
    check_eps_arsp_star,
    enumerate_menus,
    enumerate_orderings,
    evaluate_arsp,
    evaluate_arsp_star,
    hoffman_ratio,
    instance_from_mixture,
    max_alternatives,
    min_set_distance,
    parse_rational,
    rum_min_eps,
    rum_residual_min_eps,
)
from nrb import duality, rum
from nrb.errors import InternalCheckError
from nrb.simplex import EQUAL, LinearProgram, LpSolution, _int_row, solve_lp
from tests.conftest import random_rationalizable_rum, random_rum
from tests.test_duality import (
    _assert_same_program,
    _captured_programs,
    _reference_l1_program,
)


def _mixture_error(inst, weights):
    """L1 gap between the choice table and the mixture's predictions."""
    matrix = build_matrix(inst)
    total = F(0)
    for i, (y, menu) in enumerate(matrix.pairs):
        predicted = sum(
            (weights[j] for j in range(len(weights)) if matrix.rows[i][j]),
            F(0),
        )
        total += abs(inst.probability(y, menu) - predicted)
    return total


# ---------------------------------------------------------------------------
# the four-alternative instance skewed on three-element menus


def test_skewed_triples_min_eps(skewed_triples):
    report = rum_min_eps(skewed_triples)
    assert report.kind == "additive"
    assert report.epsilon_min == F(1, 10)
    weights = report.pi.values()
    assert sum(weights) == 1 and all(w >= 0 for w in weights)
    assert sum(abs(e) for e in report.error) == F(1, 10)
    matrix = build_matrix(skewed_triples)
    for i, (y, menu) in enumerate(matrix.pairs):
        predicted = sum(
            (report.pi.get(o, F(0)) for j, o in enumerate(matrix.orderings)
             if matrix.rows[i][j]),
            F(0),
        )
        assert predicted + report.error[i] == skewed_triples.probability(y, menu)


def test_skewed_triples_named_mixture_is_optimal(
    skewed_triples, skewed_triples_mixture
):
    assert sum(skewed_triples_mixture) == 1
    err = _mixture_error(skewed_triples, skewed_triples_mixture)
    assert err == F(1, 10) == rum_min_eps(skewed_triples).epsilon_min


def test_skewed_triples_uniform_mixture_error(skewed_triples):
    uniform = (F(1, 24),) * 24
    assert _mixture_error(skewed_triples, uniform) == F(8, 15)


def test_skewed_triples_tagged_certificates(skewed_triples):
    matrix = build_matrix(skewed_triples)
    cert = check_eps_arsp(skewed_triples, F(1, 20))
    assert cert is not None
    lhs, rhs = evaluate_arsp(skewed_triples, matrix, cert.tags, F(1, 20))
    assert lhs > rhs
    assert check_eps_arsp(skewed_triples, F(1, 10)) is None
    assert check_eps_arsp(skewed_triples, F(1)) is None


def test_skewed_triples_residual_level(skewed_triples):
    report = rum_residual_min_eps(skewed_triples)
    assert report.kind == "residual"
    assert report.epsilon_min == F(1, 40)
    eps = report.epsilon_min
    matrix = build_matrix(skewed_triples)
    assert sum(report.pi.values()) == 1
    # the residual splits into per-menu probability vectors
    for i, (y, menu) in enumerate(matrix.pairs):
        predicted = sum(
            (report.pi.get(o, F(0)) for j, o in enumerate(matrix.orderings)
             if matrix.rows[i][j]),
            F(0),
        )
        value = (1 - eps) * predicted + eps * report.residual[i]
        assert value == skewed_triples.probability(y, menu)


def test_skewed_triples_residual_certificates(skewed_triples):
    matrix = build_matrix(skewed_triples)
    cert = check_eps_arsp_star(skewed_triples, F(1, 50))
    assert cert is not None
    lhs, rhs = evaluate_arsp_star(skewed_triples, matrix, cert.tags, F(1, 50))
    assert lhs > rhs
    assert check_eps_arsp_star(skewed_triples, F(1, 40)) is None
    assert check_eps_arsp_star(skewed_triples, F(1)) is None


def test_star_check_decides_at_the_residual_level():
    """ArSP* holds exactly up to the residual level; below it the
    certificate read off the residual program's duals violates."""
    rng = random.Random(6060)
    violated = 0
    for _ in range(30):
        inst = random_rum(rng, 3)
        matrix = build_matrix(inst)
        level = rum_residual_min_eps(inst).epsilon_min
        levels = {level, min(level + F(1, 1000), F(1))}
        if level > 0:
            levels.add(level - min(level, F(1, 1000)))
        for eps in sorted(levels):
            cert = check_eps_arsp_star(inst, eps)
            assert (cert is None) == (level <= eps)
            if cert is not None:
                lhs, rhs = evaluate_arsp_star(inst, matrix, cert.tags, eps)
                assert lhs > rhs
                violated += 1
    assert violated > 0


# ---------------------------------------------------------------------------
# the deterministic pairwise-reversal instance


def test_warp_cycle_min_eps(warp_cycle):
    report = rum_min_eps(warp_cycle)
    assert report.epsilon_min == F(2)


def test_warp_cycle_certificates_up_to_the_level(warp_cycle):
    matrix = build_matrix(warp_cycle)
    for eps in (F(0), F(1), F(3, 2), F(199, 100)):
        cert = check_eps_arsp(warp_cycle, eps)
        assert cert is not None, f"expected a violation at eps={eps}"
        lhs, rhs = evaluate_arsp(warp_cycle, matrix, cert.tags, eps)
        assert lhs > rhs
    assert check_eps_arsp(warp_cycle, F(2)) is None
    assert check_eps_arsp(warp_cycle, F(3)) is None


def test_warp_cycle_residual_level(warp_cycle):
    report = rum_residual_min_eps(warp_cycle)
    assert report.epsilon_min == F(1)
    # all mass is residual, so no ordering weights are reported
    assert report.pi is None
    matrix = build_matrix(warp_cycle)
    for i, (y, menu) in enumerate(matrix.pairs):
        assert report.residual[i] == warp_cycle.probability(y, menu)
    cert = check_eps_arsp_star(warp_cycle, F(9, 10))
    assert cert is not None
    lhs, rhs = evaluate_arsp_star(warp_cycle, matrix, cert.tags, F(9, 10))
    assert lhs > rhs
    assert check_eps_arsp_star(warp_cycle, F(1)) is None


def test_level_bounds_between_variants(skewed_triples, warp_cycle):
    """The additive level is controlled by the residual level times
    2^(n+1) - 2 (mass eps of residual can move at most that much L1)."""
    for inst in (skewed_triples, warp_cycle):
        n = inst.n_alternatives
        additive = rum_min_eps(inst).epsilon_min
        residual = rum_residual_min_eps(inst).epsilon_min
        assert additive <= (2 ** (n + 1) - 2) * residual
    rng = random.Random(414)
    for _ in range(10):
        inst = random_rum(rng, 3)
        additive = rum_min_eps(inst).epsilon_min
        residual = rum_residual_min_eps(inst).epsilon_min
        assert additive <= 14 * residual


def test_additive_level_is_scaled_set_distance(warp_cycle):
    """Viewing choice tables over pairs as measures (total mass is the
    menu count), the additive level equals the menu count times the
    distance from the normalized table to the hull of normalized
    rational columns."""
    rng = random.Random(99)
    for inst in (warp_cycle, random_rum(rng, 3)):
        matrix = build_matrix(inst)
        n_menus = len(inst.menus())
        space = PointSpace(
            labels=tuple(f"{y}|{','.join(menu)}" for y, menu in matrix.pairs)
        )
        table = ProbVector(
            space=space,
            weights=tuple(
                inst.probability(y, menu) / n_menus
                for y, menu in matrix.pairs
            ),
        )
        columns = CredalSet(
            tuple(
                ProbVector(
                    space=space,
                    weights=tuple(
                        F(matrix.rows[i][j], n_menus)
                        for i in range(len(matrix.pairs))
                    ),
                )
                for j in range(len(matrix.orderings))
            )
        )
        dist = min_set_distance(CredalSet((table,)), columns).value
        assert rum_min_eps(inst).epsilon_min == n_menus * dist


def test_check_monotone_in_eps(skewed_triples):
    grid = [F(0), F(1, 40), F(1, 20), F(3, 40), F(1, 10), F(1, 5), F(2)]
    verdicts = [check_eps_arsp(skewed_triples, e) is None for e in grid]
    # once the condition holds it keeps holding at looser slack
    first_hold = verdicts.index(True)
    assert all(verdicts[first_hold:])
    assert not any(verdicts[:first_hold])


# ---------------------------------------------------------------------------
# rationalizable instances and the matrix itself


def test_instance_needs_an_alternative():
    with pytest.raises(InputError, match="^need at least one alternative$"):
        RumInstance(alternatives=(), choice={})


def test_mixture_round_trip():
    rng = random.Random(2718)
    for n in (2, 3, 4):
        inst = random_rationalizable_rum(rng, n)
        assert rum_min_eps(inst).epsilon_min == 0
        assert rum_residual_min_eps(inst).epsilon_min == 0
        assert check_eps_arsp(inst, 0) is None
        assert check_eps_arsp_star(inst, 0) is None


def test_mixture_probabilities_explicit():
    # two alternatives, weight 3/4 on "a best" and 1/4 on "b best"
    inst = instance_from_mixture(("a", "b"), (F(3, 4), F(1, 4)))
    assert inst.probability("a", ("a", "b")) == F(3, 4)
    assert inst.probability("b", ("a", "b")) == F(1, 4)
    assert inst.probability("a", ("a",)) == 1


def test_mixture_over_int_alternatives_keys_them_as_strings():
    """Alternatives are converted with ``str`` before the table is laid
    out, as ``RumInstance`` converts them."""
    got = instance_from_mixture((1, 2), ["1", "0"])
    assert got == instance_from_mixture(("1", "2"), ["1", "0"])
    assert got.probability("1", ("1", "2")) == 1


def _mixture_reference(alternatives, weights):
    """The choice table of a mixture as first written: the menus
    enumerated again and a ``Fraction`` added per menu, for every
    weighted ordering."""
    alts = tuple(alternatives)
    table = {}
    for menu in enumerate_menus(alts):
        for y in menu:
            table[(y, menu)] = F(0)
    for weight, ordering in zip(weights, enumerate_orderings(alts)):
        if not weight:
            continue
        rank = {a: i for i, a in enumerate(ordering)}
        for menu in enumerate_menus(alts):
            table[(min(menu, key=rank.__getitem__), menu)] += weight
    return table


def _assert_mixture_matches_reference(alternatives, weights):
    inst = instance_from_mixture(alternatives, weights)
    assert inst.alternatives == tuple(alternatives)
    want = _mixture_reference(alternatives, weights)
    assert list(inst.choice.items()) == list(want.items())
    assert all(type(p) is F for p in inst.choice.values())


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=5))
def test_mixture_table_matches_reference(data, n):
    """Weights of unlike denominators on a few orderings, zeros
    elsewhere, over labels in and out of string order."""
    labels = data.draw(st.permutations("edcba"[:n]))
    n_ord = len(enumerate_orderings(labels))
    support = data.draw(st.lists(
        st.integers(min_value=0, max_value=n_ord - 1),
        min_size=1, max_size=min(n_ord, 8), unique=True,
    ))
    raw = data.draw(st.lists(
        st.fractions(min_value=F(1, 12), max_value=3, max_denominator=12),
        min_size=len(support), max_size=len(support),
    ))
    total = sum(raw)
    weights = [F(0)] * n_ord
    for j, v in zip(support, raw):
        weights[j] = v / total
    _assert_mixture_matches_reference(labels, weights)


def test_uniform_mixture_matches_reference_at_six():
    labels = ("f", "b", "d", "a", "e", "c")
    n_ord = len(enumerate_orderings(labels))
    _assert_mixture_matches_reference(labels, [F(1, n_ord)] * n_ord)


def test_mixture_weights_validated():
    for weights in ((F(1),), (F(3, 2), F(-1, 2)), (F(1, 2), F(1, 3))):
        with pytest.raises(InputError):
            instance_from_mixture(("a", "b"), weights)


def test_matrix_shape_and_column_sums(skewed_triples):
    matrix = build_matrix(skewed_triples)
    n = skewed_triples.n_alternatives
    assert len(matrix.orderings) == 24
    assert len(matrix.pairs) == sum(
        len(menu) for menu in skewed_triples.menus()
    )
    # every ordering picks exactly one alternative per menu
    for j in range(len(matrix.orderings)):
        assert sum(matrix.rows[i][j] for i in range(len(matrix.pairs))) == (
            2**n - 1
        )
    # orderings are read best alternative first
    idx = matrix.orderings.index(("2", "1", "3", "4"))
    row = matrix.pairs.index(("2", ("1", "2", "3", "4")))
    assert matrix.rows[row][idx] == 1


def test_menu_enumeration_order():
    menus = enumerate_menus(("1", "2", "3"))
    assert menus == (
        ("1",), ("2",), ("3",),
        ("1", "2"), ("1", "3"), ("2", "3"),
        ("1", "2", "3"),
    )


def _reference_matrix(inst):
    """The rank-lookup builder: each ordering's favorite on each menu by
    ``min(menu, key=rank)``."""
    orderings = enumerate_orderings(inst.alternatives)
    rank = [
        {a: i for i, a in enumerate(ordering)} for ordering in orderings
    ]
    rows = []
    for y, menu in inst.pairs():
        rows.append(tuple(
            1 if min(menu, key=r.__getitem__) == y else 0 for r in rank
        ))
    return inst.pairs(), orderings, tuple(rows)


def _relabelled_rum(rng, labels):
    """A random table over *labels*, listed in that order."""
    base = random_rum(rng, len(labels))
    name = dict(zip(base.alternatives, labels))
    table = {
        (name[y], tuple(name[a] for a in menu)): p
        for (y, menu), p in base.choice.items()
    }
    return RumInstance(alternatives=tuple(labels), choice=table)


@pytest.mark.parametrize("labels", [
    ("a",), ("b", "a"), ("1", "2", "3"), ("z", "x", "y", "w"),
    ("c", "a", "b", "e", "d"), ("f", "b", "d", "a", "e", "c"),
])
def test_block_builder_matches_rank_lookup(labels):
    """Position order and string order differ for most label lists; the
    matrix must follow positions, as ``enumerate_orderings`` does."""
    inst = _relabelled_rum(random.Random(len(labels)), labels)
    matrix = build_matrix(inst)
    pairs, orderings, rows = _reference_matrix(inst)
    assert matrix.pairs == pairs
    assert matrix.orderings == orderings
    assert matrix.rows == rows
    assert all(
        type(row) is tuple and all(type(v) is int for v in row)
        for row in matrix.rows
    )


def _scan_best(matrix, t):
    """Best-ordering total by a scan of every column."""
    return max(
        sum(t[i] for i in range(len(t)) if matrix.rows[i][j])
        for j in range(len(matrix.orderings))
    )


def _reference_sides(inst, matrix, t, eps):
    """Both inequalities' sides with the best-ordering term scanned."""
    p0 = [inst.probability(y, menu) for y, menu in matrix.pairs]
    lhs = sum((p0[i] * t[i] for i in range(len(t))), F(0))
    best = _scan_best(matrix, t)
    arsp = (lhs, best + F(max(t) - min(t)) * eps / 2)
    n_menus = (1 << inst.n_alternatives) - 1
    star = (lhs, (1 - eps) * best + n_menus * eps * max(t))
    return arsp, star


_SCAN_INSTANCES = {
    n: _relabelled_rum(random.Random(100 + n), labels)
    for n, labels in enumerate(
        [("a",), ("b", "a"), ("c", "a", "b"), ("d", "b", "a", "c"),
         ("c", "a", "b", "e", "d")],
        start=1,
    )
}
_SCAN_MATRICES = {n: build_matrix(inst) for n, inst in _SCAN_INSTANCES.items()}


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=5),
    eps=st.sampled_from([F(0), F(1, 10), F(1, 2), F(3, 7), F(1)]),
)
def test_subset_dp_matches_column_scan(data, n, eps):
    inst, matrix = _SCAN_INSTANCES[n], _SCAN_MATRICES[n]
    m = len(matrix.pairs)
    kind = data.draw(st.sampled_from(["zero", "constant", "free"]))
    if kind == "zero":
        t = [0] * m
    elif kind == "constant":
        t = [data.draw(st.integers(min_value=1, max_value=50))] * m
    else:
        t = data.draw(st.lists(
            st.integers(min_value=0, max_value=50), min_size=m, max_size=m
        ))
    arsp, star = _reference_sides(inst, matrix, t, eps)
    assert evaluate_arsp(inst, matrix, t, eps) == arsp
    assert evaluate_arsp_star(inst, matrix, t, eps) == star


def test_best_ordering_total_of_a_column_at_seven():
    """Tags equal to one ordering's column score one per menu: 127."""
    inst = random_rum(random.Random(7), 7)
    matrix = build_matrix(inst)
    for j in (0, 1234, 5039):
        t = [row[j] for row in matrix.rows]
        assert evaluate_arsp(inst, matrix, t, 0)[1] == 127
        assert evaluate_arsp_star(inst, matrix, t, 0)[1] == 127
        assert evaluate_arsp(inst, matrix, t, 1) == (
            evaluate_arsp(inst, matrix, t, 0)[0], F(255, 2)
        )


def _lazy_instances():
    """Tables at n = 3..6 over labels out of string order, and an n=7
    mixture over three orderings."""
    labels = ("g", "c", "a", "f", "b", "e", "d")
    insts = [_relabelled_rum(random.Random(n), labels[:n]) for n in range(3, 7)]
    weights = [F(0)] * 5040
    weights[0], weights[1234], weights[5039] = F(1, 2), F(1, 3), F(1, 6)
    insts.append(instance_from_mixture(labels, weights))
    return insts


@pytest.mark.parametrize("inst", _lazy_instances(),
                         ids=lambda inst: f"n{inst.n_alternatives}")
def test_scoring_builds_no_rows(inst):
    """Scoring reads only the pairs: the rows are built on their first
    read, equal to the rank lookup's, and kept."""
    matrix = build_matrix(inst)
    t = [i % 5 for i in range(len(matrix.pairs))]
    evaluate_arsp(inst, matrix, t, F(1, 3))
    evaluate_arsp_star(inst, matrix, t, F(1, 3))
    assert "rows" not in vars(matrix)
    rows = matrix.rows
    assert rows == _reference_matrix(inst)[2]
    assert all(
        type(row) is tuple and all(type(v) is int for v in row)
        for row in rows
    )
    assert matrix.rows is rows


# ---------------------------------------------------------------------------
# validation and caps


def test_incomplete_table_lists_missing_pairs():
    with pytest.raises(InputError, match="missing"):
        RumInstance(
            alternatives=("1", "2"),
            choice={("1", ("1",)): 1, ("2", ("2",)): 1},
        )


def test_bad_menu_sum_rejected():
    with pytest.raises(InputError, match="sum"):
        RumInstance(
            alternatives=("1", "2"),
            choice={
                ("1", ("1",)): 1,
                ("2", ("2",)): 1,
                ("1", ("1", "2")): F(1, 2),
                ("2", ("1", "2")): F(1, 3),
            },
        )


def test_unknown_and_duplicate_entries_rejected():
    with pytest.raises(InputError, match="unknown"):
        RumInstance(alternatives=("1",), choice={("2", ("2",)): 1})
    with pytest.raises(InputError, match="duplicate"):
        RumInstance(
            alternatives=("1", "2"),
            choice={
                ("1", ("1",)): 1,
                ("2", ("2",)): 1,
                ("1", ("1", "2")): F(1, 2),
                ("1", ("2", "1")): F(1, 2),
                ("2", ("1", "2")): F(1, 2),
            },
        )
    with pytest.raises(InputError):
        RumInstance(alternatives=("1",), choice={("1", ("1",)): 0.5})


def _validate_reference(alternatives, choice):
    """The key-by-key validator that ``RumInstance`` ran before its
    one-pass rewrite, kept as the test reference: returns the
    alternatives and the canonical table, or raises what it raised."""
    alts = tuple(str(a) for a in alternatives)
    if not alts:
        raise InputError("need at least one alternative")
    if len(set(alts)) != len(alts):
        raise InputError("alternatives must be distinct")
    order = {a: i for i, a in enumerate(alts)}
    table = {}
    for key, value in dict(choice).items():
        try:
            y, menu = key
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad choice key {key!r}") from exc
        menu = tuple(menu)
        if any(a not in order for a in menu) or y not in order:
            raise InputError(f"unknown alternative in {key!r}")
        if len(set(menu)) != len(menu):
            raise InputError(f"menu {menu!r} repeats an alternative")
        canon = tuple(sorted(menu, key=order.__getitem__))
        if y not in canon:
            raise InputError(f"{y!r} is not on the menu {menu!r}")
        prob = parse_rational(value)
        if prob < 0:
            raise InputError(f"negative probability at {key!r}")
        if (y, canon) in table:
            raise InputError(f"duplicate entry for {(y, canon)!r}")
        table[(y, canon)] = prob
    missing = []
    for menu in enumerate_menus(alts):
        total = F(0)
        for y in menu:
            if (y, menu) not in table:
                missing.append((y, menu))
            else:
                total += table[(y, menu)]
        if not missing and total != 1:
            raise InputError(
                f"choice probabilities on menu {menu!r} sum to {total}"
            )
    if missing:
        raise InputError(f"missing choice entries: {missing}")
    expected = sum(len(menu) for menu in enumerate_menus(alts))
    if len(table) != expected:
        extras = set(table) - {
            (y, m) for m in enumerate_menus(alts) for y in m
        }
        raise InputError(f"unexpected choice entries: {sorted(extras)}")
    return alts, table


def _outcome(validate):
    """What a validator returned, or the type and message it raised."""
    try:
        alts, table = validate()
    except Exception as exc:  # the comparison covers every exception
        return type(exc), str(exc)
    assert all(type(p) is F for p in table.values())
    return alts, list(table.items())


def _spell(draw, p):
    """One accepted spelling of the probability *p*."""
    spellings = ["str", "fraction", "unreduced", "padded"]
    if p.denominator == 1:
        spellings.append("int")
    if 10**6 % p.denominator == 0:
        spellings.append("decimal")
    how = draw(st.sampled_from(spellings))
    if how == "str":
        return str(p)
    if how == "fraction":
        return p
    if how == "unreduced":
        k = draw(st.integers(2, 4))
        return f"{p.numerator * k}/{p.denominator * k}"
    if how == "padded":
        return f" {p} "
    if how == "int":
        return int(p)
    scaled = str(p.numerator * 10**6 // p.denominator).rjust(7, "0")
    return f"{scaled[:-6]}.{scaled[-6:]}".rstrip("0").rstrip(".")


_CORRUPTIONS = (
    None, "drop", "negative", "sum", "duplicate", "unknown", "repeat",
    "off-menu", "float", "list", "not-a-pair",
)
_NOT_PAIRS = (7, None, "abc", "ab", "aa", ("a",), ("a", ("a",), 0),
              ("a", 5))


@st.composite
def _choice_tables(draw, canonical=False):
    """Alternatives and a list of (key, value) entries: a valid table
    with its keys shuffled, menus permuted and values spelled several
    ways, carrying at most one corruption.  With *canonical* the keys
    are the pairs in ``pairs()`` order, menus as enumerated, before the
    corruption."""
    n = draw(st.integers(1, 4))
    alts = tuple(draw(st.permutations(("a", "b", "c", "d")))[:n])
    entries = []
    for menu in enumerate_menus(alts):
        denom = draw(st.sampled_from((1, 2, 3, 5, 12, 20)))
        cuts = sorted(
            draw(st.integers(0, denom)) for _ in range(len(menu) - 1)
        )
        parts = [b - a for a, b in zip([0] + cuts, cuts + [denom])]
        for y, part in zip(menu, parts):
            given = menu if canonical else tuple(draw(st.permutations(menu)))
            entries.append([(y, given), _spell(draw, F(part, denom))])
    if not canonical:
        entries = draw(st.permutations(entries))
    corruption = draw(st.sampled_from(_CORRUPTIONS))
    i = draw(st.integers(0, len(entries) - 1))
    (y, menu), value = entries[i]
    added = None
    if corruption == "drop":
        del entries[i]
    elif corruption == "negative":
        entries[i][1] = draw(st.sampled_from(("-1/3", F(-1, 2), -1, "-0.5")))
    elif corruption == "sum":
        p = parse_rational(value)
        entries[i][1] = draw(st.sampled_from((p + F(1, 7), p / 2, p * 0)))
    elif corruption == "duplicate" and len(menu) > 1:
        added = ((y, menu[::-1]), value)
    elif corruption == "unknown":
        added = draw(st.sampled_from(
            ((("z", menu), value), ((y, menu + ("z",)), value))
        ))
    elif corruption == "repeat":
        added = ((y, menu + (y,)), value)
    elif corruption == "off-menu" and len(menu) < n:
        outside = next(a for a in alts if a not in menu)
        added = ((outside, menu), value)
    elif corruption == "float":
        entries[i][1] = float(parse_rational(value))
    elif corruption == "list":
        entries[i][1] = [value]
    elif corruption == "not-a-pair":
        added = (draw(st.sampled_from(_NOT_PAIRS)), value)
    if added is not None:
        entries.insert(draw(st.integers(0, len(entries))), list(added))
    return alts, [tuple(entry) for entry in entries]


@settings(max_examples=400, deadline=None)
@given(_choice_tables())
def test_validation_matches_reference(drawn):
    """The constructor accepts and rejects exactly as the reference
    does, with the same exception type and message, and keeps the
    table in the same order with ``Fraction`` values."""
    alts, entries = drawn

    def built():
        inst = RumInstance(alternatives=alts, choice=dict(entries))
        return inst.alternatives, inst.choice

    want = _outcome(lambda: _validate_reference(alts, dict(entries)))
    assert _outcome(built) == want


@settings(max_examples=400, deadline=None)
@given(_choice_tables(canonical=True))
def test_tables_in_pairs_order_validate_as_the_reference_does(drawn):
    """Tables keyed by the pairs in ``pairs()`` order, read by position,
    carrying the same corruptions: the constructor accepts and rejects
    exactly as the reference does, message for message."""
    alts, entries = drawn

    def built():
        inst = RumInstance(alternatives=alts, choice=dict(entries))
        return inst.alternatives, inst.choice

    want = _outcome(lambda: _validate_reference(alts, dict(entries)))
    assert _outcome(built) == want


def test_only_tables_in_pairs_order_are_read_by_position(monkeypatch):
    """A table whose keys are the layout's pairs in order skips the
    key-by-key reader and is keyed by the layout's own pairs; the same
    table in another key order or with a menu respelled takes it."""
    seen = []
    reader = rum._read_keys

    def counted(*args):
        seen.append(args[0].alternatives)
        return reader(*args)

    monkeypatch.setattr(rum, "_read_keys", counted)
    base = random_rum(random.Random(3), 4)
    alts, pairs = base.alternatives, base.pairs()
    table = {(y, tuple(menu)): str(p) for (y, menu), p in base.choice.items()}
    inst = RumInstance(alternatives=alts, choice=table)
    assert seen == [] and inst == base
    assert all(a is b for a, b in zip(inst.choice, pairs))
    last = list(table.items())
    respelled = dict(last[:-1] + [((last[-1][0][0], alts[::-1]), last[-1][1])])
    for other in (dict(last[::-1]), respelled):
        assert RumInstance(alternatives=alts, choice=other) == base
    assert seen == [alts, alts]


def _spellings(base):
    """The table of *base* as strings keyed in ``pairs()`` order, in the
    reverse key order, shuffled, and with its last menu respelled."""
    alts = base.alternatives
    items = [((y, tuple(menu)), str(p)) for (y, menu), p in base.choice.items()]
    shuffled = items[:]
    random.Random(len(items)).shuffle(shuffled)
    (y, _), value = items[-1]
    respelled = items[:-1] + [((y, alts[::-1]), value)]
    return [dict(items), dict(items[::-1]), dict(shuffled), dict(respelled)]


@pytest.mark.parametrize("n", [1, 3, 5])
def test_choice_reads_as_the_dict_it_replaced(n):
    """``choice`` of a canonical, a reordered and a respelled table equals
    the reference's dict both ways and reads as that dict does: items in
    the same order, the same repr, ``len``, ``in``, ``get`` and ``dict``.
    It is read only and, as a dict is, unhashable."""
    base = random_rum(random.Random(n), n)
    absent = ("x", ("x",))
    for table in _spellings(base):
        inst = RumInstance(alternatives=base.alternatives, choice=table)
        alts, want = _validate_reference(base.alternatives, table)
        choice = inst.choice
        assert choice == want and want == choice
        assert not choice != want and not want != choice
        assert list(choice.items()) == list(want.items())
        assert list(choice) == list(want)
        assert list(choice.values()) == list(want.values())
        assert dict(choice) == want and list(dict(choice)) == list(want)
        assert repr(choice) == repr(want)
        assert repr(inst) == (
            f"RumInstance(alternatives={alts!r}, choice={want!r})"
        )
        assert len(choice) == len(want)
        for pair, p in want.items():
            assert pair in choice and choice.get(pair) == choice[pair] == p
        assert absent not in choice and choice.get(absent, 7) == 7
        with pytest.raises(KeyError):
            choice[absent]
        other = dict(want)
        other[pair] += 1
        assert choice != other and other != choice
        with pytest.raises(TypeError):
            hash(choice)
        with pytest.raises(TypeError):
            choice[pair] = F(0)


def test_copies_keep_the_table_and_its_key_order():
    """A pickle round trip, ``copy.deepcopy`` and ``dataclasses.replace``
    of an instance built from each spelling give an equal instance with
    the same items in the same order; ``choice`` alone pickles and copies
    as the dict it reads as."""
    base = random_rum(random.Random(4), 4)
    for table in _spellings(base):
        inst = RumInstance(alternatives=base.alternatives, choice=table)
        for copied in (
            pickle.loads(pickle.dumps(inst)),
            copy.deepcopy(inst),
            dataclasses.replace(inst),
        ):
            assert copied == inst and repr(copied) == repr(inst)
            assert list(copied.choice.items()) == list(inst.choice.items())
            assert copied._nums == inst._nums and copied._den == inst._den
        for copied in (pickle.loads(pickle.dumps(inst.choice)),
                       copy.deepcopy(inst.choice)):
            assert type(copied) is dict
            assert list(copied.items()) == list(inst.choice.items())


_VIEW_FAULTS = [None, "-1/3", "1/7", "x/y", 0.5, [1]]


@pytest.mark.parametrize("fault", _VIEW_FAULTS)
def test_views_off_the_layout_or_its_order_are_read_key_by_key(
    monkeypatch, fault
):
    """A ``rum._Table`` over the alternatives' layout in ``pairs()`` order
    is read by position; one in another key order, or over the layout of
    the alternatives in another list order, is read key by key.  Each
    validates to the reference's table, or fails with its message when
    the value of one pair is corrupted."""
    seen = []
    reader = rum._read_keys

    def counted(*args):
        seen.append(args[0].alternatives)
        return reader(*args)

    monkeypatch.setattr(rum, "_read_keys", counted)
    base = random_rum(random.Random(5), 3)
    alts = base.alternatives
    layout, flipped = rum._layout(alts), rum._layout(alts[::-1])
    values = [str(p) for p in base.choice.values()]
    if fault is not None:
        values[-2] = fault
    canon = {pair: values[i] for i, pair in enumerate(layout.pairs)}
    order = tuple(random.Random(2).sample(range(len(values)), len(values)))
    views = [
        rum._Table(layout, tuple(values)),
        rum._Table(layout, tuple(values), order),
        rum._Table(flipped, tuple(
            canon[y, layout.by_mask[sum(layout.bit[a] for a in menu)]]
            for y, menu in flipped.pairs
        )),
    ]
    for view in views:

        def built():
            inst = RumInstance(alternatives=alts, choice=view)
            return inst.alternatives, inst.choice

        want = _outcome(lambda: _validate_reference(alts, dict(view)))
        assert _outcome(built) == want
    assert seen == [alts, alts]


_PAIR_TABLE = {
    ("a", ("a",)): 1, ("b", ("b",)): 1,
    ("a", ("a", "b")): "1/2", ("b", ("a", "b")): "1/2",
}


@pytest.mark.parametrize("changes", [
    # a menu lacking a pair hides a bad sum on a later menu
    {("b", ("b",)): None, ("a", ("a", "b")): "1/3"},
    # a bad sum on an earlier menu fires before a later missing pair
    {("a", ("a",)): "2/3", ("b", ("a", "b")): None},
    # the first bad key fires, in key order
    {("a", ("a",)): -1, ("z", ("a",)): 1},
    {("b", ("b", "a")): "1/2", ("b", ("b",)): 0.5},
])
def test_two_faults_fire_in_reference_order(changes):
    table = dict(_PAIR_TABLE)
    for key, value in changes.items():
        if value is None:
            del table[key]
        else:
            table[key] = value

    def built():
        inst = RumInstance(alternatives=("a", "b"), choice=table)
        return inst.alternatives, inst.choice

    want = _outcome(lambda: _validate_reference(("a", "b"), table))
    assert type(want[0]) is type and _outcome(built) == want


def test_validation_matches_reference_at_seven():
    """A random n=7 table, given as ``Fraction`` values and as strings,
    validates to the reference's table."""
    base = random_rum(random.Random(3), 7)
    for table in (
        dict(base.choice),
        {key: str(p) for key, p in base.choice.items()},
    ):
        inst = RumInstance(alternatives=base.alternatives, choice=table)
        alts, want = _validate_reference(base.alternatives, table)
        assert inst.alternatives == alts
        assert list(inst.choice.items()) == list(want.items())
        assert all(type(p) is F for p in inst.choice.values())


def _assert_integer_table(inst):
    """The instance's integer table: one numerator per pair, the pairs
    in enumeration order, each pair's numerator over the common
    denominator its probability and its mask its menu's bitmask."""
    alts = inst.alternatives
    bit = {a: 1 << i for i, a in enumerate(alts)}
    assert list(inst._masks) == [
        (y, menu) for menu in enumerate_menus(alts) for y in menu
    ]
    assert type(inst._den) is int and inst._den > 0
    assert type(inst._nums) is tuple
    assert len(inst._nums) == len(inst.choice) == len(inst._masks)
    for ((y, menu), mask), num in zip(inst._masks.items(), inst._nums):
        assert mask == sum(bit[a] for a in menu)
        assert type(num) is int and F(num, inst._den) == inst.choice[y, menu]


def _hash_outcome(inst):
    try:
        return hash(inst)
    except TypeError as exc:  # the choice mapping is a dict
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(_choice_tables(), st.data())
def test_integer_table_matches_the_choice_table(drawn, data):
    """On every valid drawn table the integer table reads back the
    probabilities, and the same table spelled differently (menus
    permuted, values respelled, same key order) compares and hashes
    equal and has the same repr."""
    alts, entries = drawn
    try:
        inst = RumInstance(alternatives=alts, choice=dict(entries))
    except (InputError, TypeError):  # a corrupted draw: nothing to read
        assume(False)
    _assert_integer_table(inst)
    respelled = {
        (y, tuple(data.draw(st.permutations(menu)))):
            _spell(data.draw, parse_rational(value))
        for (y, menu), value in dict(entries).items()
    }
    other = RumInstance(alternatives=alts, choice=respelled)
    assert other == inst
    assert _hash_outcome(other) == _hash_outcome(inst)
    assert repr(other) == repr(inst)
    assert (other._den, other._nums, other._masks) == (
        inst._den, inst._nums, inst._masks
    )


def test_integer_table_of_mixtures_with_mixed_denominators():
    """``instance_from_mixture`` tables at n = 1..5, weights over
    denominators 1 to 12 on a few orderings."""
    for n in range(1, 6):
        alts = tuple("edcba"[:n])
        n_ord = len(enumerate_orderings(alts))
        for seed in range(4):
            rng = random.Random(100 * n + seed)
            raw = [F(0)] * n_ord
            for j in rng.sample(range(n_ord), min(n_ord, 5)):
                raw[j] = F(rng.randrange(1, 10), rng.choice((1, 2, 3, 5, 7, 12)))
            total = sum(raw)
            _assert_integer_table(
                instance_from_mixture(alts, [w / total for w in raw])
            )


def _bm_polynomials_reference(inst):
    """``bm_polynomials`` as it was before the instance kept its integer
    table: mask sums over the pairs and one ``_int_row`` over them."""
    bit = {a: 1 << i for i, a in enumerate(inst.alternatives)}
    size = 1 << len(bit)
    pairs = [(y, menu) for menu in enumerate_menus(inst.alternatives)
             for y in menu]
    masks = [sum(map(bit.__getitem__, menu)) for _, menu in pairs]
    nums, den = _int_row([inst.choice[pair] for pair in pairs])
    k = {a: [0] * size for a in bit}
    for (y, _), mask, num in zip(pairs, masks, nums):
        k[y][mask] = num
    for row in k.values():
        for b in bit.values():
            for r in range(size):
                if not r & b:
                    row[r] -= row[r | b]
    return {
        (y, menu): F(k[y][mask], den)
        for (y, menu), mask in zip(pairs, masks)
    }


def _dot(ints, values):
    """``ints . values`` in ``Fraction`` arithmetic."""
    return sum((a * v for a, v in zip(ints, values)), F(0))


def _evaluate_reference(inst, matrix, tags, eps, star):
    """``evaluate_arsp`` / ``evaluate_arsp_star`` as they were: the
    observed total by ``_dot`` over the looked-up probabilities, and the
    subset DP on mask sums of the matrix's pairs."""
    tol = parse_rational(eps)
    t = list(tags)
    lhs = _dot(t, [inst.choice[pair] for pair in matrix.pairs])
    bit = {a: 1 << i for i, a in enumerate(inst.alternatives)}
    size = 1 << len(bit)
    w = {a: [0] * size for a in bit}
    for (y, menu), tag in zip(matrix.pairs, t):
        w[y][sum(map(bit.__getitem__, menu))] += tag
    for row in w.values():
        for b in bit.values():
            for r in range(size):
                if r & b:
                    row[r] += row[r ^ b]
    value = [0] * size
    for r in range(1, size):
        value[r] = max(
            w[a][r] + value[r ^ b] for a, b in bit.items() if r & b
        )
    best = value[-1]
    if star:
        return lhs, (1 - tol) * best + (size - 1) * tol * max(t)
    return lhs, best + F(max(t) - min(t)) * tol / 2


def test_sums_and_scores_match_the_reference_implementations():
    """On 40 random tables at n=3 and n=4 and an n=6 mixture, the
    Block-Marschak sums (values, order and types), their negative mass
    and both tag scores equal the references, with the matrix's pairs
    shuffled for scoring."""
    cases = []
    for n in (3, 4):
        for seed in range(20):
            rng = random.Random(seed)
            cases.append(
                (rng, random_rum(rng, n, denom=rng.choice((1, 7, 20, 36))))
            )
    rng = random.Random(6)
    weights = [F(0)] * 720
    for j in rng.sample(range(720), 9):
        weights[j] = F(1, 9)
    cases.append((rng, instance_from_mixture("abcdef", weights)))
    for rng, inst in cases:
        got, want = bm_polynomials(inst), _bm_polynomials_reference(inst)
        assert list(got.items()) == list(want.items())
        assert all(type(v) is F for v in got.values())
        assert bm_negative_norm(inst) == sum(
            (-v for v in want.values() if v < 0), F(0)
        )
        order = list(range(len(inst.pairs())))
        rng.shuffle(order)
        matrix = build_matrix(inst)
        shuffled = ChoiceMatrix(
            pairs=tuple(matrix.pairs[i] for i in order),
            orderings=matrix.orderings,
        )
        for _ in range(3):
            t = [rng.randrange(6) for _ in order]
            eps = F(rng.randrange(11), 10)
            assert evaluate_arsp(inst, shuffled, t, eps) == (
                _evaluate_reference(inst, shuffled, t, eps, star=False)
            )
            assert evaluate_arsp_star(inst, shuffled, t, eps) == (
                _evaluate_reference(inst, shuffled, t, eps, star=True)
            )


def _naive_cube_sums(layout, nums, combine, upward):
    """Each pair's sum over its submenus (or, *upward*, its supermenus),
    with sign ``(-1)^{|menu difference|}`` for ``operator.sub``: every
    submask of the free bits in turn, O(3^n) terms in all."""
    full = (1 << len(layout.alternatives)) - 1
    num = {(y, mask): nums[i]
           for i, ((y, _), mask) in enumerate(layout.masks.items())}
    out = []
    for y, mask in num:
        free = (full ^ mask) if upward else (mask ^ layout.bit[y])
        total, part = 0, free
        while True:
            other = (mask | part) if upward else (mask ^ part)
            odd = combine is operator.sub and part.bit_count() & 1
            total += -num[y, other] if odd else num[y, other]
            if not part:
                break
            part = (part - 1) & free
        out.append(total)
    return out


@pytest.mark.parametrize("n", range(1, 9))
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_flat_subcube_transform_matches_naive_sums(n, seed):
    """Gathered into ``cube`` order, one transform over the flat table
    gives every pair's sum over its submenus; gathered into ``cube``
    order reversed, transformed, reversed back and read through
    ``cube_index``, its sum over its supermenus.  Both with
    ``operator.add`` and ``operator.sub``; at n=1 the single block has
    nothing to transform."""
    rng = random.Random(seed)
    layout = rum._layout(tuple("abcdefgh"[:n]))
    half = 1 << n >> 1
    nums = [rng.choice((0, rng.randrange(-10**9, 10**9)))
            for _ in layout.pairs]
    assert sorted(layout.cube) == list(range(len(nums)))
    assert [layout.cube[k] for k in layout.cube_index] == list(range(len(nums)))
    for combine in (operator.add, operator.sub):
        flat = [nums[i] for i in layout.cube]
        rum._subset_sums(flat, half, combine)
        got = [0] * len(nums)
        for i, v in zip(layout.cube, flat):
            got[i] = v
        assert got == _naive_cube_sums(layout, nums, combine, upward=False)
        flat = [nums[i] for i in reversed(layout.cube)]
        rum._subset_sums(flat, half, combine)
        flat.reverse()
        got = [flat[k] for k in layout.cube_index]
        assert got == _naive_cube_sums(layout, nums, combine, upward=True)


@pytest.mark.parametrize("n", range(1, 6))
def test_layout_edges_are_the_menu_lattice(n):
    """``edges[R]`` leaves R once per member a, in list order, at the
    cube place of pair (a, R), for R without a; taking the edges in list
    order from the full mask walks the orderings in
    ``enumerate_orderings`` order, each path once."""
    alts = tuple("abcde"[:n])
    layout = rum._layout(alts)
    assert len(layout.edges) == 1 << n and layout.edges[0] == ()
    for r, edges in enumerate(layout.edges):
        members = [i for i in range(n) if r >> i & 1]
        assert edges == tuple(
            (layout.cube_index[layout.index[alts[i], layout.by_mask[r]]],
             r & ~(1 << i))
            for i in members
        )
    def paths(r):
        if not r:
            return [()]
        return [(k, *rest) for k, s in layout.edges[r] for rest in paths(s)]
    walked = [
        tuple(layout.pairs[layout.cube[k]][0] for k in path)
        for path in paths((1 << n) - 1)
    ]
    assert tuple(walked) == enumerate_orderings(alts)


def _mixture(rng, alts, count):
    """The table of *count* random orderings with random weights."""
    n_ord = len(enumerate_orderings(alts))
    raw = [F(0)] * n_ord
    for j in rng.sample(range(n_ord), count):
        raw[j] = F(rng.randrange(1, 10), rng.choice((1, 3, 7)))
    total = sum(raw)
    return instance_from_mixture(alts, [w / total for w in raw])


def test_sums_and_scores_match_the_references_at_seven_and_eight(monkeypatch):
    """The Block-Marschak sums and both tag scores equal the references
    on n=7 and n=8 mixtures and an n=7 random table, scored on the
    layout's pairs, on the matrix's pairs shuffled and on pairs drawn
    with repeats, whose tags add up."""
    monkeypatch.setenv("NRB_MAX_ALTERNATIVES", "8")
    rng = random.Random(78)
    cases = [_mixture(rng, "abcdefg", 40), _mixture(rng, "abcdefgh", 40),
             random_rum(rng, 7)]
    for inst in cases:
        got, want = bm_polynomials(inst), _bm_polynomials_reference(inst)
        assert list(got.items()) == list(want.items())
        assert all(type(v) is F for v in got.values())
        matrix = build_matrix(inst)
        order = list(range(len(matrix.pairs)))
        rng.shuffle(order)
        shuffled = ChoiceMatrix(
            pairs=tuple(matrix.pairs[i] for i in order),
            orderings=matrix.orderings,
        )
        repeated = ChoiceMatrix(
            pairs=tuple(rng.choices(matrix.pairs, k=len(order) // 2)),
            orderings=matrix.orderings,
        )
        for scored in (matrix, shuffled, repeated):
            for _ in range(2):
                t = [rng.randrange(6) for _ in scored.pairs]
                eps = F(rng.randrange(11), 10)
                assert evaluate_arsp(inst, scored, t, eps) == (
                    _evaluate_reference(inst, scored, t, eps, star=False)
                )
                assert evaluate_arsp_star(inst, scored, t, eps) == (
                    _evaluate_reference(inst, scored, t, eps, star=True)
                )


def test_tag_vector_validation():
    with pytest.raises(InputError):
        TaggedTrialSequence(tags=())
    with pytest.raises(InputError):
        TaggedTrialSequence(tags=(1, -1))
    trial = TaggedTrialSequence(tags=(3, 0, 1))
    assert trial.width == 3


def test_alternatives_cap(monkeypatch):
    alts = tuple(str(i) for i in range(8))
    with pytest.raises(CapExceededError):
        enumerate_orderings(alts)
    monkeypatch.setenv("NRB_MAX_ALTERNATIVES", "3")
    assert max_alternatives() == 3
    with pytest.raises(CapExceededError):
        enumerate_orderings(("1", "2", "3", "4"))
    assert len(enumerate_orderings(("1", "2", "3"))) == 6


_CAP_ENTRY_POINTS = {
    "build_matrix": build_matrix,
    "instance_from_mixture":
        lambda inst: instance_from_mixture(inst.alternatives, ["1/24"] * 24),
    "rum_min_eps": rum_min_eps,
    "rum_residual_min_eps": rum_residual_min_eps,
    "check_eps_arsp": lambda inst: check_eps_arsp(inst, 0),
    "check_eps_arsp_star": lambda inst: check_eps_arsp_star(inst, 0),
    "hoffman_ratio": hoffman_ratio,
}


@pytest.mark.parametrize(
    "call", list(_CAP_ENTRY_POINTS.values()), ids=list(_CAP_ENTRY_POINTS)
)
def test_cap_holds_through_every_entry_point(
    monkeypatch, skewed_triples, call
):
    """The environment cap refuses a 4-alternative table at every RUM
    entry point, before any program is solved."""
    assert bm_negative_norm(skewed_triples) > 0  # so hoffman_ratio solves
    solved = [_captured_programs(monkeypatch, m) for m in (rum, duality)]
    monkeypatch.setenv("NRB_MAX_ALTERNATIVES", "3")
    with pytest.raises(
        CapExceededError, match="4 alternatives exceed the enumeration cap of 3"
    ):
        call(skewed_triples)
    assert solved == [[], []]


@pytest.mark.parametrize(
    "call", list(_CAP_ENTRY_POINTS.values()), ids=list(_CAP_ENTRY_POINTS)
)
def test_cap_holds_once_the_layout_holds_the_orderings(
    monkeypatch, skewed_triples, call
):
    """With the 4-alternative layout warm, its 24 orderings already
    built under the default cap, the environment cap of 3 still refuses
    at every entry point before any program is built."""
    alts = skewed_triples.alternatives
    assert len(build_matrix(skewed_triples).rows[0]) == 24
    assert "orderings" in vars(rum._layout(alts))
    built = []

    def record(*args, **kwargs):
        built.append(kwargs)
        return LinearProgram(*args, **kwargs)

    for module in (rum, duality):
        monkeypatch.setattr(module, "LinearProgram", record)
    monkeypatch.setenv("NRB_MAX_ALTERNATIVES", "3")
    with pytest.raises(
        CapExceededError, match="4 alternatives exceed the enumeration cap of 3"
    ):
        call(skewed_triples)
    assert built == []
    assert rum._layout(alts).orderings == tuple(itertools.permutations(alts))


def test_short_table_above_the_cap_is_refused_before_its_layout():
    """A one-key table over 25 alternatives is refused with the entry
    count and the domain size, and lays out none of their 2^25 menus."""
    alts = tuple(f"x{i}" for i in range(25))
    before = rum._layout.cache_info()
    with pytest.raises(CapExceededError) as raised:
        RumInstance(alternatives=alts, choice={("x0", ("x0",)): "1"})
    assert str(raised.value) == (
        "25 alternatives exceed the cap of 7 for an incomplete table: "
        "1 of 419430400 entries"
    )
    after = rum._layout.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)


def test_only_short_tables_above_the_cap_are_refused(monkeypatch):
    """A complete table over 8 alternatives still validates under the
    default cap of 7, and one missing entry makes it a refusal (exit 3);
    at 7 a missing entry is still named."""
    monkeypatch.setenv("NRB_MAX_ALTERNATIVES", "8")
    rng = random.Random(8)
    wide = {n: _mixture(rng, "abcdefgh"[:n], 3) for n in (7, 8)}
    monkeypatch.delenv("NRB_MAX_ALTERNATIVES")
    for inst in wide.values():
        again = RumInstance(alternatives=inst.alternatives, choice=inst.choice)
        assert again == inst and again._nums == inst._nums
    short = dict(wide[8].choice)
    del short["h", tuple("abcdefgh")]
    with pytest.raises(CapExceededError, match=(
        "^8 alternatives exceed the cap of 7 for an incomplete table: "
        "1023 of 1024 entries$"
    )):
        RumInstance(alternatives=tuple("abcdefgh"), choice=short)
    short = dict(wide[7].choice)
    del short["g", tuple("abcdefg")]
    with pytest.raises(InputError, match="^missing choice entries: "):
        RumInstance(alternatives=tuple("abcdefg"), choice=short)


def test_checks_refuse_levels_out_of_range_and_short_tags(warp_cycle):
    with pytest.raises(InputError, match="^slack must be nonnegative$"):
        check_eps_arsp(warp_cycle, "-1/2")
    with pytest.raises(InputError, match=r"^level must lie in \[0, 1\]$"):
        check_eps_arsp_star(warp_cycle, "3/2")
    matrix = build_matrix(warp_cycle)
    with pytest.raises(InputError, match="^tag vector length mismatch$"):
        evaluate_arsp(warp_cycle, matrix, [1] * (len(matrix.pairs) - 1), 0)


@pytest.mark.parametrize("bad", [0.5, "1", True, 1.0])
@pytest.mark.parametrize("evaluate", [evaluate_arsp, evaluate_arsp_star])
def test_evaluators_refuse_inexact_tags(warp_cycle, evaluate, bad):
    """A tag that is not ``int`` or ``Fraction`` is bad input, as at the
    package's boundary, not a ``TypeError`` from the arithmetic; ``int``
    and ``Fraction`` tags score as before."""
    matrix = build_matrix(warp_cycle)
    tags = [1] * len(matrix.pairs)
    sides = evaluate(warp_cycle, matrix, tags, F(1, 2))
    assert evaluate(warp_cycle, matrix, [F(t) for t in tags], F(1, 2)) == sides
    tags[3] = bad
    with pytest.raises(InputError, match="^tags must be int or Fraction$"):
        evaluate(warp_cycle, matrix, tags, F(1, 2))


# ---------------------------------------------------------------------------
# the shared menu layout


def _layout_snapshot(layout):
    """Plain copies of every part of a layout."""
    return (
        layout.alternatives, list(layout.bit.items()), layout.pairs,
        list(layout.masks.items()), list(layout.index.items()),
        layout.menus, layout.by_mask, layout.cube, layout.cube_index,
        layout.edges,
    )


def test_tables_on_one_alternatives_tuple_share_one_layout():
    """Two tables over the same alternatives hold the same layout, and
    a from-scratch build reads the same pairs, masks and rows."""
    first = random_rum(random.Random(1), 4)
    second = random_rum(random.Random(2), 4)
    assert first._layout is second._layout
    assert first._masks is second._masks is first._layout.masks
    assert first.pairs() is second.pairs()
    assert build_matrix(first).orderings is build_matrix(second).orderings
    rum._layout.cache_clear()
    again = random_rum(random.Random(1), 4)
    assert again._layout is not first._layout
    assert again.pairs() == first.pairs()
    assert list(again._masks.items()) == list(first._masks.items())
    assert again._nums == first._nums
    _assert_integer_table(again)
    assert _layout_snapshot(again._layout) == _layout_snapshot(first._layout)
    assert again._layout.orderings == tuple(
        itertools.permutations(first.alternatives)
    )


def test_layout_maps_are_read_only(skewed_triples):
    layout = skewed_triples._layout
    pair = skewed_triples.pairs()[0]
    for mapping, key in (
        (skewed_triples._masks, pair), (layout.index, pair),
        (layout.bit, "1"),
    ):
        with pytest.raises(TypeError):
            mapping[key] = 0
        with pytest.raises(TypeError):
            del mapping[key]
    with pytest.raises(AttributeError):
        layout.pairs = ()
    assert type(layout.pairs) is tuple
    assert type(layout.cube) is type(layout.cube_index) is tuple
    assert type(layout.edges) is tuple
    assert all(type(edges) is tuple for edges in layout.edges)


def test_layout_keys_spell_the_pairs():
    """``keys`` spells each pair as a document does, in ``pairs`` order;
    ``pair_of`` maps them back, read only, unless an alternative is
    empty or holds a separator."""
    layout = rum._layout(("a", "b c", "é"))
    assert layout.keys == tuple(
        f"{y}|{','.join(menu)}" for y, menu in layout.pairs
    )
    assert list(layout.pair_of.items()) == list(zip(layout.keys, layout.pairs))
    with pytest.raises(TypeError):
        layout.pair_of["a|a"] = ("b c", ("b c",))
    for alts in (("a", ""), ("a", "b|c"), ("a,b", "c")):
        layout = rum._layout(alts)
        assert len(layout.keys) == len(layout.pairs)
        assert dict(layout.pair_of) == {}


# message -> the key and its new value (None: dropped); a key not in the
# backwards-spelled table is added in front of it
_FAULTS = {
    "unknown alternative": (("z", ("a",)), "1"),
    "repeats an alternative": (("a", ("a", "a")), "1"),
    "is not on the menu": (("c", ("b", "a")), "0"),
    "negative probability": (("a", ("c", "a")), "-1/2"),
    "duplicate entry": (("b", ("a", "b")), "1/2"),
    "sum to": (("a", ("c", "a")), "1/3"),
    "missing choice entries": (("b", ("c", "b", "a")), None),
}


@pytest.mark.parametrize("fault", [None, *_FAULTS], ids=str)
def test_respelled_and_faulty_tables_leave_the_layout_unchanged(fault):
    """A table with every menu spelled backwards, alone or with one
    fault of each kind, writes nothing into the shared layout."""
    alts = ("a", "b", "c")
    base = instance_from_mixture(alts, ["1/6"] * 6)
    table = {
        (y, menu[::-1]): str(p) for (y, menu), p in base.choice.items()
    }
    if fault is not None:
        key, value = _FAULTS[fault]
        if value is None:
            del table[key]
        elif key in table:
            table[key] = value
        else:
            table = {key: value, **table}
    layout = rum._layout(alts)
    before = _layout_snapshot(layout)
    if fault is None:
        inst = RumInstance(alternatives=alts, choice=table)
        assert inst == base and inst._layout is layout
    else:
        with pytest.raises(InputError, match=fault):
            RumInstance(alternatives=alts, choice=table)
    assert rum._layout(alts) is layout
    assert _layout_snapshot(layout) == before


@settings(max_examples=150, deadline=None)
@given(_choice_tables())
def test_drawn_tables_leave_the_layout_unchanged(drawn):
    alts, entries = drawn
    layout = rum._layout(alts)
    before = _layout_snapshot(layout)
    try:
        RumInstance(alternatives=alts, choice=dict(entries))
    except (InputError, TypeError):
        pass
    assert rum._layout(alts) is layout
    assert _layout_snapshot(layout) == before


def test_reordered_alternatives_get_their_own_layout():
    ab, ba = rum._layout(("a", "b")), rum._layout(("b", "a"))
    assert ab is not ba
    assert dict(ab.bit) == {"a": 1, "b": 2}
    assert dict(ba.bit) == {"b": 1, "a": 2}
    assert ab.masks[("a", ("a",))] == 1 and ba.masks[("a", ("a",))] == 2
    assert ab.pairs == (
        ("a", ("a",)), ("b", ("b",)), ("a", ("a", "b")), ("b", ("a", "b")),
    )
    assert ba.pairs == (
        ("b", ("b",)), ("a", ("a",)), ("b", ("b", "a")), ("a", ("b", "a")),
    )
    table = {("a", ("a",)): 1, ("b", ("b",)): 1,
             ("a", ("a", "b")): "1/3", ("b", ("b", "a")): "2/3"}
    one = RumInstance(alternatives=("a", "b"), choice=table)
    two = RumInstance(alternatives=("b", "a"), choice=table)
    assert (one._layout, two._layout) == (ab, ba)
    assert (
        one._nums[ab.index["a", ("a", "b")]] * two._den
        == two._nums[ba.index["a", ("b", "a")]] * one._den
    )


def test_enumerate_orderings_keeps_non_string_alternatives_apart():
    """Equal but differently typed alternatives never share orderings."""
    assert enumerate_orderings((1, 2)) == ((1, 2), (2, 1))
    got = enumerate_orderings((1.0, 2.0))
    assert got == ((1.0, 2.0), (2.0, 1.0))
    assert all(type(a) is float for ordering in got for a in ordering)


def test_work_on_one_table_leaves_another_unchanged():
    """Sums, scores and both programs on one instance leave another
    instance over the same alternatives, its integer table and the
    layout as they were."""
    worked = random_rum(random.Random(11), 4)
    other = random_rum(random.Random(12), 4)
    def state(inst):
        return (list(inst.pairs()), list(inst._masks.items()),
                inst._nums, _layout_snapshot(inst._layout))

    before = state(other)
    matrix = build_matrix(worked)
    bm_polynomials(worked)
    bm_negative_norm(worked)
    tags = list(range(len(matrix.pairs)))
    evaluate_arsp(worked, matrix, tags, F(1, 10))
    evaluate_arsp_star(worked, matrix, tags, F(1, 10))
    rum_min_eps(worked)
    rum_residual_min_eps(worked)
    assert state(other) == before


def test_instances_pickle_and_copy_through_the_constructor(skewed_triples):
    for copied in (
        pickle.loads(pickle.dumps(skewed_triples)),
        copy.deepcopy(skewed_triples),
        copy.copy(skewed_triples),
    ):
        assert copied == skewed_triples
        assert copied._layout is rum._layout(copied.alternatives)
        assert copied.pairs() == skewed_triples.pairs()
        assert copied._nums == skewed_triples._nums


def test_deterministic_tables_rationalizable_iff_consistent():
    """Across all 24 deterministic choice functions on three
    alternatives, the level is zero exactly for the six induced by a
    fixed ordering."""
    alts = ("1", "2", "3")
    menus = enumerate_menus(alts)
    ordering_tables = set()
    for ordering in enumerate_orderings(alts):
        table = tuple(
            next(a for a in ordering if a in menu) for menu in menus
        )
        ordering_tables.add(table)
    assert len(ordering_tables) == 6
    seen_zero = 0
    for picks in itertools.product(*menus):
        table = {}
        for menu, pick in zip(menus, picks):
            for y in menu:
                table[(y, menu)] = F(1) if y == pick else F(0)
        inst = RumInstance(alternatives=alts, choice=table)
        level = rum_min_eps(inst).epsilon_min
        if picks in ordering_tables:
            assert level == 0
            seen_zero += 1
        else:
            assert level > 0
    assert seen_zero == 6


def _reference_residual_audit(matrix, p0, sol):
    """The residual program's audit as it was, summing every mu in
    ``Fraction``: the first failing check's message, or None."""
    m, n_ord = len(matrix.pairs), len(matrix.orderings)
    eps = sol.objective_value
    mu = sol.primal[:n_ord]
    rho = sol.primal[n_ord : n_ord + m]
    try:
        if eps != 0:
            rum._verify_residual_kernel(
                rum._layout(matrix.orderings[0]), [v / eps for v in rho]
            )
    except InternalCheckError as exc:
        return str(exc)
    for i in range(m):
        fitted = sum((mu[j] for j in range(n_ord) if matrix.rows[i][j]), F(0))
        if fitted + rho[i] != p0[i]:
            return "residual decomposition fails"
    return None


@given(
    st.integers(2, 3),
    st.booleans(),
    st.integers(0, 10**6),
    st.sampled_from(["mu", "rho", "move", "none"]),
    st.integers(0, 10**6),
    st.fractions(-1, 1, max_denominator=9).filter(bool),
)
@settings(max_examples=150, deadline=None)
def test_residual_audit_matches_fraction_reference(
    n, rationalizable, seed, kind, index, amount
):
    """The residual decomposition check, over the nonzero mu in
    integers, rejects a corrupted solution exactly when the ``Fraction``
    check does: a mu or rho entry moved, or mass moved between two mu."""
    make = random_rationalizable_rum if rationalizable else random_rum
    inst = make(random.Random(seed), n)
    matrix = build_matrix(inst)
    m, n_ord = len(matrix.pairs), len(matrix.orderings)
    seen = []

    def corrupted_solve(lp):
        sol = solve_lp(lp)
        x = list(sol.primal)
        if kind == "mu":
            x[index % n_ord] += amount
        elif kind == "rho":
            x[n_ord + index % m] += amount
        elif kind == "move":
            x[index % n_ord] += amount
            x[(index + 1) % n_ord] -= amount
        sol = LpSolution(status=sol.status, objective_value=sol.objective_value,
                         primal=tuple(x), dual=sol.dual,
                         reduced_costs=sol.reduced_costs)
        seen.append(sol)
        return sol

    rum.solve_lp = corrupted_solve
    try:
        rum._residual_fit(inst)
        got = None
    except InternalCheckError as exc:
        got = str(exc)
    finally:
        rum.solve_lp = solve_lp
    p0 = [inst.probability(y, menu) for y, menu in matrix.pairs]
    assert got == _reference_residual_audit(matrix, p0, seen[0])
    if kind == "none":
        assert got is None


def _reference_menu_kernel(pairs, residual):
    """The residual kernel check as it was, summing by menu key: the first
    failing check's message, or None."""
    if any(v < 0 for v in residual):
        return "negative residual mass"
    totals = {}
    for (_, menu), v in zip(pairs, residual):
        totals[menu] = totals.get(menu, F(0)) + v
    if any(total != 1 for total in totals.values()):
        return "residual menu masses must each be one"
    return None


def _reference_menu_lift(h, pairs):
    """The ArSP* lift as it was, keyed by menu: every menu's top entry of
    *h* raised to one."""
    menu_top = {}
    for v, (_, menu) in zip(h, pairs):
        menu_top[menu] = max(v, menu_top.get(menu, F(0)))
    return [v + 1 - menu_top[menu] for v, (_, menu) in zip(h, pairs)]


def _near_rum(rng, n, denom=20):
    """A mixture of three random orderings with 1/denom of one menu's mass
    moved from one member to another, so it lies near the RUM polytope."""
    alts = tuple(str(i + 1) for i in range(n))
    weights = [F(0)] * len(enumerate_orderings(alts))
    for v in (F(1, 2), F(1, 3), F(1, 6)):
        weights[rng.randrange(len(weights))] += v
    inst = instance_from_mixture(alts, weights)
    menu = rng.choice([m for m in enumerate_menus(inst.alternatives) if m[1:]])
    table = dict(inst.choice)
    y = max(menu, key=lambda a: table[(a, menu)])
    z = rng.choice([a for a in menu if a != y])
    table[(y, menu)] -= F(1, denom)
    table[(z, menu)] += F(1, denom)
    return RumInstance(alternatives=inst.alternatives, choice=table)


@given(
    st.integers(2, 4),
    st.booleans(),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.fractions(-1, 1, max_denominator=9),
)
@settings(max_examples=80, deadline=None)
def test_span_lift_and_kernel_match_menu_keyed_references(
    n, near, seed, index, amount
):
    """The ArSP* certificate, built with no lift, has the tags of the
    menu-keyed lift of the optimal duals, so the lift changed no
    certificate; and the residual kernel check, which reads each menu's
    span of positions from the layout, gives the first failing message
    that the menu-keyed version gives on the residual with one entry
    moved by *amount*, on random and near tables."""
    inst = (_near_rum if near else random_rum)(random.Random(seed), n)
    report, matrix, duals = rum._residual_fit(inst)
    cert = check_eps_arsp_star(inst, 0)
    if report.epsilon_min == 0:
        assert cert is None
        residual = [F(1, len(menu)) for _, menu in matrix.pairs]
    else:
        lifted = _reference_menu_lift(duality._unit_shift(duals), matrix.pairs)
        assert cert.tags == rum._tag_vector(lifted).tags
        residual = list(report.residual)
    residual[index % len(residual)] += amount
    try:
        rum._verify_residual_kernel(inst._layout, residual)
        got = None
    except InternalCheckError as exc:
        got = str(exc)
    assert got == _reference_menu_kernel(matrix.pairs, residual)
    if amount == 0:
        assert got is None


def _reference_residual_program(inst, matrix):
    """The residual program as ``_residual_fit`` built it from dense
    ``Fraction`` rows, kept as the test reference."""
    zero, one = F(0), F(1)
    p0 = [inst.probability(y, menu) for y, menu in matrix.pairs]
    m = len(matrix.pairs)
    n_ord = len(matrix.orderings)
    nvars = n_ord + m + 1
    rows = []
    for i in range(m):
        coeffs = [zero] * nvars
        for j in range(n_ord):
            if matrix.rows[i][j]:
                coeffs[j] = one
        coeffs[n_ord + i] = one
        rows.append((tuple(coeffs), EQUAL, p0[i]))
    rows.append(((one,) * n_ord + (zero,) * m + (one,), EQUAL, one))
    return LinearProgram(
        objective=(zero,) * (nvars - 1) + (one,),
        sense="min",
        constraints=tuple(rows),
        lower=(zero,) * nvars,
    )


def test_rum_programs_match_dense_reference(monkeypatch):
    """The additive program is the L1 fit of P0 to the 0/1 matrix
    columns in one block, and the residual program is as it was, on 20
    random tables at n=3 and 20 at n=4."""
    additive = _captured_programs(monkeypatch, duality)
    residual = _captured_programs(monkeypatch, rum)
    for n in (3, 4):
        for seed in range(20):
            inst = random_rum(random.Random(seed), n)
            matrix = build_matrix(inst)
            rum_min_eps(inst)
            p0 = [inst.probability(y, menu) for y, menu in matrix.pairs]
            columns = [tuple(map(F, col)) for col in zip(*matrix.rows)]
            want = _reference_l1_program(p0, columns, (range(len(columns)),))
            _assert_same_program(additive.pop(), want)
            rum_residual_min_eps(inst)
            _assert_same_program(
                residual.pop(), _reference_residual_program(inst, matrix)
            )
