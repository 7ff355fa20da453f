"""Multi-index arithmetic: exact degrees, comparison, the capped slice,
and the text form."""

import copy
import dataclasses
import pickle
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postliemi.errors import DimensionMismatch, ParseError
from postliemi.multiindex import (
    Config,
    HomDegree,
    MultiIndex,
    compare_hom,
    direction_keys,
    enumerate_below,
    enumerate_below_value,
    hom_value,
    homogeneity,
    parse_multiindex,
    print_multiindex,
)

from oracles import brute_slice

CFG = Config(2, Fraction(1, 2))
CFG34 = Config(2, Fraction(3, 4))

keys = st.one_of(
    st.integers(min_value=0, max_value=3),
    st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]),
)
multiindices = st.dictionaries(keys, st.integers(min_value=1, max_value=3), max_size=4).map(
    MultiIndex.from_dict
)


def e(key, mult=1):
    return MultiIndex.single(key, mult)


# -- additive structure ------------------------------------------------------


@given(multiindices, multiindices, multiindices)
def test_add_is_associative_and_commutative(g1, g2, g3):
    assert (g1 + g2) + g3 == g1 + (g2 + g3)
    assert g1 + g2 == g2 + g1


@given(multiindices)
def test_zero_is_the_identity(g):
    assert g + MultiIndex.zero() == g


@given(multiindices, multiindices)
def test_homogeneity_is_additive(g1, g2):
    assert homogeneity(g1 + g2) == homogeneity(g1) + homogeneity(g2)


@given(multiindices, multiindices)
def test_sub_inverts_add(g1, g2):
    assert (g1 + g2).sub(g2) == g1
    assert (g1 + g2).try_sub(g1) == g2


@given(st.lists(multiindices, max_size=4))
def test_sum_of_is_the_fold_of_add(gs):
    folded = MultiIndex.zero()
    for g in gs:
        folded = folded + g
    assert MultiIndex.sum_of(gs) == folded
    assert hash(MultiIndex.sum_of(gs)) == hash(folded)


def test_sum_of_refuses_mixed_dimensions():
    with pytest.raises(DimensionMismatch):
        MultiIndex.sum_of([e((1, 0)), e(0), e((0, 0, 1))])


def _same_index(got, expect):
    assert got == expect
    assert hash(got) == hash(expect)
    assert got.entries == expect.entries
    assert repr(got) == repr(expect)
    back = pickle.loads(pickle.dumps(got))
    assert back == expect and hash(back) == hash(expect) and back.entries == expect.entries


@given(multiindices, multiindices)
def test_arithmetic_results_are_the_validated_indices(g1, g2):
    # + and sub skip re-validation; their results must be indistinguishable
    # from the index from_dict builds out of the pointwise sum or difference
    total = g1.as_dict()
    for k, m in g2.entries:
        total[k] = total.get(k, 0) + m
    _same_index(g1 + g2, MultiIndex.from_dict(total))
    _same_index(MultiIndex.sum_of([g1, g2]), MultiIndex.from_dict(total))
    diff = dict(total)
    for k, m in g2.entries:
        diff[k] -= m
    _same_index((g1 + g2).sub(g2), MultiIndex.from_dict(diff))
    _same_index((g1 + g2).sub(g1 + g2), MultiIndex.zero())


@given(multiindices)
def test_arithmetic_results_are_canonical(g):
    # the constructor re-checks order, keys and multiplicities
    for h in (g + e(0), g + e((2, 0)), (g + e(1)).sub(e(1))):
        assert MultiIndex(h.entries) == h


def test_sub_below_zero_still_raises():
    with pytest.raises(ValueError):
        e(0).sub(e(0, 2))
    with pytest.raises(ValueError):
        e((1, 0)).sub(e(1))
    assert e(0).try_sub(e(1)) is None


@pytest.mark.parametrize(
    "g1,g2",
    [
        (e((1, 0)), e((0, 0, 1))),
        (e(0) + e((1, 0)), e((0, 0, 1), 2)),
        (e((1, 1)), e(3) + e((1, 1, 1))),
    ],
)
def test_mixed_dimensions_still_raise(g1, g2):
    with pytest.raises(DimensionMismatch):
        g1 + g2
    with pytest.raises(DimensionMismatch):
        g2 + g1
    with pytest.raises(DimensionMismatch):
        g1.sub(g2)
    with pytest.raises(DimensionMismatch):
        g1.try_sub(g2)
    with pytest.raises(DimensionMismatch):
        MultiIndex.sum_of([g1, g2])


def test_homogeneity_counts_both_families():
    g = e(0, 2) + e(5) + e((2, 1))
    assert homogeneity(g) == HomDegree(3, 3)
    assert hom_value(g, CFG) == Fraction(3, 2) + 3


# -- hashing -----------------------------------------------------------------


@given(multiindices)
def test_hash_is_that_of_the_compared_fields(g):
    assert hash(g) == hash((g.entries,))
    assert hash(g) == hash((g.entries,))  # the stored value, on a second call
    assert repr(g) == f"MultiIndex(entries={g.entries!r})"


@given(multiindices, multiindices)
def test_equal_indices_from_different_routes_hash_equal(g1, g2):
    routes = [
        g1,
        (g1 + g2).sub(g2),
        MultiIndex.from_dict(g1.as_dict()),
        MultiIndex(g1.entries),
        parse_multiindex(print_multiindex(g1)),
        pickle.loads(pickle.dumps(g1)),
    ]
    for g in routes:
        assert g == g1
        assert hash(g) == hash(g1)
    assert len(set(routes)) == 1


@pytest.mark.parametrize(
    "d, alpha", [(1, Fraction(1, 3)), (2, Fraction(1, 2)), (3, Fraction(3, 4)), (8, Fraction(2, 5))]
)
def test_config_hash_is_that_of_the_compared_fields(d, alpha):
    cfg = Config(d, alpha)
    assert hash(cfg) == hash((cfg.d, cfg.alpha))
    assert hash(cfg) == hash((d, alpha))
    assert repr(cfg) == f"Config(d={d!r}, alpha={alpha!r})"


def test_configs_equal_in_value_are_equal_and_hash_alike():
    unreduced, reduced = Config(2, Fraction(2, 4)), Config(2, Fraction(1, 2))
    assert unreduced == reduced
    assert hash(unreduced) == hash(reduced)
    assert len({unreduced, reduced}) == 1
    assert Config(2, Fraction(1, 2)) != Config(3, Fraction(1, 2))
    assert Config(2, Fraction(1, 2)) != Config(2, Fraction(3, 4))


def test_config_round_trips_through_pickle_copy_and_replace():
    cfg = Config(3, Fraction(3, 4))
    for other in (pickle.loads(pickle.dumps(cfg)), copy.copy(cfg), copy.deepcopy(cfg)):
        assert other == cfg
        assert hash(other) == hash(cfg)
        assert repr(other) == repr(cfg)
    moved = dataclasses.replace(cfg, d=2)
    assert moved == Config(2, Fraction(3, 4))
    assert hash(moved) == hash((2, Fraction(3, 4)))
    assert dataclasses.replace(cfg, alpha=Fraction(2, 4)) == Config(3, Fraction(1, 2))
    with pytest.raises(ValueError):
        dataclasses.replace(cfg, alpha=Fraction(3, 2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.d = 4


# -- comparison --------------------------------------------------------------


def test_compare_examples():
    assert compare_hom(HomDegree(1, 0), HomDegree(0, 1), CFG) == -1
    assert compare_hom(HomDegree(2, 0), HomDegree(0, 1), CFG) == 0
    assert compare_hom(HomDegree(1, 0), HomDegree(0, 0), CFG34) == 1


@given(
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(3, 4), Fraction(2, 5)]),
)
def test_compare_agrees_with_exact_values(a1, b1, a2, b2, alpha):
    cfg = Config(2, alpha)
    h1, h2 = HomDegree(a1, b1), HomDegree(a2, b2)
    v1, v2 = h1.value(cfg), h2.value(cfg)
    expected = -1 if v1 < v2 else (1 if v1 > v2 else 0)
    assert compare_hom(h1, h2, cfg) == expected


# -- the capped degree slice -------------------------------------------------


def test_slice_at_zero_is_the_origin():
    assert enumerate_below_value(Fraction(0), CFG) == (MultiIndex.zero(),)


def test_slice_at_alpha():
    # both z_0 and z_1 weigh alpha; the index cap floor(val/alpha) admits k <= 1
    got = enumerate_below_value(Fraction(1, 2), CFG)
    assert set(got) == {MultiIndex.zero(), e(0), e(1)}


def test_slice_at_one():
    got = enumerate_below_value(Fraction(1), CFG)
    for g in (MultiIndex.zero(), e(0), e(0, 2), e((1, 0)), e((0, 1))):
        assert g in got
    assert set(got) == brute_slice(Fraction(1), CFG)
    assert len(got) == 12


@pytest.mark.parametrize(
    "cfg,val",
    [
        (CFG, Fraction(1, 2)),
        (CFG, Fraction(3, 2)),
        (CFG34, Fraction(3, 2)),
        (CFG34, Fraction(2)),
        (Config(3, Fraction(1, 3)), Fraction(1)),
    ],
)
def test_slice_matches_brute_force(cfg, val):
    got = enumerate_below_value(val, cfg)
    assert len(set(got)) == len(got)
    assert set(got) == brute_slice(val, cfg)
    values = [hom_value(g, cfg) for g in got]
    assert values == sorted(values)


def test_slice_accepts_a_degree_bound():
    assert enumerate_below(HomDegree(0, 1), CFG) == enumerate_below_value(Fraction(1), CFG)


# -- direction keys ----------------------------------------------------------


@pytest.mark.parametrize(
    "d,m", [(d, m) for d in range(1, 5) for m in range(5)] + [(8, m) for m in range(4)]
)
def test_direction_keys_are_the_filtered_product_in_lex_order(d, m):
    expect = sorted(n for n in product(range(m + 1), repeat=d) if 1 <= sum(n) <= m)
    got = direction_keys(d, m)
    assert got == expect
    assert len(got) == comb(d + m, d) - 1


def test_direction_keys_grow_polynomially_in_the_dimension():
    # C(23, 3) - 1 keys, where filtering the product would scan 4**20 tuples
    got = direction_keys(20, 3)
    assert len(got) == comb(23, 20) - 1
    assert got == sorted(set(got))
    assert all(len(n) == 20 and 1 <= sum(n) <= 3 for n in got)


# -- text form ---------------------------------------------------------------


@settings(max_examples=60)
@given(multiindices)
def test_print_parse_round_trip(g):
    assert parse_multiindex(print_multiindex(g)) == g


def test_grammar_examples():
    assert parse_multiindex("{}") == MultiIndex.zero()
    assert parse_multiindex("{k0:1, (1,0):2}") == e(0) + e((1, 0), 2)


@pytest.mark.parametrize("text", ["{k0:0}", "{(0,0):1}", "{k-1:1}", "{"])
def test_grammar_rejections(text):
    with pytest.raises((ParseError, ValueError)):
        parse_multiindex(text)
