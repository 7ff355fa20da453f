"""Structure constants on a finite truncation: the three polynomial
conditions and the order-based construction of a torsion-free connection."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_constant_torsion, brute_flat, brute_null_torsion
from postliemi.coordinates import (
    StructureConstants,
    check_constant_torsion,
    check_flat,
    check_null_torsion,
    constants_from_derivations,
    derivation_labels,
    derivation_order,
    diamond_from_order,
    parse_constants,
    print_constants,
)
from postliemi.derivations import DOp, Partial
from postliemi.errors import ParseError


def standard_table():
    return constants_from_derivations(derivation_labels(2, 2))


def assert_matches_oracle(sc):
    for check, brute in (
        (check_null_torsion, brute_null_torsion),
        (check_constant_torsion, brute_constant_torsion),
        (check_flat, brute_flat),
    ):
        found = check(sc)
        assert found == brute(sc)
        assert all(type(v) is Fraction for _, v in found)


def test_connection_table_satisfies_all_three_conditions():
    sc = standard_table()
    assert check_null_torsion(sc) == []
    assert check_constant_torsion(sc) == []
    assert check_flat(sc) == []


def test_empty_table_satisfies_all_three_conditions():
    sc = StructureConstants.from_entries(("a", "b"))
    assert check_null_torsion(sc) == []
    assert check_constant_torsion(sc) == []
    assert check_flat(sc) == []


def test_missing_connection_reports_every_bracket_entry():
    sc = standard_table()
    lie_only = StructureConstants.from_entries(sc.index_set, (), sc.delta.items())
    reported = {idx for idx, _ in check_null_torsion(lie_only)}
    assert reported == set(sc.delta)


def test_zero_connection_has_constant_torsion():
    sc = standard_table()
    lie_only = StructureConstants.from_entries(sc.index_set, (), sc.delta.items())
    assert check_constant_torsion(lie_only) == []
    assert check_flat(lie_only) == []


def test_asymmetric_perturbation_breaks_constant_torsion():
    sc = standard_table()
    bent = StructureConstants.from_entries(sc.index_set, sc.delta.items(), sc.delta.items())
    bent = bent.with_entry("g", "P1", "P1", "P1", 1)
    assert check_constant_torsion(bent) != []


def test_mutual_action_is_curved():
    sc = StructureConstants.from_entries(("a", "b"), [(("a", "b", "b"), 1), (("b", "a", "b"), 1)])
    report = check_flat(sc)
    assert report
    indices, residual = report[0]
    assert residual != 0


# -- the order construction --------------------------------------------------


def test_order_reproduces_the_connection_table():
    sc = standard_table()
    lie_only = StructureConstants.from_entries(sc.index_set, (), sc.delta.items())
    rebuilt = diamond_from_order(lie_only, derivation_order(sc))
    assert rebuilt.gamma == sc.gamma
    assert check_null_torsion(rebuilt) == []


def test_abelian_bracket_gives_the_zero_connection():
    sc = StructureConstants.from_entries(("a", "b"))
    assert diamond_from_order(sc, ("a", "b")).gamma == {}


def test_reversed_order_flips_the_nonzero_side():
    sc = standard_table()
    lie_only = StructureConstants.from_entries(sc.index_set, (), sc.delta.items())
    backwards = list(reversed(sc.index_set))
    rev = diamond_from_order(lie_only, backwards)
    assert rev.g("D(1,0)", "P1", "D(0,0)") == 1
    assert rev.g("P1", "D(1,0)", "D(0,0)") == 0
    assert check_null_torsion(rev) == []


def test_order_must_rank_every_noncommuting_pair():
    sc = standard_table()
    lie_only = StructureConstants.from_entries(sc.index_set, (), sc.delta.items())
    with pytest.raises(ValueError):
        diamond_from_order(lie_only, {"P1": 0})
    flat_ranks = {label: 0 for label in sc.index_set}
    with pytest.raises(ValueError):
        diamond_from_order(lie_only, flat_ranks)


# -- extraction and validation -----------------------------------------------


def test_extraction_rejects_unclosed_truncations():
    with pytest.raises(ValueError):
        constants_from_derivations([Partial(1), DOp((1, 0))])


def test_bracket_table_must_be_antisymmetric():
    with pytest.raises(ValueError):
        StructureConstants.from_entries(("a", "b"), (), [(("a", "b", "a"), 1)])


def test_with_entry_rejects_labels_outside_the_index_set():
    sc = standard_table()
    with pytest.raises(ValueError, match="outside the index set"):
        sc.with_entry("d", "P1", "nope", "P1", 1)
    with pytest.raises(ValueError):
        sc.with_entry("g", "Q9", "P1", "P1", 1)
    # antisymmetry is still not enforced, so mutated tables stay buildable
    broken = sc.with_entry("d", "P1", "P2", "P1", 1)
    assert broken.d("P1", "P2", "P1") == 1
    assert broken.d("P2", "P1", "P1") == 0


def test_checks_commute_with_relabeling():
    sc = standard_table()
    bent = StructureConstants.from_entries(sc.index_set, sc.delta.items(), sc.delta.items())
    names = {label: f"x{k}" for k, label in enumerate(sc.index_set)}

    def rename(table):
        return [((names[i], names[j], names[m]), v) for (i, j, m), v in table.items()]

    moved = StructureConstants.from_entries(
        tuple(names[l] for l in sc.index_set), rename(bent.gamma), rename(bent.delta)
    )
    assert len(check_constant_torsion(moved)) == len(check_constant_torsion(bent))
    assert len(check_flat(moved)) == len(check_flat(bent))


def test_file_form_round_trip():
    sc = standard_table()
    again = parse_constants(print_constants(sc))
    assert again.index_set == sc.index_set
    assert again.gamma == sc.gamma
    assert again.delta == sc.delta


def test_file_form_refuses_a_repeated_entry():
    # compared on the printed labels: P01 is P1, and the two values are not summed
    text = "g P1 D(1,0) D(0,0) = 1\nd P1 D(1,0) D(0,0) = 1\ng P01 D(1,0) D(0,0) = 2\n"
    with pytest.raises(ParseError, match=r"^line 3: duplicate entry g P1 D\(1,0\) D\(0,0\)$"):
        parse_constants(text)


@pytest.mark.parametrize("text", ["g P0 P1 P1 = 1", "g P1 P1 = 1", "x P1 P1 P1 = 1", "g P1 P1 P1"])
def test_file_form_rejects(text):
    with pytest.raises(ParseError, match="^line 1: "):
        parse_constants(text)


def test_file_form_refuses_a_bracket_that_is_not_antisymmetric():
    with pytest.raises(ParseError, match="not antisymmetric"):
        parse_constants("d P1 P2 P2 = 1")


# -- agreement with the dense oracle -----------------------------------------

LABELS = ("a", "b", "c", "d", "e", "f")
VALUES = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(lambda v: v != 0)


@st.composite
def raw_tables(draw):
    """Random gamma and delta on 1-5 labels, delta not necessarily
    antisymmetric; keys may also use the first label outside the set."""
    n = draw(st.integers(1, 5))
    key = st.tuples(*[st.sampled_from(LABELS[: n + 1])] * 3)
    gamma = draw(st.dictionaries(key, VALUES, max_size=12))
    delta = draw(st.dictionaries(key, VALUES, max_size=12))
    return StructureConstants(LABELS[:n], gamma, delta)


@settings(max_examples=80, deadline=None)
@given(raw_tables())
def test_checks_match_the_dense_oracle_on_random_tables(sc):
    assert_matches_oracle(sc)


def delta_mutation(sc, seed):
    rng = random.Random(seed)
    i, j, m = (rng.choice(sc.index_set) for _ in range(3))
    return sc.with_entry("d", i, j, m, rng.choice((-2, -1, 1, 2)))


@pytest.mark.parametrize(
    "max_norm, seed", [(2, None), (2, 0), (2, 1), (2, 2), (3, None), (3, 0)]
)
def test_checks_match_the_dense_oracle_on_derivation_tables(max_norm, seed):
    sc = constants_from_derivations(derivation_labels(2, max_norm))
    if seed is not None:
        sc = delta_mutation(sc, seed)
        assert check_null_torsion(sc)
    assert_matches_oracle(sc)


def test_entries_outside_the_index_set_contribute_nothing():
    inside = {("a", "b", "b"): Fraction(1), ("b", "a", "b"): Fraction(1)}
    gamma = {**inside, ("a", "x", "b"): Fraction(2), ("x", "a", "a"): Fraction(-1)}
    delta = {("a", "b", "x"): Fraction(3), ("b", "x", "a"): Fraction(1, 2)}
    sc = StructureConstants(("a", "b"), gamma, delta)
    clean = StructureConstants(("a", "b"), inside)
    assert_matches_oracle(sc)
    assert check_null_torsion(sc) == check_null_torsion(clean) == []
    assert check_constant_torsion(sc) == check_constant_torsion(clean)
    assert check_flat(sc) == check_flat(clean) != []
