"""Characters, convolution, and the recentering endomorphisms they induce."""

import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from postliemi.errors import ParseError
import postliemi.group as group_mod
from postliemi.multiindex import Config, MultiIndex, enumerate_below_value
from postliemi.polyalg import Polynomial
from postliemi.postlie import Shift, Tilt, key_in_L
from postliemi.representation import coaction_contributions
from postliemi.suites import run_suite
from postliemi.group import (
    Character,
    UNIT_CHARACTER,
    char_eval,
    check_coaction_axiom,
    check_gamma_composition,
    check_gamma_multiplicativity,
    coaction_memo,
    contribution_letters,
    conv_character,
    convolve,
    gamma_apply,
    gamma_apply_poly,
    parse_character,
    print_character,
    sample_character,
    support_letters,
)

from oracles import brute_letters, brute_slice

CFG = Config(2, Fraction(1, 2))
CFG34 = Config(2, Fraction(3, 4))

T10 = Tilt(MultiIndex.single(0, 2), (1, 0))
T01 = Tilt(MultiIndex.single(0, 2), (0, 1))
TN = Tilt(MultiIndex.single((1, 0)), (0, 0))
P1 = Shift(1)

POOL = [P1, Shift(2), T10, T01, TN]
words = st.lists(st.sampled_from(POOL), max_size=4).map(tuple)
char_vals = st.fixed_dictionaries(
    {}, optional={k: st.fractions(min_value=-2, max_value=2, max_denominator=3) for k in POOL}
)


@given(char_vals, words, words)
def test_characters_are_multiplicative_on_words(vals, w1, w2):
    f = Character.from_dict(vals)
    assert f.on_word(w1 + w2) == f.on_word(w1) * f.on_word(w2)


def test_empty_word_evaluates_to_one():
    assert UNIT_CHARACTER.on_word(()) == 1
    assert Character.from_dict({P1: 3}).on_word(()) == 1


def test_unlisted_letters_evaluate_to_zero():
    f = Character.from_dict({P1: Fraction(1, 2)})
    assert f.value(T10) == 0
    assert f.on_word((P1, T10)) == 0


def test_the_letter_index_is_not_part_of_the_value():
    f = Character.from_dict({P1: Fraction(1, 2), T10: Fraction(-3)})
    same = Character(f.values)
    assert f == same and hash(f) == hash(same)
    assert repr(f) == f"Character(values={f.values!r})"
    assert f.__getstate__() == {"values": f.values}
    back = pickle.loads(pickle.dumps(f))
    assert back == f
    assert back.value(T10) == -3 and back.value(TN) == 0


def test_char_eval_is_linear():
    f = Character.from_dict({P1: 2, T10: Fraction(1, 3)})
    terms = [((P1,), Fraction(1, 2)), ((P1, T10), Fraction(3))]
    assert char_eval(f, terms) == Fraction(1) + 3 * 2 * Fraction(1, 3)


def test_counit_is_the_convolution_unit():
    f = Character.from_dict({P1: Fraction(2), T10: Fraction(-1, 2), TN: Fraction(3)})
    for w in [(T10,), (P1, T10), (TN, T10)]:
        assert convolve(UNIT_CHARACTER, f, w, CFG34) == f.on_word(w)
        assert convolve(f, UNIT_CHARACTER, w, CFG34) == f.on_word(w)


def test_materialized_convolution_is_again_a_character():
    rng = random.Random(3)
    letters = support_letters(Fraction(3, 2), CFG34)
    f1 = sample_character(rng, letters)
    f2 = sample_character(rng, letters)
    f12 = conv_character(f1, f2, letters, CFG34)
    for w in [(T10,), (T10, T01), (P1, TN)]:
        assert f12.on_word(w) == convolve(f1, f2, w, CFG34)


# -- recentering -------------------------------------------------------------


def test_gamma_of_the_counit_is_the_identity():
    for g in brute_slice(Fraction(3, 2), CFG34):
        assert gamma_apply(UNIT_CHARACTER, g, CFG34) == Polynomial.monomial(g)


def test_gamma_on_the_squared_variable():
    f = Character.from_dict({T10: Fraction(1, 2), T01: Fraction(-2)})
    got = gamma_apply(f, MultiIndex.single(0, 2), CFG34)
    expect = (
        Polynomial.monomial(MultiIndex.single(0, 2))
        + Polynomial.monomial(MultiIndex.single((1, 0)), Fraction(1, 2))
        + Polynomial.monomial(MultiIndex.single((0, 1)), Fraction(-2))
    )
    assert got == expect


def test_gamma_extends_linearly():
    f = Character.from_dict({T10: Fraction(1, 2)})
    p = Polynomial.monomial(MultiIndex.single(0, 2), Fraction(3)) + Polynomial.monomial(
        MultiIndex.zero(), Fraction(-1)
    )
    expect = gamma_apply(f, MultiIndex.single(0, 2), CFG34).scale(3) - Polynomial.one()
    assert gamma_apply_poly(f, p, CFG34) == expect


def test_composition_matches_convolution():
    rng = random.Random(11)
    letters = support_letters(Fraction(3, 2), CFG34)
    targets = sorted(brute_slice(Fraction(3, 2), CFG34), key=lambda g: g.sort_rank())
    for _ in range(3):
        f1 = sample_character(rng, letters)
        f2 = sample_character(rng, letters)
        assert check_gamma_composition(f1, f2, targets, CFG34) == []


def test_coaction_axiom_holds_on_the_window():
    targets = sorted(brute_slice(Fraction(3, 2), CFG34), key=lambda g: g.sort_rank())
    assert check_coaction_axiom(targets, CFG34) == []


def test_recentering_laws_hold_where_words_have_two_letters():
    # At cutoff 3/2 every coaction word has one letter and every source a
    # trivial coaction, so both laws are linear in each coefficient and a
    # wrong one passes; at 9/4 two-letter words and nontrivial sources appear.
    cutoff = Fraction(9, 4)
    targets = enumerate_below_value(cutoff, CFG34)
    assert len(targets) == 51
    coaction = coaction_memo()
    words = [con.word for g in targets for con in coaction(g, CFG34)]
    assert any(len(w) == 2 for w in words)
    rng = random.Random(17)
    letters = support_letters(cutoff, CFG34)
    for _ in range(5):
        f1, f2 = sample_character(rng, letters), sample_character(rng, letters)
        assert check_gamma_composition(f1, f2, targets, CFG34, coaction) == []
    assert check_coaction_axiom(targets, CFG34, coaction) == []


def test_multiplicativity_checker_reports_exact_differences():
    # The recentering map is not an algebra morphism here, so the checker
    # only reports; verify it reports precisely the failing pairs.
    rng = random.Random(7)
    f = sample_character(rng, support_letters(Fraction(3, 2), CFG34))
    pairs = [
        (MultiIndex.single(0), MultiIndex.single(0)),
        (MultiIndex.single(0), MultiIndex.single((1, 0))),
        (MultiIndex.single(1), MultiIndex.single(0)),
    ]
    report = check_gamma_multiplicativity(f, pairs, CFG34)
    expected = []
    for g1, g2 in pairs:
        lhs = gamma_apply(f, g1 + g2, CFG34)
        rhs = gamma_apply(f, g1, CFG34) * gamma_apply(f, g2, CFG34)
        if lhs != rhs:
            expected.append(((g1, g2), lhs - rhs))
    assert report == expected


# -- the coaction memo -------------------------------------------------------


@pytest.fixture
def coaction_calls(monkeypatch):
    """Targets handed to the unmemoized coaction, in call order."""
    calls = []

    def counting(g, cfg):
        calls.append(g)
        return coaction_contributions(g, cfg)

    monkeypatch.setattr(group_mod, "coaction_contributions", counting)
    return calls


def test_the_gamma_compose_suite_expands_each_target_once(coaction_calls):
    res = run_suite("gamma-compose")
    assert res.violations == []
    targets = enumerate_below_value(Fraction(3, 2), CFG34)
    rank = MultiIndex.sort_rank
    assert sorted(coaction_calls, key=rank) == sorted(targets, key=rank)


def test_the_memo_does_not_outlive_its_check(coaction_calls):
    rng = random.Random(2)
    letters = support_letters(Fraction(3, 2), CFG34)
    targets = enumerate_below_value(Fraction(3, 2), CFG34)
    f1, f2 = sample_character(rng, letters), sample_character(rng, letters)
    check_gamma_composition(f1, f2, targets, CFG34)
    first = len(coaction_calls)
    assert first == len(set(coaction_calls)) > 0
    check_gamma_composition(f1, f2, targets, CFG34)
    assert len(coaction_calls) == 2 * first


def test_every_check_agrees_across_lookups():
    rng = random.Random(5)
    letters = support_letters(Fraction(3, 2), CFG34)
    targets = enumerate_below_value(Fraction(3, 2), CFG34)
    f1, f2 = sample_character(rng, letters), sample_character(rng, letters)
    pairs = [(g1, g2) for g1 in targets[:4] for g2 in targets[:4] if g1 + g2 in targets]
    p = Polynomial.from_terms((g, Fraction(i + 1, 3)) for i, g in enumerate(targets))
    runs = {
        "letters": lambda c: contribution_letters(targets, CFG34, c),
        "gamma": lambda c: [gamma_apply(f1, g, CFG34, c) for g in targets],
        "gamma_poly": lambda c: gamma_apply_poly(f2, p, CFG34, c),
        "composition": lambda c: check_gamma_composition(f1, f2, targets, CFG34, c),
        "multiplicativity": lambda c: check_gamma_multiplicativity(f1, pairs, CFG34, c),
        "axiom": lambda c: check_coaction_axiom(targets, CFG34, c),
    }
    shared = coaction_memo()
    for name, run in runs.items():
        own = run(None)
        assert run(shared) == own, name
        assert run(coaction_contributions) == own, name
    # a nonempty report, so that comparison of the three lookups is not vacuous
    assert check_gamma_multiplicativity(f1, pairs, CFG34) != []


# -- support and sampling ----------------------------------------------------

def test_support_letters_match_the_brute_alphabet():
    letters = support_letters(Fraction(3, 2), CFG34)
    assert len(letters) == 25
    assert all(key_in_L(k, CFG34) for k in letters)
    assert set(letters) == set(brute_letters(Fraction(3, 2), CFG34))


def test_sampling_is_deterministic():
    letters = support_letters(Fraction(3, 2), CFG34)
    f1 = sample_character(random.Random(5), letters)
    f2 = sample_character(random.Random(5), letters)
    assert f1 == f2
    assert all(-2 <= v <= 2 and v.denominator <= 4 for _, v in f1.values)


# -- text form ---------------------------------------------------------------


def test_character_round_trip():
    f = Character.from_dict({P1: Fraction(-2), T10: Fraction(1, 2), TN: Fraction(7, 3)})
    assert parse_character(print_character(f), d=2) == f


def test_parse_character_text():
    text = """
    # boundary data
    P1 = -2
    z{k0:2}xD(1,0) = 1/2
    """
    f = parse_character(text, d=2)
    assert f.value(P1) == -2
    assert f.value(T10) == Fraction(1, 2)


@pytest.mark.parametrize(
    "text",
    ["P1 = 1\nP1 = 2", "P1 1/2", "P1 = one", "Q3 = 1", "P0 = 1"],
)
def test_parse_character_rejects(text):
    with pytest.raises(ParseError):
        parse_character(text, d=2)
