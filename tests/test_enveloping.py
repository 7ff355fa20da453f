"""Words over the basis: coproducts, star products, normal forms, the
pairing, and the dual coproduct."""

import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postliemi.derivations import DOp, DerivationCombo, Partial, derivation_rank
from postliemi.errors import DimensionMismatch, TruncationRefused
from postliemi.multiindex import Config, MultiIndex, hom_value
from postliemi.polyalg import Polynomial
from postliemi.postlie import (
    LElement,
    Shift,
    Tilt,
    _keys_commute,
    basis_pool,
    bracket,
    btr,
    key_in_L,
    parse_l_key,
    pbw_rank,
    structural_rank,
    triangleright,
    zero_op,
)
from postliemi.enveloping import (
    STRUCT_BTR,
    STRUCT_JZ,
    Structure,
    SymElement,
    TensorElement,
    TruncationParams,
    coshuffle,
    counit,
    dual_coproduct,
    ext_action_word,
    pairing,
    parse_word,
    pbw_normal_form,
    phi,
    poly_star,
    print_sym_element,
    print_word,
    sigma,
    star,
    star_word,
    sym_word,
    tensor_poly_star,
    tmap,
    word_mults,
)
from postliemi.representation import coaction_contributions
from postliemi.walks import splits

from oracles import (
    brute_dual_coproduct,
    brute_dual_table,
    brute_ext_action_word,
    brute_letter_action,
    brute_letters,
    brute_pbw_normal_form,
    brute_pbw_rank,
    brute_star_word,
    brute_word_splits,
    letter_degree,
)

CFG = Config(2, Fraction(1, 2))
CFG34 = Config(2, Fraction(3, 4))

P1 = Shift(1)
P2 = Shift(2)
Z0D0 = Tilt(MultiIndex.single(0), (0, 0))
Z0D10 = Tilt(MultiIndex.single(0), (1, 0))
ZN = Tilt(MultiIndex.single((1, 0)), (0, 0))


def w(*letters):
    return sym_word(letters)


def elem(*letters):
    return SymElement.single(sym_word(letters))


# -- sums are merged once ----------------------------------------------------

LETTERS = [P1, P2, Z0D0, Z0D10, ZN]
words = st.lists(st.sampled_from(LETTERS), max_size=3).map(sym_word)
coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
sym_elements = st.lists(st.tuples(words, coeffs), max_size=4).map(SymElement.from_terms)
scaled = st.one_of(coeffs, st.integers(-2, 2))


def _rank(word):
    return (len(word), tuple(structural_rank(x) for x in word))


def _fold(parts, zero):
    """The sum as a left fold of +, one scaled piece at a time."""
    out = zero
    for x, c in parts:
        out = out + x.__class__(tuple((k, cc * c) for k, cc in x.terms))
    return out


# each container type: the strategy for its keys and its canonical order
COMBINATIONS = {
    Polynomial: (
        st.sampled_from([MultiIndex.zero(), MultiIndex.single(0), MultiIndex.single((1, 0))]),
        MultiIndex.sort_rank,
    ),
    DerivationCombo: (
        st.sampled_from([Partial(1), Partial(2), DOp((0, 0)), DOp((1, 0)), DOp((0, 1))]),
        derivation_rank,
    ),
    LElement: (st.sampled_from(LETTERS), structural_rank),
    SymElement: (words, _rank),
    TensorElement: (st.tuples(words, words), lambda ab: (_rank(ab[0]), _rank(ab[1]))),
}


@pytest.mark.parametrize("cls", list(COMBINATIONS), ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_one_merge_sum_equals_the_fold(cls, data):
    keys, rank = COMBINATIONS[cls]
    elements = st.lists(st.tuples(keys, coeffs), max_size=4).map(cls.from_terms)
    parts = data.draw(st.lists(st.tuples(elements, scaled), max_size=5))
    got = cls.sum_of(parts)
    assert got == _fold(parts, cls.zero())
    ranks = [rank(k) for k, _ in got.terms]
    assert all(a < b for a, b in zip(ranks, ranks[1:]))
    assert all(isinstance(c, Fraction) and c != 0 for _, c in got.terms)
    assert cls.sum_of(parts + [(x, -c) for x, c in parts]).is_zero
    assert cls.zero() is cls.zero()
    with pytest.raises(FrozenInstanceError):
        cls.zero().note = "shared"
    assert all(cls.zero() != other.zero() for other in COMBINATIONS if other is not cls)
    back = pickle.loads(pickle.dumps(got))
    assert type(back) is cls and back == got and hash(back) == hash(got)


@given(words, scaled)
def test_single_is_the_one_term_combination(word, c):
    assert SymElement.single(word, c) == SymElement.from_terms([(word, c)])


@pytest.mark.parametrize("struct", [STRUCT_JZ, STRUCT_BTR], ids=["jz", "btr"])
@given(sym_elements, sym_elements)
def test_products_equal_their_folded_definitions(struct, u, v):
    pairs = [(wu, cu, wv, cv) for wu, cu in u.terms for wv, cv in v.terms]
    mul = [(struct.mul_words(a, b, CFG), ca * cb) for a, ca, b, cb in pairs]
    assert struct.mul(u, v, CFG) == _fold(mul, SymElement.zero())
    starred = [(star_word(struct, a, b, CFG), ca * cb) for a, ca, b, cb in pairs]
    assert star(struct, u, v, CFG) == _fold(starred, SymElement.zero())
    split = [(coshuffle(SymElement.single(a)), c) for a, c in u.terms]
    assert coshuffle(u) == _fold(split, TensorElement.zero())


# -- coshuffle ---------------------------------------------------------------


def test_letters_are_primitive():
    x = w(P1)
    empty = w()
    assert coshuffle(elem(P1)) == TensorElement.from_terms(
        [((x, empty), 1), ((empty, x), 1)]
    )


def test_square_splits_with_binomial_weight():
    xx, x, empty = w(P1, P1), w(P1), w()
    assert coshuffle(elem(P1, P1)) == TensorElement.from_terms(
        [((xx, empty), 1), ((x, x), 2), ((empty, xx), 1)]
    )


def test_mixed_word_splits_without_weights():
    got = coshuffle(elem(P1, Z0D0))
    assert got.coeff(w(P1), w(Z0D0)) == 1
    assert got.coeff(w(Z0D0), w(P1)) == 1
    assert got.coeff(w(P1, Z0D0), w()) == 1
    assert len(got.terms) == 4


def test_counit_reads_the_empty_coefficient():
    assert counit(elem() + elem(P1).scale(5)) == 1


# -- extended action and star ------------------------------------------------


def test_empty_word_acts_as_identity():
    v = w(Z0D0, ZN)
    assert ext_action_word(STRUCT_BTR, w(), v, CFG) == SymElement.single(v)


def test_action_on_empty_word_is_the_counit():
    assert ext_action_word(STRUCT_BTR, w(P1), w(), CFG).is_zero


def test_letter_acts_by_leibniz():
    x, y, z = Z0D0, ZN, Z0D10
    acted = ext_action_word(STRUCT_BTR, w(x), w(y, z), CFG)
    by_parts = poly_star(
        SymElement.from_terms([(ww, c) for ww, c in _letter_graft(x, y).terms]),
        SymElement.single(w(z)),
    ) + poly_star(
        SymElement.single(w(y)),
        SymElement.from_terms([(ww, c) for ww, c in _letter_graft(x, z).terms]),
    )
    assert acted == by_parts


def _letter_graft(x, y):
    out = SymElement.zero()
    for key, c in btr(
        _single_l(x), _single_l(y), CFG
    ).terms:
        out = out + SymElement.single((key,), c)
    return out


def _single_l(key):
    from postliemi.postlie import LElement

    return LElement.single(key)


def test_btr_action_preserves_word_length():
    for u, v in [((P1,), (Z0D0, Z0D10)), ((P1, P2), (Z0D0,)), ((Z0D0,), (ZN, ZN))]:
        acted = ext_action_word(STRUCT_BTR, w(*u), w(*v), CFG)
        assert all(len(word) == len(v) for word, _ in acted.terms)


def test_star_of_letters_is_word_plus_product():
    got = star_word(STRUCT_BTR, w(P1), w(Z0D10), CFG)
    assert got == SymElement.single(w(P1, Z0D10)) + _letter_graft(P1, Z0D10)


def test_unit_star():
    u = elem(Z0D0, P1)
    assert star(STRUCT_BTR, SymElement.unit(), u, CFG) == u
    assert star(STRUCT_JZ, u, SymElement.unit(), CFG) == u


def test_worked_star_value():
    got = star_word(STRUCT_BTR, w(P1), w(Z0D10), CFG)
    expect = (
        SymElement.single(w(P1, Z0D10))
        + SymElement.single(w(Tilt(MultiIndex.from_dict({1: 1, (1, 0): 1}), (1, 0))))
        - SymElement.single(w(Tilt(MultiIndex.single(0), (0, 0))))
    )
    assert got == expect


@pytest.mark.parametrize("lam", [Fraction(1, 2), 2], ids=["1/2", "2"])
def test_structure_refuses_a_parameter_other_than_0_or_1(lam):
    with pytest.raises(ValueError, match="must be 0 or 1"):
        Structure(lam)


@pytest.mark.parametrize("struct", [STRUCT_JZ, STRUCT_BTR], ids=["jz", "btr"])
def test_star_associativity_spot(struct):
    a, b, c = elem(P1), elem(Z0D0), elem(Z0D10, P2)
    lhs = star(struct, star(struct, a, b, CFG), c, CFG)
    rhs = star(struct, a, star(struct, b, c, CFG), CFG)
    assert lhs == rhs


# -- normal form -------------------------------------------------------------


def test_sorted_word_is_already_normal():
    seq = (P1, P2, Z0D0)
    assert pbw_normal_form(seq, bracket, CFG) == SymElement.single(sym_word(seq))


def test_single_swap_produces_the_bracket_tail():
    got = pbw_normal_form((Z0D10, P1), bracket, CFG)
    assert got == SymElement.single(w(P1, Z0D10)) + SymElement.single(w(Z0D0))


def test_zero_bracket_just_sorts():
    seq = (Z0D10, ZN, P2, P1)
    assert pbw_normal_form(seq, zero_op, CFG) == SymElement.single(sym_word(seq))


def test_rewrite_strategies_agree():
    for seq in [
        (Z0D10, P1, Z0D0, P2),
        (Z0D0, Z0D10, P1),
        (ZN, Z0D10, P2, P1),
    ]:
        left = pbw_normal_form(seq, bracket, CFG, strategy="leftmost")
        right = pbw_normal_form(seq, bracket, CFG, strategy="rightmost")
        assert left == right


PBW_CFGS = [Config(d, alpha) for d in (2, 3) for alpha in (Fraction(1, 2), Fraction(3, 4))]
PBW_POOLS = {cfg: basis_pool(cfg) for cfg in PBW_CFGS}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_normal_form_matches_the_literal_rewrite(data):
    cfg = data.draw(st.sampled_from(PBW_CFGS))
    pool = PBW_POOLS[cfg]
    # only a tilt before a shift brackets to nonzero, and the pool holds d
    # shifts among hundreds of tilts, so shifts get drawn half the time
    letters = st.one_of(st.sampled_from(pool[: cfg.d]), st.sampled_from(pool))
    seq = data.draw(st.lists(letters, max_size=5))
    lie = data.draw(st.sampled_from([bracket, zero_op]))
    strategy = data.draw(st.sampled_from(["leftmost", "rightmost"]))
    got = pbw_normal_form(seq, lie, cfg, strategy=strategy)
    assert got == brute_pbw_normal_form(seq, lie, cfg, strategy=strategy)


@pytest.mark.parametrize("cfg", PBW_CFGS)
def test_integer_pbw_rank_sorts_like_the_exact_degree(cfg):
    pool = basis_pool(cfg, gamma_limit=Fraction(2), max_norm=2)
    backwards = pool[::-1]
    by_int = sorted(backwards, key=lambda k: pbw_rank(k, cfg))
    assert by_int == sorted(backwards, key=lambda k: brute_pbw_rank(k, cfg))
    assert len({pbw_rank(k, cfg) for k in pool}) == len(pool)
    assert all(isinstance(pbw_rank(k, cfg)[1], int) for k in pool)


@pytest.mark.parametrize("d", [2, 3])
def test_the_commuting_rule_is_the_zero_bracket(d):
    # the decoration enters the bracket only as the factor a1 * a2, so a low
    # decoration slice with every lowering order up to 3 meets each key shape
    cfg = Config(d, Fraction(1, 2))
    pool = basis_pool(cfg, gamma_limit=Fraction(1), max_norm=3)
    for x in pool:
        for y in pool:
            zero = bracket(LElement.single(x), LElement.single(y), cfg).is_zero
            assert _keys_commute(x, y) == zero, (x, y)


# -- the action and the star against their defining recursion ----------------


def _draw_alphabet(data, cfg: Config) -> list:
    pool = PBW_POOLS[cfg]
    # shifts are d keys among hundreds, and only they bracket or lower a
    # tilt, so they are drawn half the time; a few letters per example make
    # repeated letters, and so splits with multiplicities, common
    letters = st.one_of(st.sampled_from(pool[: cfg.d]), st.sampled_from(pool))
    return data.draw(st.lists(letters, min_size=1, max_size=4))


def _draw_word(data, alphabet: list, max_len: int):
    return data.draw(st.lists(st.sampled_from(alphabet), max_size=max_len).map(sym_word))


@pytest.mark.parametrize("struct", [STRUCT_JZ, STRUCT_BTR], ids=["jz", "btr"])
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_action_and_star_match_the_unmemoized_recursion(struct, data):
    cfg = data.draw(st.sampled_from(PBW_CFGS))
    alphabet = _draw_alphabet(data, cfg)
    u, v = _draw_word(data, alphabet, 3), _draw_word(data, alphabet, 3)
    assert ext_action_word(struct, u, v, cfg) == brute_ext_action_word(struct, u, v, cfg)
    assert star_word(struct, u, v, cfg) == brute_star_word(struct, u, v, cfg)
    u2, v2 = _draw_word(data, alphabet, 2), _draw_word(data, alphabet, 2)
    ue = SymElement.from_terms([(u, 2), (u2, Fraction(-1, 3))])
    ve = SymElement.from_terms([(v, 1), (v2, 3)])
    expect = SymElement.zero()
    for a, ca in ue.terms:
        for b, cb in ve.terms:
            expect = expect + brute_star_word(struct, a, b, cfg).scale(ca * cb)
    assert star(struct, ue, ve, cfg) == expect


@pytest.mark.parametrize("struct", [STRUCT_JZ, STRUCT_BTR], ids=["jz", "btr"])
@pytest.mark.parametrize(
    "u,v",
    [((P1, P1), (Z0D10,)), ((P1, P1), (Z0D10, Z0D10)), ((P1, P1, Z0D0), (Z0D10, ZN))],
    ids=["star", "action", "both"],
)
def test_repeated_letters_split_with_their_multiplicity(struct, u, v):
    u, v = sym_word(u), sym_word(v)
    assert ext_action_word(struct, u, v, CFG) == brute_ext_action_word(struct, u, v, CFG)
    assert star_word(struct, u, v, CFG) == brute_star_word(struct, u, v, CFG)


@pytest.mark.parametrize("struct", [STRUCT_JZ, STRUCT_BTR], ids=["jz", "btr"])
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_action_on_a_tilt_is_the_action_on_its_decoration(struct, data):
    cfg = data.draw(st.sampled_from(PBW_CFGS))
    u = _draw_word(data, _draw_alphabet(data, cfg), 4)
    y = data.draw(st.sampled_from(PBW_POOLS[cfg][cfg.d :]))
    assert ext_action_word(struct, u, (y,), cfg) == brute_letter_action(struct, u, y, cfg)


LETTER_CFGS = [Config(2, Fraction(1, 2)), Config(2, Fraction(1, 3)), Config(3, Fraction(3, 4))]
LETTER_POOLS = {cfg: basis_pool(cfg, gamma_limit=Fraction(1), max_norm=3) for cfg in LETTER_CFGS}
ACTED_POOLS = {cfg: basis_pool(cfg, gamma_limit=Fraction(3, 2), max_norm=3) for cfg in LETTER_CFGS}


def _draw_lowering_word(data, cfg: Config, y, max_forced: int, max_len: int):
    """Up to n_i + 1 copies of each P_i that lowers y, max_forced at most,
    so the lowering sum of btr runs past n_i; the rest of the max_len
    letters drawn from the pool, so that decorated letters act as well."""
    forced = []
    if isinstance(y, Tilt):
        for i, ni in enumerate(y.n, start=1):
            forced += [Shift(i)] * data.draw(st.integers(0, ni + 1))
    forced = forced[:max_forced]
    pool = st.sampled_from(LETTER_POOLS[cfg])
    return sym_word(forced + data.draw(st.lists(pool, max_size=max_len - len(forced))))


@pytest.mark.parametrize("struct", [STRUCT_JZ, STRUCT_BTR], ids=["jz", "btr"])
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_action_on_one_letter_matches_the_closed_form(struct, data):
    cfg = data.draw(st.sampled_from(LETTER_CFGS), label="cfg")
    y = data.draw(st.sampled_from(ACTED_POOLS[cfg]), label="y")
    u = _draw_lowering_word(data, cfg, y, 4, 6)
    assert ext_action_word(struct, u, (y,), cfg) == brute_letter_action(struct, u, y, cfg)


@pytest.mark.parametrize("struct", [STRUCT_JZ, STRUCT_BTR], ids=["jz", "btr"])
@pytest.mark.parametrize("cfg", [LETTER_CFGS[0], LETTER_CFGS[2]], ids=["d2", "d3"])
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_action_on_one_letter_matches_the_peel_recursion(struct, cfg, data):
    # the draws of the closed-form test, on shorter words: the peel
    # (x rest) > y = x > (rest > y) - (x > rest) > y is not memoized
    y = data.draw(st.sampled_from(ACTED_POOLS[cfg]), label="y")
    u = _draw_lowering_word(data, cfg, y, 4, 5)
    assert ext_action_word(struct, u, (y,), cfg) == brute_ext_action_word(struct, u, (y,), cfg)


def _same_derivation(pool: list, key, data):
    """Another tilt of the pool with the derivation of key, or key itself
    when the pool holds none."""
    others = [k for k in pool if isinstance(k, Tilt) and k.n == key.n and k != key]
    return data.draw(st.sampled_from(others)) if others else key


@pytest.mark.parametrize("struct", [STRUCT_JZ, STRUCT_BTR], ids=["jz", "btr"])
@pytest.mark.parametrize("cfg", [LETTER_CFGS[0], LETTER_CFGS[2]], ids=["d2", "d3"])
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_words_that_share_their_derivations_act_by_their_own_decorations(struct, cfg, data):
    # u and u2 have the same shifts and tilt derivations but other tilt
    # decorations, y and y2 the same D^(n) but other decorations: the four
    # actions share their derivation terms, and each must still read its
    # own z^front and z^gamma; u draws tilts with |n| <= 1, since a
    # D^(n) with |n| > 1 kills every decoration of the acted pool
    tilts = [k for k in LETTER_POOLS[cfg] if isinstance(k, Tilt) and sum(k.n) <= 1]
    y = data.draw(st.sampled_from(ACTED_POOLS[cfg][cfg.d :]), label="y")
    y2 = _same_derivation(ACTED_POOLS[cfg], y, data)
    # few letters, so that the actions are seldom zero; two at least, so
    # that they take the closed form
    u = list(_draw_lowering_word(data, cfg, y, 2, 2))
    u += data.draw(st.lists(st.sampled_from(tilts), min_size=max(1, 2 - len(u)), max_size=2))
    u2 = [_same_derivation(tilts, k, data) if isinstance(k, Tilt) else k for k in u]
    u, u2 = sym_word(u), sym_word(u2)
    for word in (u, u2):
        for letter in (y, y2):
            got = ext_action_word(struct, word, (letter,), cfg)
            assert got == brute_ext_action_word(struct, word, (letter,), cfg)


@pytest.mark.parametrize(
    "struct,expect",
    [
        (STRUCT_JZ, "2 [z{k1:1,(2,0):1}xD(2,0)] + 2 [z{k2:1,(1,0):2}xD(2,0)]"),
        (
            STRUCT_BTR,
            "2 [z{k0:1}xD(0,0)] - 4 [z{k1:1,(1,0):1}xD(1,0)]"
            " + 2 [z{k1:1,(2,0):1}xD(2,0)] + 2 [z{k2:1,(1,0):2}xD(2,0)]",
        ),
    ],
    ids=["jz", "btr"],
)
def test_two_shifts_on_a_letter_lower_it_twice_once_or_not(struct, expect):
    # both copies of P1 lower D(2,0) (t = 2), one does (t = 1), or both act
    # on the decoration (t = 0); jz keeps only t = 0
    u = sym_word(parse_word("[P1][P1]", 2))
    y = parse_word("[z{k0:1}xD(2,0)]", 2)
    assert print_sym_element(ext_action_word(struct, u, y, CFG), CFG) == expect


def test_the_action_memo_holds_no_empty_word():
    import postliemi.enveloping as env

    u, v = w(P1, P1, Z0D0), w(Z0D10, ZN)
    for struct in (STRUCT_JZ, STRUCT_BTR):
        assert star_word(struct, u, v, CFG) == brute_star_word(struct, u, v, CFG)
    assert env._ACTION_CACHE
    assert all(key[1] and key[2] for key in env._ACTION_CACHE)


@pytest.mark.parametrize("struct", [STRUCT_JZ, STRUCT_BTR], ids=["jz", "btr"])
@pytest.mark.parametrize(
    "bad", [Tilt(MultiIndex.single(0), (0, 0, 0)), Shift(3)], ids=["tilt-d3", "shift-3"]
)
def test_a_letter_of_the_wrong_dimension_is_refused_on_either_side(struct, bad):
    for good in (P1, Z0D10):
        with pytest.raises(DimensionMismatch):
            star_word(struct, (good,), (bad,), CFG)
        with pytest.raises(DimensionMismatch):
            star_word(struct, (bad,), (good,), CFG)
        with pytest.raises(DimensionMismatch):
            ext_action_word(struct, sym_word((good, bad)), (Z0D10,), CFG)


# -- word splittings ---------------------------------------------------------


@given(st.lists(st.sampled_from(LETTERS), max_size=6).map(sym_word))
def test_word_splits_match_the_position_subsets(word):
    triples = list(splits(word_mults(word)))
    got = {(left, right): mult for left, right, mult in triples}
    assert len(got) == len(triples)
    assert got == brute_word_splits(word)
    for left, right, _ in triples:
        assert type(left) is tuple and left == sym_word(left)
        assert type(right) is tuple and right == sym_word(right)


@given(
    st.sampled_from(LETTERS),
    st.integers(3, 5),
    st.lists(st.sampled_from(LETTERS), max_size=3),
)
def test_word_splits_of_a_letter_repeated_three_times_or_more(x, m, rest):
    word = sym_word([x] * m + rest)
    mults = word_mults(word)
    triples = list(splits(mults))
    assert {(left, right): mult for left, right, mult in triples} == brute_word_splits(word)
    # the left multiplicities run in lex order, the first letter's slowest
    lefts = [tuple(left.count(y) for y, _ in mults) for left, _, _ in triples]
    assert lefts == sorted(lefts) and len(set(lefts)) == len(lefts)


# -- phi ---------------------------------------------------------------------


def test_phi_on_letters_and_pairs():
    assert phi(STRUCT_BTR, (P1,), CFG) == elem(P1)
    assert phi(STRUCT_JZ, (P1, Z0D0), CFG) == star(
        STRUCT_JZ, elem(P1), elem(Z0D0), CFG
    )
    triple = phi(STRUCT_BTR, (P1, Z0D0, Z0D10), CFG)
    nested = star(
        STRUCT_BTR, elem(P1), star(STRUCT_BTR, elem(Z0D0), elem(Z0D10), CFG), CFG
    )
    assert triple == nested


# -- polynomial product and pairing ------------------------------------------


def test_poly_star_merges_multisets():
    assert poly_star(elem(P1, P1), elem(P1)) == elem(P1, P1, P1)
    assert poly_star(SymElement.unit(), elem(Z0D0)) == elem(Z0D0)
    assert poly_star(elem(P1), elem(Z0D0)) == elem(P1, Z0D0)


def test_tmap_scales_by_symmetry():
    half_square = SymElement.single(w(P1, P1), Fraction(1, 2))
    assert tmap(half_square) == elem(P1, P1)


def test_pairing_is_diagonal_with_factorials():
    assert pairing(elem(P1), elem(Z0D0)) == 0
    assert pairing(SymElement.unit(), SymElement.unit()) == 1
    assert pairing(elem(P1, P1, Z0D0), elem(P1, P1, Z0D0)) == 2
    assert sigma(w(P1, P1, Z0D0)) == 2


# -- dual coproduct ----------------------------------------------------------


@pytest.mark.parametrize(
    "cfg,limit",
    [
        (CFG, Fraction(3, 2)),
        (Config(3, Fraction(1, 2)), Fraction(3, 2)),
        (CFG34, Fraction(5, 2)),
    ],
    ids=lambda v: f"d{v.d}-{v.alpha}" if isinstance(v, Config) else str(v),
)
def test_every_coaction_word_lies_in_the_graded_subalgebra(cfg, limit):
    # dual_coproduct_letter reads its words from the coaction unfiltered
    gammas = {k.gamma for k in basis_pool(cfg, gamma_limit=limit) if isinstance(k, Tilt)}
    words = [r.word for g in gammas for r in coaction_contributions(g, cfg)]
    assert len(words) > len(gammas)
    assert all(key_in_L(k, cfg) for word in words for k in word)


def test_dual_coproduct_of_the_unit():
    assert dual_coproduct(w(), CFG) == TensorElement.single(w(), w())


def test_dual_coproduct_of_a_graded_letter():
    target = w(Z0D0)
    got = dual_coproduct(target, CFG)
    empty = w()
    assert got == TensorElement.from_terms(
        [((target, empty), 1), ((empty, target), 1)]
    )


def test_dual_coproduct_rejects_letters_outside_the_subalgebra():
    with pytest.raises(ValueError):
        dual_coproduct(w(Tilt(MultiIndex.single((1, 0)), (1, 0))), CFG)


def test_dual_coproduct_is_multiplicative():
    w1, w2 = w(Z0D0), w(P1)
    merged = dual_coproduct(sym_word(w1 + w2), CFG)
    split = tensor_poly_star(dual_coproduct(w1, CFG), dual_coproduct(w2, CFG))
    assert merged == split


def test_truncation_refusal_and_acceptance():
    target = w(Tilt(MultiIndex.single(0, 2), (1, 0)), Z0D0)
    with pytest.raises(TruncationRefused):
        dual_coproduct(target, CFG34, TruncationParams(max_word_len=1))
    wide = TruncationParams(max_word_len=9, max_letter_degree=Fraction(9))
    assert dual_coproduct(target, CFG34, wide) == dual_coproduct(target, CFG34)


# words of one and two letters from the oracle alphabet, which holds every
# letter of a contributing pair: each such letter has a decoration of degree
# at most the largest |gamma| of the word
@pytest.mark.parametrize(
    "cfg,texts",
    [
        # the only leg letter is the letter itself, of degree 1/2
        (CFG, ["z{k0:1}xD(0,0)"]),
        (CFG, ["P1", "z{k1:1,k2:1}xD(0,0)"]),
        (CFG, ["z{k0:1}xD(0,0)", "z{(1,0):1}xD(0,0)"]),
        # a left leg of two letters from a single letter
        (CFG, ["z{k0:2,k2:1}xD(0,0)"]),
        (CFG34, ["z{k0:1,k1:1}xD(0,0)"]),
        (CFG34, ["z{k0:2}xD(1,0)", "z{k0:1}xD(0,0)"]),
        (CFG34, ["P2", "z{k0:2}xD(0,1)"]),
        (Config(3, Fraction(3, 4)), ["z{k0:1,k1:1}xD(0,0,0)"]),
    ],
    ids=lambda v: "".join(f"[{t}]" for t in v) if isinstance(v, list) else _ids(v),
)
def test_truncation_bounds_are_the_figures_of_the_pair_scan(cfg, texts):
    target = sym_word(parse_l_key(t, cfg.d) for t in texts)
    max_gamma = max(hom_value(x.gamma, cfg) for x in target if isinstance(x, Tilt))
    letters = brute_letters(max_gamma, cfg)
    assert set(target) <= set(letters)
    expect = brute_dual_coproduct(target, letters, cfg)
    legs = [leg for pair in expect for leg in pair]
    need_len = max(len(leg) for leg in legs)
    need_deg = max(letter_degree(k).value(cfg) for leg in legs for k in leg)
    exact = TruncationParams(max_word_len=need_len, max_letter_degree=need_deg)
    assert {pair: c for pair, c in dual_coproduct(target, cfg, exact).terms} == expect
    with pytest.raises(TruncationRefused, match=f"the required {need_len}$"):
        dual_coproduct(target, cfg, TruncationParams(max_word_len=need_len - 1))
    # degrees a*alpha + b with alpha = p/q step by 1/q: the next value below
    below = need_deg - Fraction(1, cfg.alpha.denominator)
    with pytest.raises(TruncationRefused, match=f"the required {need_deg}$"):
        dual_coproduct(target, cfg, TruncationParams(max_letter_degree=below))


def test_dual_coproduct_matches_the_pair_scan():
    letters = brute_letters(Fraction(3, 2), CFG34)
    for target in [
        w(Tilt(MultiIndex.single(0, 2), (1, 0))),
        w(Z0D0, P1),
        w(Tilt(MultiIndex.single(0, 2), (0, 1)), Z0D0),
    ]:
        expect = brute_dual_coproduct(target, letters, CFG34)
        got = {pair: c for pair, c in dual_coproduct(target, CFG34).terms}
        assert got == expect


def test_dual_coproduct_matches_the_exhaustive_table_where_degrees_tie():
    table = brute_dual_table(brute_letters(Fraction(1), CFG), Fraction(1), CFG)
    assert len(table) == 20
    for target, expect in table.items():
        got = {pair: c for pair, c in dual_coproduct(target, CFG).terms}
        assert got == expect


@pytest.mark.parametrize("alpha,count", [(Fraction(1, 2), 22), (Fraction(3, 4), 9)])
def test_dual_coproduct_matches_the_exhaustive_table_at_d3(alpha, count):
    cfg = Config(3, alpha)
    table = brute_dual_table(brute_letters(Fraction(1), cfg), Fraction(1), cfg)
    assert len(table) == count
    for target, expect in table.items():
        got = {pair: c for pair, c in dual_coproduct(target, cfg).terms}
        assert got == expect


def _t3(gdict, n):
    return Tilt(MultiIndex.from_dict(gdict), n)


Z0D000 = _t3({0: 1}, (0, 0, 0))


@pytest.mark.parametrize(
    "alpha,max_gamma,letters",
    [
        # decorations up to 3/2 on one and two letters, direction keys of d=3
        (Fraction(3, 4), Fraction(3, 2), (_t3({0: 2}, (1, 0, 0)),)),
        (Fraction(3, 4), Fraction(3, 2), (Z0D000, Shift(3))),
        (Fraction(3, 4), Fraction(3, 2), (_t3({0: 2}, (0, 0, 1)), Z0D000)),
        (Fraction(3, 4), Fraction(3, 2), (_t3({(0, 1, 0): 1}, (0, 0, 0)), Shift(1))),
        (Fraction(3, 4), Fraction(3, 2), (_t3({(0, 0, 1): 1}, (0, 0, 0)), _t3({1: 1}, (0, 0, 0)))),
        (Fraction(1, 2), Fraction(1), (Z0D000, Shift(3))),
        (Fraction(1, 2), Fraction(1), (_t3({0: 1, 1: 1}, (0, 0, 0)), Z0D000)),
        (Fraction(1, 2), Fraction(1), (_t3({(0, 1, 0): 1}, (0, 0, 0)), Shift(1))),
        (Fraction(1, 2), Fraction(1), (_t3({(0, 0, 1): 1}, (0, 0, 0)), _t3({1: 1}, (0, 0, 0)))),
        (Fraction(1, 2), Fraction(3, 2), (_t3({0: 1, (0, 0, 1): 1}, (1, 0, 0)),)),
    ],
)
def test_dual_coproduct_matches_the_pair_scan_at_d3(alpha, max_gamma, letters):
    cfg = Config(3, alpha)
    target = sym_word(list(letters))
    expect = brute_dual_coproduct(target, brute_letters(max_gamma, cfg), cfg)
    got = {pair: c for pair, c in dual_coproduct(target, cfg).terms}
    assert got == expect
    if len(letters) > 1:
        assert len(got) > 2  # more than the primitive part 1 (x) w + w (x) 1


# -- the dual coproduct read from the coaction of the decoration --------------


def _extra_shift_terms(t, x):
    """Terms u (x) z^beta D^(n + t) with t != 0: u holds shifts that act on
    the lowering order of the right letter alone."""
    return [(u, y) for (u, y), _ in t.terms if y and y[0].n != x.n]


def _ids(v):
    if isinstance(v, Config):
        return f"d{v.d}-{v.alpha}"
    if isinstance(v, bool):
        return "split-shifts" if v else "whole-shifts"
    return v


# every letter of a contributing pair has a decoration of degree at most
# |gamma| and counting keys no higher than gamma's, so this alphabet is whole
@pytest.mark.parametrize(
    "cfg,text",
    [(CFG, t) for t in ["z{k0:1,(1,0):1}xD(0,0)", "z{k2:1,(0,1):1}xD(0,0)"]]
    + [
        (CFG34, t)
        for t in [
            "z{k0:1,k1:1}xD(0,0)",
            "z{k0:2}xD(0,0)",
            "z{k1:1,k2:1}xD(0,0)",
            "z{k1:2}xD(0,0)",
            "z{k0:1,k3:1}xD(0,0)",
            "z{k0:1,(0,1):1}xD(0,0)",
            "z{k1:1,(1,0):1}xD(0,0)",
            "z{k2:1,(0,1):1}xD(0,0)",
        ]
    ]
    + [
        (Config(3, Fraction(3, 4)), t)
        for t in [
            "z{k0:1,k1:1}xD(0,0,0)",
            "z{k0:1,k2:1}xD(0,0,0)",
            "z{k0:2}xD(0,0,0)",
            "z{k1:1,k2:1}xD(0,0,0)",
            "z{k1:2}xD(0,0,0)",
        ]
    ],
    ids=_ids,
)
def test_dual_coproduct_with_extra_shifts_matches_the_pair_scan(cfg, text):
    x = parse_l_key(text, cfg.d)
    got = dual_coproduct((x,), cfg)
    assert _extra_shift_terms(got, x)
    max_k = max((k for k, _ in x.gamma.k_entries()), default=-1)
    letters = brute_letters(hom_value(x.gamma, cfg), cfg, max_k)
    assert {pair: c for pair, c in got.terms} == brute_dual_coproduct((x,), letters, cfg)


@pytest.mark.parametrize(
    "cfg,text,binomial",
    [
        # the recursion over an un-grafting closure overflowed the stack here
        (
            Config(8, Fraction(3, 4)),
            "z{k0:2,(1,0,0,0,0,0,0,0):1,(0,1,0,0,0,0,0,0):1}xD(1,1,0,0,0,0,0,0)",
            False,
        ),
        # words whose shifts split between the coaction word and the lowering
        (CFG, "z{k0:1,(1,1):1}xD(0,0)", True),
        (CFG, "z{k0:2,k1:1,(1,0):1}xD(0,0)", True),
    ],
    ids=_ids,
)
def test_each_dual_coproduct_term_is_its_defining_pairing(cfg, text, binomial):
    x = parse_l_key(text, cfg.d)
    got = dual_coproduct((x,), cfg)
    assert got.coeff((x,), ()) == 1
    split = False
    for (u, y), c in got.terms:
        if y:
            # the oracle's closed form, not the library's: the action and the
            # extra shifts of the dual coproduct share the lowering coefficient
            assert c == brute_letter_action(STRUCT_BTR, u, y[0], cfg).coeff((x,)) / sigma(u)
            t = [a - b for a, b in zip(y[0].n, x.n)]
            split |= any(t_i and u.count(Shift(i + 1)) > t_i for i, t_i in enumerate(t))
    assert _extra_shift_terms(got, x)
    assert split == binomial


def test_clear_memos_empties_every_table_and_keeps_results():
    import postliemi
    import postliemi.enveloping as env
    import postliemi.representation as rep
    from postliemi.representation import coaction_contributions, rho_bar_word

    def compute():
        x = parse_l_key("z{k0:2,(1,0):1}xD(0,0)", 2)
        g = MultiIndex.from_dict({0: 2, (1, 0): 1})
        return (
            dual_coproduct((x, P1), CFG34),
            coaction_contributions(g, CFG34),
            star(STRUCT_BTR, elem(x), elem(Z0D10), CFG34),
            # the coaction reads the transpose only; the forward psi table
            # is filled by the action of a word
            rho_bar_word(STRUCT_BTR, (P1, x), Polynomial.monomial(g), CFG34),
            # a word of two letters on one letter reads the derivation table
            ext_action_word(STRUCT_JZ, w(P1, x), (x,), CFG34),
        )

    tables = [
        env._ACTION_CACHE,
        env._LETTER_TABLE,
        env._DUAL_LETTER_CACHE,
        rep._PSI_CACHE,
        rep._PSI_ADJOINT_CACHE,
    ]
    before = compute()
    assert all(tables)
    postliemi.clear_memos()
    assert not any(tables)
    assert compute() == before


# -- text form ---------------------------------------------------------------


def test_word_round_trip():
    word = w(P1, Z0D10, Z0D10)
    assert parse_word(print_word(word), d=2) == word
    assert print_word(w()) == "1"
