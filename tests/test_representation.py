"""Action of words on polynomials: the basic representation, its deformed
extension, the recursion behind it, and the coaction enumeration."""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postliemi.multiindex import Config, MultiIndex, enumerate_below_value, hom_value, homogeneity
from postliemi.polyalg import Polynomial, grade_components
from postliemi.derivations import (
    DOp,
    Partial,
    _adjoint_monomial,
    apply_to_monomial,
    apply_word,
    derivation_degree,
    diamond,
)
from postliemi.postlie import LElement, Shift, Tilt, grand_bracket
from postliemi.enveloping import STRUCT_BTR, STRUCT_JZ, sigma, star_word, sym_word
from postliemi.representation import (
    Contribution,
    _ladder_weight,
    _psi_adjoint,
    coaction_contributions,
    psi_apply,
    rho,
    rho_bar,
    rho_bar_word,
    rho_hat,
)

from oracles import brute_coaction, brute_letters, brute_psi_word, brute_rho_bar_word, brute_slice

CFG = Config(2, Fraction(1, 2))
CFG34 = Config(2, Fraction(3, 4))
CFG3 = Config(3, Fraction(3, 4))
CFG3_HALF = Config(3, Fraction(1, 2))
CFG8 = Config(8, Fraction(3, 4))


def mono(key, mult=1):
    return Polynomial.monomial(MultiIndex.single(key, mult))


def lelem(key, c=1):
    return LElement.single(key, c)


Z0D0 = Tilt(MultiIndex.single(0), (0, 0))
P1 = Shift(1)

l_keys = st.sampled_from(
    [
        Shift(1),
        Shift(2),
        Z0D0,
        Tilt(MultiIndex.single(0), (1, 0)),
        Tilt(MultiIndex.single(0, 2), (0, 1)),
        Tilt(MultiIndex.single((1, 0)), (0, 0)),
    ]
)
polys = st.lists(
    st.tuples(
        st.dictionaries(
            st.one_of(st.integers(0, 2), st.sampled_from([(1, 0), (0, 1)])),
            st.integers(1, 2),
            max_size=2,
        ).map(MultiIndex.from_dict),
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
    ),
    max_size=3,
).map(Polynomial.from_terms)


# -- the basic representation ------------------------------------------------


def test_rho_multiplies_after_acting():
    assert rho(lelem(Z0D0), mono(0), CFG) == mono(0) * mono(1)


@given(polys)
def test_rho_of_a_shift_is_the_bare_derivation(p):
    from postliemi.derivations import apply as apply_d

    assert rho(lelem(P1), p, CFG) == apply_d(Partial(1), p, CFG)


@given(l_keys)
def test_rho_kills_constants(key):
    assert rho(lelem(key), Polynomial.one(), CFG).is_zero


@given(l_keys, l_keys, polys)
def test_rho_is_a_lie_morphism_for_the_grand_bracket(k1, k2, p):
    x, y = lelem(k1), lelem(k2)
    lhs = rho(grand_bracket(x, y, CFG), p, CFG)
    rhs = rho(x, rho(y, p, CFG), CFG) - rho(y, rho(x, p, CFG), CFG)
    assert lhs == rhs


# -- iterated composition ----------------------------------------------------


@given(polys)
def test_empty_composition_is_the_identity(p):
    assert rho_hat((), p, CFG) == p


def test_two_step_composition():
    got = rho_hat((Z0D0, P1), mono((1, 0)), CFG)
    by_hand = rho(lelem(Z0D0), rho(lelem(P1), mono((1, 0)), CFG), CFG)
    assert got == by_hand
    assert got.is_zero


@given(l_keys, polys)
def test_single_letter_composition_is_rho(key, p):
    assert rho_hat((key,), p, CFG) == rho(lelem(key), p, CFG)


# -- the deformed recursion --------------------------------------------------


def test_length_one_is_the_plain_action():
    p = mono(0) * mono((1, 0))
    assert psi_apply([DOp((1, 0))], p, CFG) == mono(0)


def test_correction_term_shows_up():
    p = mono(0) * mono((1, 0))
    got = psi_apply([Partial(1), DOp((1, 0))], p, CFG)
    assert got == (mono(1) * mono((1, 0))).scale(2)


def test_commuting_tilts_reduce_to_composition():
    word = [DOp((1, 0)), DOp((0, 1)), DOp((0, 0))]
    p = mono((1, 0)) * mono((0, 1)) * mono(0)
    assert psi_apply(word, p, CFG) == apply_word(word, p, CFG)


@given(polys)
def test_deformed_action_of_the_empty_word(p):
    assert rho_bar_word(STRUCT_BTR, sym_word(()), p, CFG) == p


def test_decorations_multiply_after_the_recursion():
    word = sym_word((Z0D0, P1))
    for p in (mono((1, 0)), mono(0) * mono((0, 1)), Polynomial.one()):
        expect = mono(0) * psi_apply([Partial(1), DOp((0, 0))], p, CFG)
        assert rho_bar_word(STRUCT_BTR, word, p, CFG) == expect


def test_deformed_action_is_a_star_morphism():
    u = sym_word((P1,))
    v = sym_word((Z0D0,))
    p = mono((1, 0), 2)
    direct = rho_bar(STRUCT_BTR, star_word(STRUCT_BTR, u, v, CFG), p, CFG)
    nested = rho_bar_word(STRUCT_BTR, u, rho_bar_word(STRUCT_BTR, v, p, CFG), CFG)
    assert direct == nested


@settings(max_examples=50)
@given(st.lists(st.sampled_from([Partial(1), Partial(2), DOp((0, 0)), DOp((1, 0)), DOp((1, 1))]), max_size=3), polys)
def test_recursion_respects_the_grading(word, p):
    image = psi_apply(word, p, CFG)
    if image.is_zero:
        return
    shift = sum((derivation_degree(D) for D in word), start=homogeneity(MultiIndex.zero()))
    for h, part in grade_components(image).items():
        source = h - shift
        assert any(homogeneity(g) == source for g, _ in p.terms)


# -- the transposed action ---------------------------------------------------
#
# <D z^g, z^h> read off both ways: the forward action from g, the adjoint
# from h.  Every forward entry must appear in the adjoint with its
# coefficient, and every adjoint entry must be confirmed by the forward action.

ADJOINT_CASES = {
    2: (
        [Partial(1), Partial(2), DOp((0, 0)), DOp((1, 0)), DOp((0, 1)), DOp((1, 1)), DOp((2, 0))],
        [(1, 0), (0, 1), (1, 1), (2, 0)],
    ),
    3: (
        [Partial(1), Partial(3), DOp((0, 0, 0)), DOp((1, 0, 0)), DOp((0, 0, 1)), DOp((1, 0, 1))],
        [(1, 0, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1), (0, 0, 2)],
    ),
}


def adjoint_cfg(d):
    return CFG34 if d == 2 else CFG3


def _assert_transposed(D, h, cfg):
    adj = _adjoint_monomial(D, h, cfg)
    assert len({g for g, _ in adj}) == len(adj)
    for g, c in adj:
        assert c != 0 and dict(apply_to_monomial(D, g, cfg)).get(h) == c


def _branch(D, g, h) -> str:
    if isinstance(D, DOp):
        return "lowering" if any(D.n) else "ladder"
    return "shift ladder" if g.k_entries() != h.k_entries() else "shift raising"


@pytest.mark.parametrize("d", [2, 3])
def test_adjoint_monomial_transposes_every_branch(d):
    derivations, _ = ADJOINT_CASES[d]
    cfg = adjoint_cfg(d)
    reached = set()
    for g in brute_slice(Fraction(2), cfg):
        for D in derivations:
            for h, c in apply_to_monomial(D, g, cfg):
                assert dict(_adjoint_monomial(D, h, cfg)).get(g) == c
                _assert_transposed(D, h, cfg)
                reached.add(_branch(D, g, h))
            _assert_transposed(D, g, cfg)
    assert reached == {"ladder", "lowering", "shift ladder", "shift raising"}


@pytest.mark.parametrize(
    "D, h, expect",
    [
        # ladder D(0): z_1 z_2 comes from z_0 z_2 (1 * 1) and from z_1^2 (2 * 2)
        (DOp((0, 0)), {1: 1, 2: 1}, {(0, 2): 1, (1, 1): 4}),
        # lowering D(n): z_0 comes from z_0 z_(1,0), coefficient g_(1,0) = 1
        (DOp((1, 0)), {0: 1}, {(0, (1, 0)): 1}),
        (DOp((1, 0)), {(1, 0): 1}, {((1, 0), (1, 0)): 2}),
        # ladder branch of P1: the e_(e_1) it adds is taken off, then the ladder
        (Partial(1), {1: 1, (1, 0): 1}, {(0,): 1}),
        # raising branch of P1: n' = (2,0) comes from n = (1,0), coefficient n'_1 = 2
        (Partial(1), {(2, 0): 1}, {((1, 0),): 2}),
        (Partial(2), {(1, 1): 1, (1, 0): 1}, {((1, 0), (1, 0)): 2}),
        # n' = e_1 would come from the zero vector, which is no key
        (Partial(1), {(1, 0): 1}, {}),
        (Partial(2), {(0, 1): 2}, {}),
    ],
)
def test_adjoint_monomial_by_branch(D, h, expect):
    h = MultiIndex.from_dict(h)
    want = {}
    for keys, c in expect.items():
        g = MultiIndex.sum_of(MultiIndex.single(k) for k in keys)
        want[g] = Fraction(c)
    assert dict(_adjoint_monomial(D, h, CFG34)) == want
    _assert_transposed(D, h, CFG34)


def _adjoint_strategy(d):
    derivations, directions = ADJOINT_CASES[d]
    monomials = st.dictionaries(
        st.one_of(st.integers(0, 2), st.sampled_from(directions)), st.integers(1, 2), max_size=3
    ).map(MultiIndex.from_dict)
    letters = st.sampled_from(derivations)
    plain = st.tuples(st.lists(letters, max_size=3).map(tuple), monomials)
    # Partial(i) ahead of a D(n) with n_i > 0, where the diamond term
    # D(n - e_i) lives, on a source that neither D(n) nor D(n - e_i) kills
    pairs = [(P, D) for P in derivations for D in derivations if diamond(P, D).terms]
    shift_first = st.tuples(st.sampled_from(pairs), st.lists(letters, max_size=1), monomials).map(
        _diamond_case
    )
    return st.tuples(st.one_of(plain, shift_first), monomials).map(lambda t: (*t[0], t[1]))


def _acted_on(D):
    """A monomial that D does not kill: z_0 for the ladder, z_n for D(n)."""
    return MultiIndex.single(D.n if any(D.n) else 0)


def _diamond_case(drawn):
    (P, D), extra, base = drawn
    lowered = diamond(P, D).terms[0][0]
    return (P, D, *extra), base + _acted_on(D) + _acted_on(lowered)


@pytest.mark.parametrize("d", [2, 3])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_psi_adjoint_is_the_transpose_of_the_recursion(d, data):
    ds, beta, gamma = data.draw(_adjoint_strategy(d))
    cfg = adjoint_cfg(d)
    image = brute_psi_word(ds, beta, cfg)
    for h in [h for h, _ in image.terms] + [gamma]:
        adj = _psi_adjoint(ds, h, cfg)
        assert adj.get(beta, 0) == image.coeff(h)
        for source, c in adj.items():
            assert c != 0 and brute_psi_word(ds, source, cfg).coeff(h) == c


def test_psi_adjoint_is_empty_where_a_degree_invariant_fails():
    # the two necessary conditions that prune the coaction, read off (ds, h)
    # alone: K(h) >= the number of ladders D(0) in ds; and when h has no
    # counting key, the shift count is at most b(h) + sum |n| - N(h) - T,
    # with T the number of D(n) in ds and N(h) the direction factors of h
    alphabet = [Partial(1), Partial(2)] + [DOp(n) for n in ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))]
    words = [w for size in range(4) for w in combinations_with_replacement(alphabet, size)]
    at_ladder_bound = at_shift_bound = 0
    for h in enumerate_below_value(Fraction(3), CFG34):
        for ds in words:
            adj = _psi_adjoint(ds, h, CFG34)
            tilts = [D for D in ds if isinstance(D, DOp)]
            slack = _ladder_weight(h) - sum(1 for D in tilts if not any(D.n))
            assert slack >= 0 or not adj
            at_ladder_bound += slack == 0 and bool(adj)
            if not h.k_entries():
                top = homogeneity(h).b + sum(sum(D.n) for D in tilts) - h.total() - len(tilts)
                shifts = len(ds) - len(tilts)
                assert shifts <= top or not adj
                at_shift_bound += shifts == top and bool(adj)
    # neither bound can be tightened by one
    assert at_ladder_bound and at_shift_bound


# -- against the unmemoized evaluator ---------------------------------------

letter_words = st.lists(
    st.sampled_from(
        [
            Shift(1),
            Shift(2),
            Z0D0,
            Tilt(MultiIndex.single(0), (1, 0)),
            Tilt(MultiIndex.single(0, 2), (0, 1)),
            Tilt(MultiIndex.single(1), (0, 0)),
            Tilt(MultiIndex.single((1, 0)), (0, 0)),
            Tilt(MultiIndex.single(0) + MultiIndex.single((0, 1)), (1, 0)),
            Tilt(MultiIndex.single((1, 1)), (1, 0)),
        ]
    ),
    max_size=3,
).map(sym_word)


@pytest.mark.parametrize("cfg", [CFG, CFG34], ids=["alpha=1/2", "alpha=3/4"])
@pytest.mark.parametrize("struct", [STRUCT_BTR, STRUCT_JZ], ids=["btr", "jz"])
@settings(max_examples=40)
@given(word=letter_words, p=polys)
def test_rho_bar_word_matches_the_unmemoized_recursion(struct, cfg, word, p):
    assert rho_bar_word(struct, word, p, cfg) == brute_rho_bar_word(struct, word, p, cfg)


# -- coaction ----------------------------------------------------------------


def test_coaction_on_the_unit_monomial():
    assert coaction_contributions(MultiIndex.zero(), CFG) == (
        Contribution(sym_word(()), MultiIndex.zero(), Fraction(1)),
    )


def test_coaction_on_a_direction_variable():
    target = MultiIndex.single((1, 0))
    assert coaction_contributions(target, CFG) == (
        Contribution(sym_word(()), target, Fraction(1)),
    )


def test_coaction_on_the_squared_variable():
    target = MultiIndex.single(0, 2)
    got = coaction_contributions(target, CFG34)
    tilt10 = Tilt(MultiIndex.single(0, 2), (1, 0))
    tilt01 = Tilt(MultiIndex.single(0, 2), (0, 1))
    assert {(c.word, c.source): c.coeff for c in got} == {
        (sym_word(()), target): Fraction(1),
        (sym_word((tilt10,)), MultiIndex.single((1, 0))): Fraction(1),
        (sym_word((tilt01,)), MultiIndex.single((0, 1))): Fraction(1),
    }


def test_coaction_matches_the_brute_scan():
    for target in sorted(brute_slice(Fraction(3, 2), CFG34), key=lambda g: g.sort_rank()):
        got = {(c.word, c.source): c.coeff for c in coaction_contributions(target, CFG34)}
        assert got == brute_coaction(target, CFG34)


def test_coaction_matches_the_brute_scan_where_degrees_tie():
    # at alpha = 1/2 the degree pairs (2, 0) and (0, 1) have equal value; the
    # last three targets carry a counting key above the slice cap floor(1/alpha)
    targets = sorted(brute_slice(Fraction(1), CFG), key=lambda g: g.sort_rank())
    targets += [MultiIndex.from_dict(m) for m in ({1: 1, 3: 1}, {2: 1, 3: 1}, {3: 2})]
    for target in targets:
        got = {(c.word, c.source): c.coeff for c in coaction_contributions(target, CFG)}
        assert got == brute_coaction(target, CFG)


def test_coaction_matches_the_brute_scan_in_three_dimensions():
    for cutoff, cfg in ((Fraction(3, 2), CFG3), (Fraction(1), CFG3_HALF)):
        targets = sorted(brute_slice(cutoff, cfg), key=lambda g: g.sort_rank())
        assert len(targets) == 13
        for target in targets:
            got = {(c.word, c.source): c.coeff for c in coaction_contributions(target, cfg)}
            assert got == brute_coaction(target, cfg)


def test_coaction_matches_the_brute_scan_in_eight_dimensions():
    targets = sorted(brute_slice(Fraction(1), CFG8), key=lambda g: g.sort_rank())
    assert len(targets) == 11
    for target in targets:
        got = {(c.word, c.source): c.coeff for c in coaction_contributions(target, CFG8)}
        assert got == brute_coaction(target, CFG8)


def test_coaction_matches_the_brute_scan_where_shifts_contribute():
    # z_1 z_n is reached from z_0 by the bare shift in direction n; the slices
    # above are too low in degree for any shift letter to appear
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    targets = [MultiIndex.single(k) + MultiIndex.single(n) for k in (1, 2) for n in units]
    for target in targets:
        got = {(c.word, c.source): c.coeff for c in coaction_contributions(target, CFG3)}
        assert any(isinstance(x, Shift) for word, _ in got for x in word)
        assert got == brute_coaction(target, CFG3)


def test_coaction_matches_the_brute_scan_on_direction_only_targets():
    # with no counting key the shift count is bounded by the direction
    # factors of the source; every term here but the empty word on z_(1,1,0)
    # sits on that bound, the shift terms P_i z_(e_j) -> z_(1,1,0) included
    targets = [
        MultiIndex.single((1, 1, 0)),
        MultiIndex.single((0, 0, 1), 2),
        MultiIndex.single((1, 0, 0)) + MultiIndex.single((0, 1, 0)),
    ]
    for target in targets:
        got = {(c.word, c.source): c.coeff for c in coaction_contributions(target, CFG3)}
        assert got == brute_coaction(target, CFG3)


def test_shifts_in_live_directions_contribute_at_d8():
    # the shifts are spread only over directions of target - front or of a
    # chosen tilt's n: P5 is live in z_k z_(e5) through the target, and P1 in
    # z_0 z_1 z_2 through z_0 z_1 D(1,0) alone, since P1 <> D(1,0) = -D(0,0).
    # A full scan at d=8 takes minutes, so the oracle scans every word of one
    # shift and at most one tilt
    e5 = (0, 0, 0, 0, 1, 0, 0, 0)
    targets = [MultiIndex.single(k) + MultiIndex.single(e5) for k in (1, 2)]
    targets.append(MultiIndex.from_dict({0: 1, 1: 1, 2: 1}))
    shifts = [Shift(i) for i in range(1, 9)]
    for target in targets:
        max_k = max(k for k, _ in target.k_entries())
        tilts = [x for x in brute_letters(hom_value(target, CFG8), CFG8, max_k) if isinstance(x, Tilt)]
        words = [(p,) for p in shifts] + [sym_word((p, t)) for p in shifts for t in tilts]
        expect = brute_coaction(target, CFG8, words)
        assert expect  # every scanned word holds a shift
        scanned = set(words)
        got = {(c.word, c.source): c.coeff for c in coaction_contributions(target, CFG8)}
        assert {key: c for key, c in got.items() if key[0] in scanned} == expect


def test_ladder_letter_above_the_slice_cap_contributes():
    # z_3 D(0,0) sends z_k to (k + 1) z_3 z_{k+1}
    ladder = Tilt(MultiIndex.single(3), (0, 0))
    for k in range(3):
        target = MultiIndex.single(k + 1) + MultiIndex.single(3)
        got = {(c.word, c.source): c.coeff for c in coaction_contributions(target, CFG)}
        assert got[(sym_word((ladder,)), MultiIndex.single(k))] == k + 1


def test_coaction_scan_agrees_on_a_small_target():
    # Cheap spot check at a second parameter value; the exhaustive window
    # comparison lives in the acceptance suite.
    target = MultiIndex.single(0, 2)
    got = {(c.word, c.source): c.coeff for c in coaction_contributions(target, CFG)}
    assert got == brute_coaction(target, CFG)


@pytest.mark.parametrize(
    "cfg, cutoff, repeats",
    [
        (CFG34, Fraction(3), True),
        (CFG3, Fraction(11, 4), True),
        (CFG8, Fraction(2), False),
        (CFG, Fraction(2), True),
    ],
    ids=["d2-3", "d3-11/4", "d8-2", "d2-alpha1/2-2"],
)
def test_coaction_coefficients_settle_by_the_action(cfg, cutoff, repeats):
    # each coefficient is read from the psi transpose; the action of its word
    # on its source, through psi_word, must give it back times sigma(word)
    seen_sigma = set()
    for target in enumerate_below_value(cutoff, cfg):
        for c in coaction_contributions(target, cfg):
            value = rho_bar_word(STRUCT_BTR, c.word, Polynomial.monomial(c.source), cfg)
            assert c.coeff * sigma(c.word) == value.coeff(target)
            seen_sigma.add(sigma(c.word))
    # where a word repeats a letter, the division by sigma is seen
    assert (max(seen_sigma) > 1) == repeats
