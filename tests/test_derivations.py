"""Basis derivations on the polynomial algebra, their commutators, the
diamond table, and composition words."""

from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postliemi.errors import DimensionMismatch
from postliemi.multiindex import Config, MultiIndex, direction_keys, homogeneity
from postliemi.polyalg import Polynomial, grade_components, multiply
from postliemi.derivations import (
    DOp,
    Partial,
    DerivationCombo,
    apply,
    apply_to_monomial,
    apply_word,
    compose_commutator,
    derivation_degree,
    diamond,
    parse_derivation,
    print_derivation,
)

CFG = Config(2, Fraction(1, 2))


def mono(key, mult=1):
    return Polynomial.monomial(MultiIndex.single(key, mult))


def basis_pool(max_norm):
    vecs = [
        n for n in product(range(max_norm + 1), repeat=2) if sum(n) <= max_norm
    ]
    return [Partial(1), Partial(2)] + [DOp(n) for n in vecs]


derivs = st.sampled_from(basis_pool(2))
keys = st.one_of(
    st.integers(min_value=0, max_value=3),
    st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 0)]),
)
multiindices = st.dictionaries(keys, st.integers(1, 3), max_size=3).map(MultiIndex.from_dict)
monomials = multiindices.map(Polynomial.monomial)
polys = st.lists(
    st.tuples(multiindices, st.fractions(min_value=-3, max_value=3, max_denominator=4)),
    max_size=3,
).map(Polynomial.from_terms)


# -- action on monomials -----------------------------------------------------


def test_ladder_action():
    assert apply(DOp((0, 0)), mono(0), CFG) == mono(1)


def test_lowering_action():
    assert apply(DOp((1, 0)), mono((1, 0), 2), CFG) == mono((1, 0)).scale(2)


def test_shift_action():
    assert apply(Partial(1), mono(0), CFG) == mono(1) * mono((1, 0))


def _moved(g: MultiIndex, minus, plus) -> MultiIndex:
    """g - e_minus + sum of e_p over plus, rebuilt through the validating
    constructor."""
    acc = g.as_dict()
    acc[minus] -= 1
    for key in plus:
        acc[key] = acc.get(key, 0) + 1
    return MultiIndex.from_dict(acc)


def _reference_action(D, g: MultiIndex, d: int) -> list:
    """Both branches of the basis action written out from the definition."""
    if isinstance(D, DOp):
        return [(_moved(g, k, [k + 1]), Fraction((k + 1) * m)) for k, m in g.k_entries()]
    ei = tuple(1 if j == D.i - 1 else 0 for j in range(d))
    ladder = [(_moved(g, k, [k + 1, ei]), Fraction((k + 1) * m)) for k, m in g.k_entries()]
    raised = [
        (_moved(g, n, [tuple(c + (j == D.i - 1) for j, c in enumerate(n))]),
         Fraction((n[D.i - 1] + 1) * m))
        for n, m in g.n_entries()
    ]
    return ladder + raised


@st.composite
def monomials_at(draw, d):
    dirs = direction_keys(d, 2)
    keys = st.one_of(st.integers(min_value=0, max_value=3), st.sampled_from(dirs))
    return MultiIndex.from_dict(draw(st.dictionaries(keys, st.integers(1, 3), max_size=4)))


@st.composite
def ladder_cases(draw):
    d = draw(st.sampled_from([2, 3]))
    D = draw(st.sampled_from([DOp((0,) * d)] + [Partial(i) for i in range(1, d + 1)]))
    return D, draw(monomials_at(d)), Config(d, Fraction(1, 2))


@settings(max_examples=200)
@given(ladder_cases())
def test_ladder_and_raising_moves_match_the_validated_construction(case):
    D, g, cfg = case
    assert apply_to_monomial(D, g, cfg) == _reference_action(D, g, cfg.d)


def test_shift_refuses_a_monomial_of_another_dimension():
    g = MultiIndex.from_dict({0: 1, (1, 0, 0): 1})
    with pytest.raises(DimensionMismatch):
        apply_to_monomial(Partial(1), g, CFG)


@given(derivs)
def test_constants_are_killed(D):
    assert apply(D, Polynomial.one(), CFG).is_zero


@given(derivs, polys, polys)
def test_leibniz_rule(D, p, q):
    lhs = apply(D, multiply(p, q), CFG)
    rhs = multiply(apply(D, p, CFG), q) + multiply(p, apply(D, q, CFG))
    assert lhs == rhs


@given(derivs, multiindices)
def test_degree_shift(D, g):
    image = apply(D, Polynomial.monomial(g), CFG)
    if image.is_zero:
        return
    (h,) = grade_components(image)
    assert h == homogeneity(g) + derivation_degree(D)


# -- commutators and the diamond table ---------------------------------------


def test_commutator_examples():
    assert compose_commutator(Partial(1), DOp((2, 1))) == DerivationCombo.single(
        DOp((1, 1)), -2
    )
    assert compose_commutator(DOp((1, 0)), DOp((0, 1))).is_zero
    assert compose_commutator(Partial(1), DOp((0, 1))).is_zero


def test_diamond_examples():
    assert diamond(Partial(1), DOp((2, 1))) == DerivationCombo.single(DOp((1, 1)), -2)
    assert diamond(DOp((2, 1)), Partial(1)).is_zero
    assert diamond(Partial(1), DOp((0, 0))).is_zero


def test_diamond_recovers_the_bracket():
    pool = basis_pool(4)
    for D1 in pool:
        for D2 in pool:
            assert diamond(D1, D2) - diamond(D2, D1) == compose_commutator(D1, D2)


@given(derivs, derivs, monomials)
def test_commutator_acts_as_word_difference(D1, D2, p):
    forward = apply_word([D1, D2], p, CFG) - apply_word([D2, D1], p, CFG)
    assert compose_commutator(D1, D2).apply(p, CFG) == forward


def _diamond_combo(c1: DerivationCombo, c2: DerivationCombo) -> DerivationCombo:
    out = DerivationCombo.zero()
    for D1, a in c1.terms:
        for D2, b in c2.terms:
            out = out + diamond(D1, D2).scale(a * b)
    return out


def test_diamond_is_pre_lie():
    pool = [DerivationCombo.single(D) for D in basis_pool(3)]
    for x, y, z in product(pool, repeat=3):
        assoc_xyz = _diamond_combo(x, _diamond_combo(y, z)) - _diamond_combo(
            _diamond_combo(x, y), z
        )
        assoc_yxz = _diamond_combo(y, _diamond_combo(x, z)) - _diamond_combo(
            _diamond_combo(y, x), z
        )
        assert assoc_xyz == assoc_yxz


# -- composition words -------------------------------------------------------


@given(polys)
def test_empty_word_is_identity(p):
    assert apply_word([], p, CFG) == p


def test_word_examples():
    twice = apply_word([DOp((1, 0)), DOp((1, 0))], mono((1, 0), 2), CFG)
    assert twice == Polynomial.one().scale(2)
    mixed = apply_word([Partial(1), DOp((1, 0))], mono(0) * mono((1, 0)), CFG)
    assert mixed == mono(1) * mono((1, 0))
    # a shift and a tilt do not commute: the tilt applied last doubles it
    tilt_last = apply_word([DOp((1, 0)), Partial(1)], mono(0) * mono((1, 0)), CFG)
    assert tilt_last == mixed.scale(2)


@st.composite
def grouped_words(draw):
    """A configuration at d = 2 or 3, shift and tilt derivations over it,
    and a monomial."""
    d = draw(st.sampled_from([2, 3]))
    dirs = [n for n in product(range(3), repeat=d) if sum(n) <= 2]
    shifts = draw(st.lists(st.integers(1, d).map(Partial), max_size=3))
    tilts = draw(st.lists(st.sampled_from(dirs).map(DOp), max_size=3))
    key = st.one_of(st.integers(0, 3), st.sampled_from([n for n in dirs if sum(n)]))
    g = draw(st.dictionaries(key, st.integers(1, 3), max_size=3).map(MultiIndex.from_dict))
    return Config(d, Fraction(1, 2)), shifts, tilts, Polynomial.monomial(g)


@settings(max_examples=60, deadline=None)
@given(grouped_words())
def test_word_action_ignores_the_order_within_shifts_and_within_tilts(case):
    cfg, shifts, tilts, p = case
    expect = apply_word(shifts + tilts, p, cfg)
    for s in permutations(shifts):
        for t in permutations(tilts):
            assert apply_word(list(s + t), p, cfg) == expect


# -- text form ---------------------------------------------------------------


@settings(max_examples=40)
@given(derivs)
def test_print_parse_round_trip(D):
    assert parse_derivation(print_derivation(D)) == D


def test_grammar_examples():
    assert parse_derivation("P2") == Partial(2)
    assert parse_derivation("D(1,0)") == DOp((1, 0))
