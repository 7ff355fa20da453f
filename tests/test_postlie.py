"""The decorated-derivation space: its two products, the connection, the
deformed product, and the generic torsion/curvature calculus."""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postliemi import postlie
from postliemi.derivations import DOp, Partial
from postliemi.errors import DimensionMismatch
from postliemi.multiindex import (
    Config,
    MultiIndex,
    enumerate_below_value,
    hom_value,
    n_norm,
    print_multiindex,
)
from postliemi.postlie import (
    LElement,
    Shift,
    Tilt,
    adjoint_pair,
    associator,
    bbracket,
    bianchi_residual,
    bracket,
    btr,
    check_derivation_compat,
    check_post_lie,
    check_pre_lie,
    covariant_torsion,
    curvature,
    diamond,
    divisor_tilts,
    grand_bracket,
    in_L,
    in_L0,
    key_derivation,
    parse_l_element,
    parse_l_key,
    pbw_rank,
    print_l_element,
    print_l_key,
    structural_rank,
    torsion,
    triangleright,
    zero_op,
)

from oracles import (
    brute_bbracket,
    brute_bracket,
    brute_btr,
    brute_diamond,
    brute_grand_bracket,
    brute_letters,
    brute_triangleright,
)

CFG = Config(2, Fraction(1, 2))
CFG13 = Config(2, Fraction(1, 3))
CFG34 = Config(2, Fraction(3, 4))


def single(key, c=1):
    return LElement.single(key, c)


def tilt(gdict, n):
    return single(Tilt(MultiIndex.from_dict(gdict), n))


Z0D0 = tilt({0: 1}, (0, 0))
P1 = single(Shift(1))
P2 = single(Shift(2))


def sample_elements(count, seed):
    rng = random.Random(seed)
    keys = [Shift(1), Shift(2)]
    for k in (0, 1):
        for m in (1, 2):
            for n in [(0, 0), (1, 0), (0, 1), (1, 1)]:
                keys.append(Tilt(MultiIndex.single(k, m), n))
    for nk in [(1, 0), (0, 1)]:
        for n in [(0, 0), (1, 0)]:
            keys.append(Tilt(MultiIndex.single(nk), n))
    out = []
    for _ in range(count):
        terms = [
            (rng.choice(keys), rng.choice([-2, -1, 1, 2, 3]))
            for _ in range(rng.randint(1, 3))
        ]
        out.append(LElement.from_terms(terms))
    return out


# -- the two defining products -----------------------------------------------


def test_product_feeds_the_action_through():
    assert triangleright(Z0D0, Z0D0, CFG) == tilt({0: 1, 1: 1}, (0, 0))


def test_product_onto_a_shift_vanishes():
    assert triangleright(tilt({(1, 0): 2}, (2, 1)), P1, CFG).is_zero


def test_shift_acting_on_a_tilt():
    got = triangleright(P1, tilt({(1, 0): 1}, (0, 0)), CFG)
    assert got == tilt({(2, 0): 1}, (0, 0)).scale(2)


def test_bracket_examples():
    assert bracket(P1, tilt({0: 1}, (2, 1)), CFG) == tilt({0: 1}, (1, 1)).scale(-2)
    x = tilt({0: 2}, (1, 0)) + P2
    assert bracket(x, x, CFG).is_zero
    assert bracket(tilt({0: 1}, (1, 0)), tilt({1: 1}, (0, 1)), CFG).is_zero


def test_connection_examples():
    assert diamond(P1, tilt({0: 1}, (1, 0)), CFG) == tilt({0: 1}, (0, 0)).scale(-1)
    assert diamond(tilt({0: 1}, (2, 1)), P1, CFG).is_zero
    assert diamond(P1, P2, CFG).is_zero


def test_deformed_product_examples():
    got = btr(P1, tilt({0: 1}, (1, 0)), CFG)
    assert got == tilt({1: 1, (1, 0): 1}, (1, 0)) - tilt({0: 1}, (0, 0))
    assert btr(P1, P2, CFG).is_zero


def test_deformed_product_tilt_on_tilt_is_plain():
    x = tilt({0: 1}, (0, 0))
    y = tilt({(1, 0): 1}, (1, 0))
    assert btr(x, y, CFG) == triangleright(x, y, CFG)


def test_grand_bracket_examples():
    assert grand_bracket(P1, Z0D0, CFG) == tilt({1: 1, (1, 0): 1}, (0, 0))
    x = tilt({0: 1}, (1, 1)) + P1.scale(2)
    assert grand_bracket(x, x, CFG).is_zero


# -- agreement with the factorized rules -------------------------------------

ORACLE_CFGS = [Config(d, a) for d in (2, 3) for a in (Fraction(1, 2), Fraction(3, 4))]
ORACLE_PAIRS = [
    (triangleright, brute_triangleright),
    (bracket, brute_bracket),
    (diamond, brute_diamond),
    (btr, brute_btr),
    (bbracket, brute_bbracket),
    (grand_bracket, brute_grand_bracket),
]


def decorations(d):
    """Decorations over dimension d: up to three counting and direction keys."""
    unit_dirs = [tuple(int(j == i) for j in range(d)) for i in range(d)]
    direction_keys = unit_dirs + [(1,) * d, (2,) + (0,) * (d - 1)]
    return st.dictionaries(
        st.one_of(st.integers(0, 3), st.sampled_from(direction_keys)),
        st.integers(1, 2),
        max_size=3,
    ).map(MultiIndex.from_dict)


def l_keys(d):
    """Shifts, undecorated tilts (zero n included) and tilts decorated with
    counting and direction keys, all over dimension d."""
    ns = st.tuples(*[st.integers(0, 2)] * d)
    return st.one_of(
        st.integers(1, d).map(Shift),
        ns.map(lambda n: Tilt(MultiIndex.zero(), n)),
        st.builds(Tilt, decorations(d), ns),
    )


def l_elements(d, min_size=1):
    coeffs = st.sampled_from([Fraction(-2), Fraction(-1), Fraction(1, 2), Fraction(1), Fraction(3)])
    return st.lists(st.tuples(l_keys(d), coeffs), min_size=min_size, max_size=3).map(
        LElement.from_terms
    )


def wrong_dim_keys(d):
    """Keys over dimension d + 1, which every product at dimension d refuses."""
    return st.sampled_from(
        [
            Shift(d + 1),
            Tilt(MultiIndex.zero(), (0,) * (d + 1)),
            Tilt(MultiIndex.single((1,) + (0,) * d), (1,) + (0,) * d),
        ]
    )


@given(l_keys(2), st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3)))
def test_single_is_the_one_term_combination(key, c):
    assert LElement.single(key, c) == LElement.from_terms([(key, c)])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_products_match_the_factorized_rules(data):
    cfg = data.draw(st.sampled_from(ORACLE_CFGS))
    x = data.draw(l_elements(cfg.d, min_size=0))
    y = data.draw(l_elements(cfg.d, min_size=0))
    for op, oracle in ORACLE_PAIRS:
        assert op(x, y, cfg) == oracle(x, y, cfg)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_nested_products_match_the_factorized_rules(data):
    # products of products carry decorations of several factors
    cfg = data.draw(st.sampled_from(ORACLE_CFGS))
    x, y, z = (data.draw(l_elements(cfg.d)) for _ in range(3))
    for op, oracle in ORACLE_PAIRS[:3]:
        assert op(btr(x, y, cfg), z, cfg) == oracle(brute_btr(x, y, cfg), z, cfg)
        assert op(x, bracket(y, z, cfg), cfg) == oracle(x, brute_bracket(y, z, cfg), cfg)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_products_refuse_a_key_of_the_wrong_dimension(data):
    cfg = data.draw(st.sampled_from(ORACLE_CFGS))
    # terms can cancel, and a zero x gives zero whatever y holds (the next
    # test), so the (x, y + bad) branch needs a nonzero x to expect a refusal
    x = data.draw(l_elements(cfg.d).filter(lambda e: not e.is_zero))
    y = data.draw(l_elements(cfg.d, min_size=0))
    bad = LElement.single(data.draw(wrong_dim_keys(cfg.d)))
    x, y = data.draw(st.sampled_from([(x + bad, y), (x, y + bad), (bad, y)]))
    for op, oracle in ORACLE_PAIRS:
        with pytest.raises(DimensionMismatch):
            op(x, y, cfg)
        with pytest.raises(DimensionMismatch):
            oracle(x, y, cfg)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_a_zero_left_operand_gives_zero_whatever_the_right_holds(data):
    cfg = data.draw(st.sampled_from(ORACLE_CFGS))
    y = data.draw(l_elements(cfg.d)) + LElement.single(data.draw(wrong_dim_keys(cfg.d)))
    for op, oracle in ORACLE_PAIRS[:3]:
        assert op(LElement.zero(), y, cfg).is_zero
        assert oracle(LElement.zero(), y, cfg).is_zero


# -- the key pairs that reach the kernels ------------------------------------


@st.composite
def meeting_elements(draw, d):
    """x holding P_i and a tilt with n_j != 0, y holding P_j and a tilt with
    n_i != 0, each with up to one more key: the (shift, tilt) and the
    (tilt, shift) pairs of x and y meet in both orders."""
    coeffs = st.sampled_from([Fraction(-2), Fraction(-1), Fraction(1, 2), Fraction(3)])

    def lowering(k):
        n = list(draw(st.tuples(*[st.integers(0, 2)] * d)))
        n[k - 1] = draw(st.integers(1, 3))
        return Tilt(draw(decorations(d)), tuple(n))

    i, j = draw(st.integers(1, d)), draw(st.integers(1, d))
    out = []
    for shift, tilt_ in ((Shift(i), lowering(j)), (Shift(j), lowering(i))):
        keys = [shift, tilt_] + draw(st.lists(l_keys(d), max_size=1))
        out.append(LElement.from_terms((k, draw(coeffs)) for k in keys))
    return out


MEETING_CFGS = [Config(2, Fraction(1, 2)), Config(3, Fraction(3, 4))]


@pytest.mark.parametrize("cfg", MEETING_CFGS, ids=["d2", "d3"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_products_of_meeting_shifts_and_tilts_match_the_factorized_rules(cfg, data):
    x, y = data.draw(meeting_elements(cfg.d))
    for a, b in ((x, y), (y, x)):
        for op, oracle in ORACLE_PAIRS[:5]:
            assert op(a, b, cfg) == oracle(a, b, cfg)


@pytest.mark.parametrize("cfg", MEETING_CFGS, ids=["d2", "d3"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_the_derivation_products_run_only_where_they_are_nonzero(cfg, data):
    # [D1, D2] and D1 <> D2 of basis derivations vanish unless a shift P_i
    # meets a tilt with n_i != 0; the products call them on no other pair
    x, y = data.draw(meeting_elements(cfg.d))
    z = data.draw(l_elements(cfg.d))
    results = []

    def spy(kernel):
        def run(D1, D2):
            results.append(kernel(D1, D2))
            return results[-1]

        return run

    with pytest.MonkeyPatch.context() as mp:
        for name in ("compose_commutator", "derivation_diamond"):
            mp.setattr(postlie, name, spy(getattr(postlie, name)))
        for a, b in ((x, y), (y, x), (x, z), (z, x)):
            for op in (bracket, diamond, bbracket):
                op(a, b, cfg)
    assert results and all(not r.is_zero for r in results)


def test_an_element_read_at_d2_is_still_refused_at_d3():
    # the tilt lowers direction 2 only and P1 meets nothing in it, so no
    # kernel runs: only the check of the keys refuses the pair at d = 3
    x = tilt({0: 1}, (0, 1)) + P1
    y = P1 + tilt({0: 2}, (0, 0))
    d2, d3 = Config(2, Fraction(1, 2)), Config(3, Fraction(1, 2))
    for a, b in ((x, y), (y, x)):
        for op, oracle in ORACLE_PAIRS:
            assert op(a, b, d2) == oracle(a, b, d2)
            with pytest.raises(DimensionMismatch):
                op(a, b, d3)
            assert op(a, b, d2) == oracle(a, b, d2)
    with pytest.raises(DimensionMismatch):
        triangleright(P1, y, d3)


def test_one_tilt_gives_the_same_products_under_two_configs_of_one_dimension():
    x = P1 + tilt({0: 1}, (1, 0)) + P2.scale(3)
    y = LElement.single(Tilt(MultiIndex.from_dict({0: 2, (1, 0): 1}), (1, 1)))
    fresh = tilt({0: 2, (1, 0): 1}, (1, 1))
    calls = []
    real = postlie.apply_to_monomial

    def counted(D, g, cfg):
        calls.append((D, cfg))
        return real(D, g, cfg)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(postlie, "apply_to_monomial", counted)
        for cfg in (CFG, CFG13, CFG, CFG13):
            for op, oracle in ORACLE_PAIRS[:5]:
                assert op(x, y, cfg) == oracle(x, y, cfg) == op(x, fresh, cfg)
    # D(z^gamma) is read once per tilt object (y's and fresh's), derivation
    # of x (P1, P2 and D(1,0)) and config, then read back from the tilt
    assert len(calls) == 2 * 3 * 2 == 2 * len(set(calls))


# -- torsion, curvature, Bianchi ---------------------------------------------


def test_torsion_of_the_connection_vanishes():
    assert torsion(diamond, bracket, P1, tilt({(0, 1): 3}, (1, 0)), CFG).is_zero


def test_null_connection_torsion_is_minus_the_bracket():
    x, y = P1, tilt({0: 1}, (2, 1))
    assert torsion(zero_op, bracket, x, y, CFG) == -bracket(x, y, CFG)


def test_torsion_is_antisymmetric_on_the_diagonal():
    x = tilt({0: 2}, (1, 0)) + P2.scale(-1)
    assert torsion(diamond, bracket, x, x, CFG).is_zero


def test_curvature_of_the_connection_vanishes():
    assert curvature(diamond, bracket, P1, P1, tilt({0: 1}, (2, 0)), CFG).is_zero
    assert curvature(
        diamond, bracket, P1, tilt({0: 1}, (1, 0)), tilt({(1, 0): 1}, (0, 1)), CFG
    ).is_zero


def test_null_connection_is_flat():
    x, y, z = sample_elements(3, seed=5)
    assert curvature(zero_op, bracket, x, y, z, CFG).is_zero


def test_covariant_torsion_vanishes_for_the_connection():
    xs = sample_elements(9, seed=2)
    for x, y, z in zip(xs[0::3], xs[1::3], xs[2::3]):
        assert covariant_torsion(diamond, bracket, x, y, z, CFG).is_zero
        assert covariant_torsion(bracket, bracket, x, y, z, CFG).is_zero
        assert covariant_torsion(zero_op, bracket, x, y, z, CFG).is_zero


def test_bianchi_example():
    got = bianchi_residual(diamond, bracket, P1, P2, tilt({0: 1}, (1, 1)), CFG)
    assert got.is_zero


def test_bianchi_vanishes_under_jacobi():
    xs = sample_elements(30, seed=3)
    for x, y, z in zip(xs[0::3], xs[1::3], xs[2::3]):
        for op in (diamond, zero_op, bracket):
            assert bianchi_residual(op, bracket, x, y, z, CFG).is_zero


def test_curvature_torsion_associator_identity():
    xs = sample_elements(12, seed=4)
    for x, y, z in zip(xs[0::3], xs[1::3], xs[2::3]):
        lhs = curvature(diamond, bracket, x, y, z, CFG)
        rhs = (
            associator(diamond, x, y, z, CFG)
            - associator(diamond, y, x, z, CFG)
            + diamond(torsion(diamond, bracket, x, y, CFG), z, CFG)
        )
        assert lhs == rhs


# -- adjoint pair ------------------------------------------------------------


def test_adjoint_is_an_involution():
    prod2, lie2 = adjoint_pair(*adjoint_pair(triangleright, bracket))
    for x, y in zip(sample_elements(5, seed=6), sample_elements(5, seed=7)):
        assert prod2(x, y, CFG) == triangleright(x, y, CFG)
        assert lie2(x, y, CFG) == bracket(x, y, CFG)


def test_adjoint_product_example():
    prod, lie = adjoint_pair(triangleright, bracket)
    x, y = P1, tilt({0: 1}, (2, 1))
    assert prod(x, y, CFG) == triangleright(x, y, CFG) + tilt({0: 1}, (1, 1)).scale(-2)
    assert lie(x, y, CFG) == -bracket(x, y, CFG)


# -- basis keys --------------------------------------------------------------

gammas = st.dictionaries(
    st.one_of(st.integers(0, 3), st.sampled_from([(1, 0), (0, 1), (1, 1)])),
    st.integers(1, 3),
    max_size=3,
).map(MultiIndex.from_dict)
dirs = st.tuples(st.integers(0, 2), st.integers(0, 2))


@given(gammas, dirs, st.integers(1, 4))
def test_key_hash_and_repr_are_those_of_the_fields(g, n, i):
    key = Tilt(g, n)
    assert hash(key) == hash((g, n))
    assert hash(key) == hash((g, n))  # the stored value, on a second call
    assert repr(key) == f"Tilt(gamma={g!r}, n={n!r})"
    assert structural_rank(key) == (1, 0, g.sort_rank(), n_norm(n), n)
    assert structural_rank(key) is structural_rank(key)
    assert hash(Shift(i)) == hash((i,))
    assert repr(Shift(i)) == f"Shift(i={i})"


@given(gammas, gammas, dirs, st.integers(1, 2))
def test_equal_keys_from_different_routes_hash_equal(g, h, n, i):
    key = Tilt(g, n)
    routes = [
        key,
        Tilt((g + h).sub(h), n),
        Tilt(MultiIndex.from_dict(g.as_dict()), tuple(n)),
        parse_l_key(print_l_key(key), 2),
        parse_l_key("z" + print_multiindex(g) + "xD(" + ",".join(map(str, n)) + ")"),
        pickle.loads(pickle.dumps(key)),
    ]
    for other in routes:
        assert other == key
        assert hash(other) == hash(key)
        assert structural_rank(other) == structural_rank(key)
    assert len(set(routes)) == 1
    assert parse_l_key(f"P{i}") == Shift(i)
    assert hash(parse_l_key(f"P{i}")) == hash(Shift(i))
    assert Shift(i) != Tilt(MultiIndex.zero(), (0, 0))


@given(gammas, dirs, st.integers(1, 4))
def test_keys_with_their_derivation_stored_pickle_copy_and_compare(g, n, i):
    for key, fresh in ((Tilt(g, n), Tilt(g, n)), (Shift(i), Shift(i))):
        D = key_derivation(key)
        assert D == (Partial(i) if isinstance(key, Shift) else DOp(n))
        assert key_derivation(key) == D
        assert key_derivation(key) is D  # built once, then read back
        # a Tilt also stores the degree pair of gamma that pbw_rank reads
        ranks = [pbw_rank(key, cfg) for cfg in (CFG, CFG34)]
        assert [pbw_rank(key, cfg) for cfg in (CFG, CFG34)] == ranks
        for other in (pickle.loads(pickle.dumps(key)), copy.copy(key), copy.deepcopy(key)):
            assert other == key == fresh
            assert hash(other) == hash(key) == hash(fresh)
            assert key_derivation(other) == D
            assert [pbw_rank(other, cfg) for cfg in (CFG, CFG34)] == ranks
        assert repr(key) == repr(fresh)
        assert len({key, fresh}) == 1


def test_keys_stay_immutable():
    key = Tilt(MultiIndex.single(0), (1, 0))
    hash(key)
    with pytest.raises(AttributeError):
        key.n = (0, 1)
    with pytest.raises(AttributeError):
        Shift(1).i = 2


@pytest.mark.parametrize(
    "text, value",
    [("1e-3", Fraction(1, 1000)), ("-2.5e+1", Fraction(-25)), ("1E-2", Fraction(1, 100))],
)
def test_exponent_coefficients_equal_their_fractions(text, value):
    # the sign of an exponent belongs to its number and does not split the sum
    zd = Tilt(MultiIndex.single(0), (0, 0))
    assert parse_l_element(f"{text} P1", 2) == single(Shift(1), value)
    assert parse_l_element(f"z{{k0:1}}xD(0,0) - {text} P2", 2) == single(zd) - single(
        Shift(2), value
    )


# -- membership --------------------------------------------------------------


def test_membership_examples():
    assert in_L(Z0D0, CFG)
    assert not in_L(tilt({(1, 0): 1}, (1, 0)), CFG)
    assert in_L(P1, CFG)
    assert in_L0(tilt({(1, 0): 1}, (1, 0)), CFG)


@pytest.mark.parametrize(
    "cfg",
    [Config(d, alpha) for d in (2, 3) for alpha in (Fraction(1, 2), Fraction(3, 4))],
    ids=lambda cfg: f"d{cfg.d}-alpha{cfg.alpha}",
)
def test_divisor_tilts_are_the_brute_letters_that_divide(cfg):
    # the targets include divisors of integer degree, such as z_(1,0), where
    # a tilt with |n| = |g'| must be left out
    for target in enumerate_below_value(Fraction(3, 2), cfg):
        max_k = max((k for k, _ in target.k_entries()), default=-1)
        expect = [
            x
            for x in brute_letters(hom_value(target, cfg), cfg, max_k)
            if isinstance(x, Tilt) and target.try_sub(x.gamma) is not None
        ]
        got = divisor_tilts(target, cfg)
        assert len(set(got)) == len(got)
        assert set(got) == set(expect)


# -- checkers ----------------------------------------------------------------


def _triples(count, seed):
    xs = sample_elements(3 * count, seed)
    return list(zip(xs[0::3], xs[1::3], xs[2::3]))


def test_axiom_checkers_pass_on_the_standard_structure():
    triples = _triples(25, seed=8)
    assert check_post_lie(triangleright, bracket, triples, CFG) == []
    assert check_derivation_compat(triangleright, diamond, triples, CFG) == []
    assert check_pre_lie(btr, triples, CFG) == []
    assert check_pre_lie(zero_op, triples, CFG) == []


def test_checker_reports_a_broken_bracket():
    def skew(x, y, cfg):
        return triangleright(x, y, cfg)

    triples = _triples(10, seed=9)
    report = check_post_lie(triangleright, skew, triples, CFG)
    assert report
    tags = {tag for tag, _ in report}
    assert "lie-antisymmetry" in tags


def test_connection_is_pre_lie_on_sampled_triples():
    assert check_pre_lie(diamond, _triples(20, seed=10), CFG) == []
