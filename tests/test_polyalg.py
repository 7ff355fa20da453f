"""The polynomial algebra: product, coefficient pairing, grading, text form."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postliemi.multiindex import HomDegree, MultiIndex, homogeneity
from postliemi.polyalg import (
    Polynomial,
    coeff,
    grade_components,
    is_homogeneous,
    multiply,
    parse_polynomial,
    print_polynomial,
)


def mono(key, mult=1):
    return Polynomial.monomial(MultiIndex.single(key, mult))


Z0 = mono(0)
Z1 = mono(1)

keys = st.one_of(
    st.integers(min_value=0, max_value=3),
    st.sampled_from([(1, 0), (0, 1), (1, 1)]),
)
multiindices = st.dictionaries(keys, st.integers(1, 3), max_size=3).map(MultiIndex.from_dict)
rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
polys = st.lists(st.tuples(multiindices, rationals), max_size=4).map(Polynomial.from_terms)


def test_monomial_product_adds_exponents():
    assert Z0 * Z0 == mono(0, 2)


@given(polys)
def test_one_is_the_unit(p):
    assert Polynomial.one() * p == p


def test_product_is_bilinear():
    assert (Z0 + Z1) * Z0 == mono(0, 2) + Z0 * Z1


@given(polys, polys, polys)
def test_product_associative_commutative(p, q, r):
    assert multiply(multiply(p, q), r) == multiply(p, multiply(q, r))
    assert multiply(p, q) == multiply(q, p)


def test_integer_coefficients_are_stored_as_fractions():
    p = Polynomial.from_terms([(MultiIndex.single(0), 2), (MultiIndex.zero(), Fraction(1, 2))])
    assert all(type(c) is Fraction for _, c in p.terms)
    assert p == Polynomial.from_terms([(MultiIndex.single(0), Fraction(2)), (MultiIndex.zero(), Fraction(1, 2))])


def test_coefficient_reads():
    p = mono(0, 2) + mono(1).scale(3)
    assert coeff(p, MultiIndex.single(0, 2)) == 1
    assert coeff(Polynomial.one(), MultiIndex.zero()) == 1
    assert coeff(Z0, MultiIndex.single(1)) == 0


@given(multiindices, multiindices)
def test_pairing_of_monomial_products(a, b):
    assert coeff(multiply(Polynomial.monomial(a), Polynomial.monomial(b)), a + b) == 1


def test_grade_components_splits_by_degree():
    p = Z0 + Polynomial.monomial(MultiIndex.single((1, 0)))
    parts = grade_components(p)
    assert parts == {
        HomDegree(1, 0): Z0,
        HomDegree(0, 1): Polynomial.monomial(MultiIndex.single((1, 0))),
    }
    assert grade_components(Polynomial.one()) == {HomDegree(0, 0): Polynomial.one()}
    assert grade_components(Z0 * Z1) == {HomDegree(2, 0): Z0 * Z1}


@given(polys)
def test_grade_components_sum_back(p):
    total = Polynomial.zero()
    for part in grade_components(p).values():
        assert part.is_zero or is_homogeneous(part)
        total = total + part
    assert total == p


@given(multiindices, multiindices, rationals, rationals)
def test_product_of_homogeneous_is_homogeneous(a, b, ca, cb):
    p = Polynomial.monomial(a, ca)
    q = Polynomial.monomial(b, cb)
    prod = multiply(p, q)
    if not prod.is_zero:
        (h,) = grade_components(prod)
        assert h == homogeneity(a) + homogeneity(b)


@settings(max_examples=60)
@given(polys)
def test_print_parse_round_trip(p):
    assert parse_polynomial(print_polynomial(p)) == p


def test_text_examples():
    assert parse_polynomial("1") == Polynomial.one()
    assert parse_polynomial("3/2 z{k0:1} + z{(1,0):2} - 1") == (
        Z0.scale(Fraction(3, 2))
        + Polynomial.monomial(MultiIndex.single((1, 0), 2))
        - Polynomial.one()
    )
    assert print_polynomial(Polynomial.zero()) == "0"


EXPONENT_COEFFICIENTS = [
    ("1e-3", Fraction(1, 1000)),
    ("-2.5e+1", Fraction(-25)),
    ("1E-2", Fraction(1, 100)),
]


@pytest.mark.parametrize("text, value", EXPONENT_COEFFICIENTS)
def test_exponent_coefficients_equal_their_fractions(text, value):
    # the sign of an exponent belongs to its number and does not split the sum
    assert parse_polynomial(f"{text} z{{k0:1}}") == Z0.scale(value)
    assert parse_polynomial(f"z{{k1:1}} + {text} z{{k0:1}}") == Z1 + Z0.scale(value)
    assert parse_polynomial(f"z{{k1:1}} - {text}") == Z1 - Polynomial.one().scale(value)
