"""The three multiset walks, each against an independent brute force."""

from fractions import Fraction
from itertools import product

import pytest

from postliemi.walks import compositions, within_budget


@pytest.mark.parametrize("parts", range(5))
@pytest.mark.parametrize("total", range(5))
def test_compositions_are_the_filtered_product_in_lex_order(total, parts):
    expect = [c for c in product(range(total + 1), repeat=parts) if sum(c) == total]
    assert list(compositions(total, parts)) == expect


def brute_within_budget(weighted, budget) -> list:
    """Every multiplicity vector up to budget // weight per key, kept when its
    total weight fits; the product runs in the order the walk promises."""
    ranges = [range(budget // w + 1) for _, w in weighted]
    out = []
    for mults in product(*ranges):
        spent = sum(m * w for m, (_, w) in zip(mults, weighted))
        if spent <= budget:
            acc = {key: m for m, (key, _) in zip(mults, weighted) if m}
            out.append((acc, budget - spent))
    return out


@pytest.mark.parametrize(
    "weighted, budget",
    [
        ([], 3),
        ([("a", 1), ("b", 2), ("c", 3)], 0),
        ([("a", 1), ("b", 2), ("c", 3)], 5),
        ([((1, 0), 1), ((0, 1), 1), ((1, 1), 2)], 4),
        ([(0, Fraction(1, 2)), (1, Fraction(1, 2)), ((1, 0), Fraction(1))], Fraction(3, 2)),
        ([("x", Fraction(3, 4)), ("y", Fraction(1))], Fraction(5, 2)),
    ],
)
def test_within_budget_is_the_filtered_product(weighted, budget):
    got = list(within_budget(weighted, budget))
    assert got == brute_within_budget(weighted, budget)
    for acc, _ in got:
        assert list(acc) == [key for key, _ in weighted if key in acc]
