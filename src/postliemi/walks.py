"""The three multiset walks that make the infinite-looking sums finite.

The dual coproduct, the coaction and the recentering maps are sums over
words, exponents and directions, cut down to finite searches over
multisets: weak compositions (``compositions``), multisets that fit a
weight budget (``within_budget``) and splittings in two (``splits``).
Like ``combination``, this is not a layer of the algebra: the walks know
nothing of the keys they are handed.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement, product
from operator import sub
from typing import Iterator, Sequence


def compositions(total: int, parts: int) -> Iterator[tuple]:
    """Tuples of parts naturals that add up to total, in lex order.

    Read off the running sums: nondecreasing runs of parts - 1 cuts in
    0..total, which ``combinations_with_replacement`` lists in lex order.
    """
    if parts == 0:
        if total == 0:
            yield ()
        return
    for cuts in combinations_with_replacement(range(total + 1), parts - 1):
        # built from a list, the tuple is allocated at its size; tuple(map(...))
        # shrinks a larger one, and those pile up on CPython's tuple free list
        yield tuple(list(map(sub, cuts + (total,), (0,) + cuts)))


def within_budget(weighted: Sequence[tuple], budget) -> Iterator[tuple]:
    """(multiset, left over) for every multiset of keys that fits the budget.

    weighted is a sequence of (key, weight) pairs, each weight positive; a
    multiset is a dict key -> multiplicity >= 1 whose keys keep the order of
    weighted, and left over is budget minus its total weight, never below 0.
    Weights and budget may be ints or Fractions.
    """

    def rec(i: int, left, acc: list):
        if i == len(weighted):
            yield dict(acc), left
            return
        key, w = weighted[i]
        yield from rec(i + 1, left, acc)
        m, left = 1, left - w
        while left >= 0:
            yield from rec(i + 1, left, acc + [(key, m)])
            m, left = m + 1, left - w

    yield from rec(0, budget, [])


def splits(mults: Sequence[tuple]) -> Iterator[tuple]:
    """(left, right, count) over all splittings of a multiset in two.

    mults lists the distinct items with their multiplicities, (item, m)
    pairs; left and right are tuples that keep that order, and count is the
    number of ways to pick the left positions, the product of C(m, l).
    The left multiplicities l run over ``product`` of the ranges 0..m, so
    the first item's varies slowest.
    """
    options = [
        [((x,) * l, (x,) * (m - l), math.comb(m, l)) for l in range(m + 1)] for x, m in mults
    ]
    for picks in product(*options):
        left, right, count = (), (), 1
        for a, b, c in picks:
            left += a
            right += b
            count *= c
        yield left, right, count
