"""The free commutative polynomial algebra on the multi-index variables.

Coefficients are exact rationals; terms are stored sparsely as a canonical
tuple of (MultiIndex, coefficient) pairs with all coefficients nonzero.
The algebra is graded by HomDegree pairs: the product of monomials adds
exponents, hence degrees add componentwise.
"""

from __future__ import annotations

from fractions import Fraction

from .combination import Combination
from .multiindex import (
    Config,
    MultiIndex,
    hom_value,
    homogeneity,
    parse_multiindex,
    print_multiindex,
)
from .text import parse_sum, print_sum


class Polynomial(Combination):
    """Sparse polynomial; terms canonical, coefficients nonzero."""

    _rank = staticmethod(MultiIndex.sort_rank)
    # declared here, not only inherited: tracing wraps each class's own __add__
    __add__ = Combination.__add__

    @staticmethod
    def one() -> "Polynomial":
        return _P_ONE

    @classmethod
    def monomial(cls, g: MultiIndex, c=1) -> "Polynomial":
        return cls.single(g, c)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return multiply(self, other)
        return self.scale(other)

    __rmul__ = __mul__


_P_ONE = Polynomial(((MultiIndex.zero(), Fraction(1)),))


def multiply(p1: Polynomial, p2: Polynomial) -> Polynomial:
    return Polynomial.from_terms(
        (g1 + g2, c1 * c2) for g1, c1 in p1.terms for g2, c2 in p2.terms
    )


def coeff(p: Polynomial, g: MultiIndex) -> Fraction:
    """The monomial pairing: coefficient extraction at z^g."""
    return p.coeff(g)


def grade_components(p: Polynomial) -> dict:
    """Split into graded pieces keyed by the HomDegree pair."""
    out: dict = {}
    for g, c in p.terms:
        h = homogeneity(g)
        out.setdefault(h, []).append((g, c))
    return {h: Polynomial.from_terms(ts) for h, ts in out.items()}


def is_homogeneous(p: Polynomial) -> bool:
    return len(grade_components(p)) <= 1


# -- text form ---------------------------------------------------------------
#
#   3/2 z{k0:1} + z{(1,0):2} - 1
#
# A sum (see ``text``) whose labels are monomials `z{...}`; a bare rational
# is a constant term and `1` the unit monomial.


def print_polynomial(p: Polynomial, cfg: Config | None = None) -> str:
    terms = p.terms
    if cfg is not None and len(terms) > 1:
        terms = sorted(terms, key=lambda gc: (hom_value(gc[0], cfg), gc[0].sort_rank()))
    return print_sum(("z" + print_multiindex(g) if g.entries else "", c) for g, c in terms)


def parse_polynomial(s: str, d: int | None = None) -> Polynomial:
    return Polynomial.from_terms(
        parse_sum(s, ("z{",), lambda label: parse_multiindex(label[1:], d), MultiIndex.zero())
    )
