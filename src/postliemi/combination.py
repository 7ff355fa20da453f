"""Finite rational combinations of basis keys: the one coefficient container.

Polynomials, derivation combinations, Lie algebra elements, words and word
pairs are all stored the same way.  ``terms`` is a tuple of (key, coefficient)
pairs, each coefficient a nonzero ``Fraction``, sorted strictly increasing by
the subclass's ``_rank`` of the key.  Equality, hashing, pickling and
printing read that tuple, and two combinations of different types never
compare equal.

A sum of many scaled pieces is merged once and sorted once (``from_terms``,
``sum_of``), never folded with ``+``, which would re-merge and re-sort the
running total at every step.  Each subclass has one zero, built with the
class: products return it on almost every pair of basis keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Combination:
    """Canonical sparse combination; subclasses set ``_rank``, a total order
    on their keys."""

    terms: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # frozen for every attribute, not only ``terms``: the zero is shared
        dataclass(frozen=True)(cls)
        cls._zero = cls(())

    @classmethod
    def zero(cls):
        return cls._zero

    @classmethod
    def single(cls, key, c=1):
        if not isinstance(c, Fraction):
            c = Fraction(c)
        return cls(((key, c),)) if c else cls._zero

    @classmethod
    def from_terms(cls, pairs):
        """Sum the coefficients per key, drop the zeros, sort by ``_rank``."""
        acc: dict = {}
        for key, c in pairs:
            if not isinstance(c, Fraction):
                c = Fraction(c)
            old = acc.get(key)
            acc[key] = c if old is None else old + c
        terms = [kc for kc in acc.items() if kc[1]]
        if not terms:
            return cls._zero
        rank = cls._rank
        terms.sort(key=lambda kc: rank(kc[0]))
        return cls(tuple(terms))

    @classmethod
    def sum_of(cls, parts):
        """The sum of c * x over (x, c) pairs, merged once."""
        return cls.from_terms((k, ck * c) for x, c in parts for k, ck in x.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, key) -> Fraction:
        for k, c in self.terms:
            if k == key:
                return c
        return Fraction(0)

    def __add__(self, other):
        # a zero right operand returns self as is; a zero left operand still
        # merges, so zero() + x normalizes an x built from unmerged terms
        if not other.terms:
            return self
        return self.from_terms(self.terms + other.terms)

    def __neg__(self):
        if not self.terms:
            return self
        return self.__class__(tuple((k, -c) for k, c in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not isinstance(c, Fraction):
            c = Fraction(c)
        if not c or not self.terms:
            return self._zero
        return self.__class__(tuple((k, ck * c) for k, ck in self.terms))
