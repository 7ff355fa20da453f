"""Sparse multi-indices over two key families, with exact degree arithmetic.

A multi-index is a finitely supported map from keys to positive integers.
Keys come in two families:

* counting keys ``k = 0, 1, 2, ...`` (plain ints), one per formal variable
  ``z_k``;
* direction keys, nonzero vectors ``n = (n_1, ..., n_d)`` of naturals
  (tuples), one per formal variable ``z_n``.

Degrees are tracked as integer pairs ``HomDegree(a, b)`` whose exact value is
``a*alpha + b`` for the configured rational ``alpha = p/q`` in (0, 1).  Each
counting key contributes (1, 0) per unit of exponent, a direction key ``n``
contributes (0, |n|) with ``|n| = n_1 + ... + n_d``.  All comparisons are done
on exact rationals; there is no floating point anywhere in this package.

``direction_keys`` lists the direction keys up to a norm as weak
compositions, and ``enumerate_below`` the multi-indices up to a degree as
the multisets that fit a budget, both walked by ``walks``.  The latter is
the *capped* finite slice of the degree cut: all multi-indices of degree
value at most ``b`` whose counting-key indices are at most ``floor(b*q/p)``
and whose direction keys satisfy ``|n| <= floor(b)``.  Without the index cap
the slice would be infinite (``z_k`` has degree alpha for every k), so the
cap is part of the contract, not an optimization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Mapping, Union

from .errors import DimensionMismatch, ParseError
from .text import parse_naturals, print_naturals, split_commas
from .walks import compositions, within_budget

Key = Union[int, tuple]
# int k          -> counting key (variable z_k)
# tuple (n_1..n_d) -> direction key (variable z_n), nonzero, naturals


def n_norm(n: tuple) -> int:
    return sum(n)


def _key_rank(key: Key):
    """Canonical sort rank: counting keys first (ascending), then direction
    keys in lexicographic order."""
    if isinstance(key, int):
        return (0, key, ())
    return (1, 0, key)


def _validate_key(key: Key) -> None:
    if isinstance(key, int):
        if key < 0:
            raise ValueError(f"counting key must be >= 0, got {key}")
        return
    if isinstance(key, tuple):
        if not key or any((not isinstance(c, int)) or c < 0 for c in key):
            raise ValueError(f"direction key must be a nonempty tuple of naturals, got {key!r}")
        if all(c == 0 for c in key):
            raise ValueError("direction key must be a nonzero vector")
        return
    raise TypeError(f"bad key {key!r}")


@dataclass(frozen=True)
class Config:
    """Ambient dimension and the exact degree step.

    alpha is normalized to lowest terms by Fraction; must lie strictly
    between 0 and 1.  Stores its hash, that of (d, alpha): configs key the
    memo tables, and hashing a Fraction is not cheap.
    """

    d: int
    alpha: Fraction
    _hash: int = field(init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        return self._hash

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if not isinstance(self.d, int) or self.d < 1:
            raise ValueError(f"dimension must be a positive int, got {self.d!r}")
        if not (0 < self.alpha < 1):
            raise ValueError(f"alpha must lie in (0,1), got {self.alpha}")
        object.__setattr__(self, "_hash", hash((self.d, self.alpha)))


@dataclass(frozen=True)
class HomDegree:
    """Exact degree as the integer pair (a, b), of value a*alpha + b.

    Both components may be negative: derivation degrees live here too
    (a shift has degree (0, 1), a tilt D^(n) has degree (0, -|n|)).
    """

    a: int
    b: int

    def value(self, cfg: Config) -> Fraction:
        return self.a * cfg.alpha + self.b

    def __add__(self, other: "HomDegree") -> "HomDegree":
        return HomDegree(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "HomDegree") -> "HomDegree":
        return HomDegree(self.a - other.a, self.b - other.b)

    @staticmethod
    def zero() -> "HomDegree":
        return HomDegree(0, 0)


def compare_hom(h1: HomDegree, h2: HomDegree, cfg: Config) -> int:
    """Total order by exact value; returns -1, 0 or +1.

    Ties are equality of value, not of pairs: (2,0) equals (0,1) at
    alpha = 1/2.
    """
    v1, v2 = h1.value(cfg), h2.value(cfg)
    if v1 < v2:
        return -1
    if v1 > v2:
        return 1
    return 0


@dataclass(frozen=True, slots=True)
class MultiIndex:
    """Immutable canonical sparse multi-index.

    entries is a tuple of (key, multiplicity) pairs in canonical key order
    with all multiplicities >= 1.  Construct through from_dict / single /
    zero, or with already-canonical entries.  Stores its hash, that of
    (entries,), once computed.
    """

    entries: tuple = ()
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.entries,)))
        return self._hash

    def __post_init__(self):
        dim = None
        prev = None
        for key, mult in self.entries:
            _validate_key(key)
            if not isinstance(mult, int) or mult < 1:
                raise ValueError(f"multiplicity must be a positive int, got {mult!r} for {key!r}")
            if isinstance(key, tuple):
                if dim is None:
                    dim = len(key)
                elif len(key) != dim:
                    raise DimensionMismatch(
                        f"direction keys of lengths {dim} and {len(key)} in one multi-index"
                    )
            rank = _key_rank(key)
            if prev is not None and rank <= prev:
                raise ValueError("entries not in canonical order")
            prev = rank

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "MultiIndex":
        return _ZERO

    @staticmethod
    def from_dict(mapping: Mapping[Key, int]) -> "MultiIndex":
        items = [(k, m) for k, m in mapping.items() if m != 0]
        for _, m in items:
            if m < 0:
                raise ValueError("negative multiplicity")
        items.sort(key=lambda km: _key_rank(km[0]))
        return MultiIndex(tuple(items))

    @staticmethod
    def single(key: Key, mult: int = 1) -> "MultiIndex":
        return MultiIndex.from_dict({key: mult})

    @staticmethod
    def sum_of(indices: Iterable["MultiIndex"]) -> "MultiIndex":
        """Pointwise sum of any number of multi-indices, merged once."""
        acc: dict = {}
        for g in indices:
            for k, m in g.entries:
                acc[k] = acc.get(k, 0) + m
        return MultiIndex.from_dict(acc)

    # -- basic access ------------------------------------------------------

    def get(self, key: Key) -> int:
        for k, m in self.entries:
            if k == key:
                return m
        return 0

    def as_dict(self) -> dict:
        return dict(self.entries)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def support(self) -> tuple:
        return tuple(k for k, _ in self.entries)

    def k_entries(self) -> tuple:
        return tuple((k, m) for k, m in self.entries if isinstance(k, int))

    def n_entries(self) -> tuple:
        return tuple((k, m) for k, m in self.entries if isinstance(k, tuple))

    def total(self) -> int:
        """Total number of factors counted with multiplicity."""
        return sum(m for _, m in self.entries)

    def dim(self) -> int | None:
        """Length of direction keys if any are present, else None.  They
        sort after every counting key, so the last entry tells."""
        if self.entries:
            k = self.entries[-1][0]
            if isinstance(k, tuple):
                return len(k)
        return None

    # -- arithmetic --------------------------------------------------------

    def _check_dims(self, other: "MultiIndex") -> None:
        d1, d2 = self.dim(), other.dim()
        if d1 is not None and d2 is not None and d1 != d2:
            raise DimensionMismatch(f"multi-indices over dimensions {d1} and {d2}")

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        if not other.entries:
            return self
        if not self.entries:
            return other
        self._check_dims(other)
        acc = dict(self.entries)
        for k, m in other.entries:
            acc[k] = acc.get(k, 0) + m
        return _trusted(acc)

    def sub(self, other: "MultiIndex") -> "MultiIndex":
        """Pointwise difference; raises ValueError if any entry goes negative."""
        out = self.try_sub(other)
        if out is None:
            raise ValueError("subtraction would make an entry negative")
        return out

    def try_sub(self, other: "MultiIndex") -> "MultiIndex | None":
        """Pointwise difference, or None if any entry would go negative.
        Raises DimensionMismatch on direction keys of two dimensions."""
        self._check_dims(other)
        acc = dict(self.entries)
        for k, m in other.entries:
            left = acc.get(k, 0) - m
            if left < 0:
                return None
            acc[k] = left
        return _trusted(acc)

    def divisors(self) -> Iterator["MultiIndex"]:
        """All componentwise sub-multi-indices, the zero index included."""
        keys = [k for k, _ in self.entries]
        for counts in product(*(range(m + 1) for _, m in self.entries)):
            yield _trusted(dict(zip(keys, counts)))

    def sort_rank(self):
        """Structural rank usable as a tie-break sort key."""
        return tuple((_key_rank(k), m) for k, m in self.entries)


_ZERO = MultiIndex(())


def _trusted(acc: dict) -> MultiIndex:
    """The multi-index of a key -> multiplicity dict whose keys are valid, of
    one dimension, and whose multiplicities are naturals: zeros are dropped
    and the rest sorted, without the ``__post_init__`` re-validation.  Only
    for arithmetic on operands that were validated when they were built."""
    g = object.__new__(MultiIndex)
    items = [(k, m) for k, m in acc.items() if m]
    items.sort(key=lambda km: _key_rank(km[0]))
    object.__setattr__(g, "entries", tuple(items))
    object.__setattr__(g, "_hash", None)
    return g


def add(g1: MultiIndex, g2: MultiIndex) -> MultiIndex:
    return g1 + g2


def homogeneity(g: MultiIndex) -> HomDegree:
    a = sum(m for k, m in g.entries if isinstance(k, int))
    b = sum(n_norm(k) * m for k, m in g.entries if isinstance(k, tuple))
    return HomDegree(a, b)


def hom_value(g: MultiIndex, cfg: Config) -> Fraction:
    return homogeneity(g).value(cfg)


def direction_keys(d: int, max_norm: int) -> list:
    """All direction keys of dimension d with 1 <= |n| <= max_norm, lex order.

    These are the weak compositions of max_norm into d + 1 parts with the
    last (slack) part dropped, C(d + max_norm, d) - 1 of them once the zero
    vector, which comes first, is skipped.
    """
    if max_norm < 1:
        return []
    return [c[:-1] for c in compositions(max_norm, d + 1)][1:]


def enumerate_below_value(limit: Fraction, cfg: Config) -> tuple:
    """All multi-indices of degree value <= limit under the support caps.

    Counting keys range over 0..floor(limit/alpha); direction keys over
    |n| <= floor(limit).  The exact rational degree filter is applied on top.
    Deterministic output: sorted by (degree value, canonical entries).
    """
    limit = Fraction(limit)
    if limit < 0:
        raise ValueError("enumeration bound must be >= 0")
    kmax = int(limit / cfg.alpha)  # floor for nonnegative rationals
    weighted: list = [(k, cfg.alpha) for k in range(kmax + 1)]
    weighted += [(n, Fraction(n_norm(n))) for n in direction_keys(cfg.d, int(limit))]
    out = [MultiIndex.from_dict(acc) for acc, _ in within_budget(weighted, limit)]
    out.sort(key=lambda g: (hom_value(g, cfg), g.sort_rank()))
    return tuple(out)


def enumerate_below(bound: HomDegree, cfg: Config) -> tuple:
    return enumerate_below_value(bound.value(cfg), cfg)


# -- text form ---------------------------------------------------------------
#
# {}                      the zero multi-index
# {k0:2,(1,0):1}          z_0^2 * z_(1,0)
#
# Zero multiplicities and the zero direction vector are rejected.


def print_multiindex(g: MultiIndex) -> str:
    parts = []
    for key, mult in g.entries:
        if isinstance(key, int):
            parts.append(f"k{key}:{mult}")
        else:
            parts.append(print_naturals(key) + f":{mult}")
    return "{" + ",".join(parts) + "}"


def parse_multiindex(s: str, d: int | None = None) -> MultiIndex:
    text = s
    s = s.strip()
    if not (s.startswith("{") and s.endswith("}")):
        raise ParseError("multi-index must be wrapped in {...}", text, 0)
    body = s[1:-1].strip()
    if not body:
        return MultiIndex.zero()
    acc: dict = {}
    for item, pos in split_commas(body, text, 1):
        item = item.strip()
        if ":" not in item:
            raise ParseError("expected key:mult", text, pos)
        key_s, _, mult_s = item.rpartition(":")
        key_s, mult_s = key_s.strip(), mult_s.strip()
        try:
            mult = int(mult_s)
        except ValueError:
            raise ParseError(f"bad multiplicity {mult_s!r}", text, pos) from None
        if mult == 0:
            raise ParseError("zero multiplicity not allowed", text, pos)
        if mult < 0:
            raise ParseError("negative multiplicity not allowed", text, pos)
        if key_s.startswith("k"):
            try:
                key: Key = int(key_s[1:])
            except ValueError:
                raise ParseError(f"bad counting key {key_s!r}", text, pos) from None
        elif key_s.startswith("("):
            key = parse_naturals(key_s, text, pos)
            if not any(key):
                raise ParseError("zero direction vector not allowed", text, pos)
            if d is not None and len(key) != d:
                raise DimensionMismatch(f"direction key {key} has length {len(key)}, expected {d}")
        else:
            raise ParseError(f"bad key {key_s!r}", text, pos)
        if key in acc:
            raise ParseError(f"repeated key {key_s}", text, pos)
        try:
            _validate_key(key)
        except ValueError as e:
            raise ParseError(str(e), text, pos) from None
        acc[key] = mult
    g = MultiIndex.from_dict(acc)
    if d is not None:
        gd = g.dim()
        if gd is not None and gd != d:
            raise DimensionMismatch(f"multi-index over dimension {gd}, expected {d}")
    return g
