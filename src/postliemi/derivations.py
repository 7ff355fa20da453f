"""Basis derivations of the polynomial algebra and their closed products.

Two families act on polynomials in the z-variables:

* ``DOp(n)`` for a d-tuple n of naturals.  For n = 0 it is the re-indexing
  ladder  z^g -> sum_k (k+1) g_k z^{g - e_k + e_{k+1}}; for n != 0 it lowers
  the direction variable:  z^g -> g_n z^{g - e_n}.
* ``Partial(i)`` for i = 1..d, acting as

      z^g -> sum_k (k+1) g_k z^{g - e_k + e_{k+1} + e_{(e_i)}}
           + sum_{n != 0} (n_i + 1) g_n z^{g - e_n + e_{n + e_i}}.

Degrees are exact: |Partial(i)| = (0, 1) and |DOp(n)| = (0, -|n|), so every
basis derivation shifts the graded pieces of a polynomial uniformly.  The
transpose on monomials, ``_adjoint_monomial``, runs each branch backwards.

The composition commutator of two basis derivations is again a (multiple of
a) basis derivation; ``compose_commutator`` returns the closed form, which
the tests check against actual composition on polynomials.  ``diamond`` is
the triangular product  Partial(i) <> DOp(n) = -n_i DOp(n - e_i), zero on
every other pair; its commutator recovers ``compose_commutator``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .combination import Combination
from .errors import DimensionMismatch, ParseError
from .multiindex import Config, HomDegree, MultiIndex, _trusted, n_norm
from .polyalg import Polynomial
from .text import parse_naturals, print_naturals


@dataclass(frozen=True)
class DOp:
    """The derivation D^(n).  n is a d-tuple of naturals; zero is allowed
    and names the ladder operator."""

    n: tuple

    def __post_init__(self):
        if not isinstance(self.n, tuple) or not self.n:
            raise ValueError(f"DOp index must be a nonempty tuple, got {self.n!r}")
        if any((not isinstance(c, int)) or c < 0 for c in self.n):
            raise ValueError(f"DOp index must consist of naturals, got {self.n!r}")


@dataclass(frozen=True)
class Partial:
    """The derivation in the i-th direction, 1-based."""

    i: int

    def __post_init__(self):
        if not isinstance(self.i, int) or self.i < 1:
            raise ValueError(f"direction index must be >= 1, got {self.i!r}")


Derivation = Union[DOp, Partial]


def derivation_degree(D: Derivation) -> HomDegree:
    if isinstance(D, Partial):
        return HomDegree(0, 1)
    return HomDegree(0, -n_norm(D.n))


def derivation_rank(D: Derivation):
    """Sort rank: shifts by direction first, then DOp by (|n|, n)."""
    if isinstance(D, Partial):
        return (0, D.i, ())
    return (1, n_norm(D.n), D.n)


def check_derivation_dim(D: Derivation, d: int) -> None:
    if isinstance(D, DOp) and len(D.n) != d:
        raise DimensionMismatch(f"derivation index {D.n} has length {len(D.n)}, expected {d}")
    if isinstance(D, Partial) and D.i > d:
        raise DimensionMismatch(f"direction {D.i} out of range for dimension {d}")


def _unit_dir(i: int, d: int) -> tuple:
    return tuple(1 if j == i - 1 else 0 for j in range(d))


def _tuple_add(n: tuple, i: int) -> tuple:
    return tuple(c + 1 if j == i - 1 else c for j, c in enumerate(n))


def _tuple_sub(n: tuple, i: int) -> tuple:
    return tuple(c - 1 if j == i - 1 else c for j, c in enumerate(n))


def _ladder_moves(g: MultiIndex, extra=None):
    """(g - e_k + e_{k+1}, coefficient) for each counting key of g, plus
    e_extra when an extra key is given.  Each move is one edit of g's dict,
    built without re-validation: it only shifts multiplicity between valid
    keys of g's dimension."""
    base = g.as_dict()
    if extra is not None:
        base[extra] = base.get(extra, 0) + 1
    for k, m in g.k_entries():
        acc = base.copy()
        acc[k] -= 1
        acc[k + 1] = acc.get(k + 1, 0) + 1
        yield _trusted(acc), Fraction((k + 1) * m)


def apply_to_monomial(D: Derivation, g: MultiIndex, cfg: Config) -> list:
    """Action on a single monomial, as (multi-index, coefficient) pairs."""
    check_derivation_dim(D, cfg.d)
    if isinstance(D, DOp):
        if all(c == 0 for c in D.n):
            return list(_ladder_moves(g))
        m = g.get(D.n)
        return [(g.sub(MultiIndex.single(D.n)), Fraction(m))] if m else []
    # Partial(i): the ladder branch decorated with e_i, plus the raising branch
    gd = g.dim()
    if gd is not None and gd != cfg.d:
        raise DimensionMismatch(f"multi-index over dimension {gd}, expected {cfg.d}")
    out = list(_ladder_moves(g, _unit_dir(D.i, cfg.d)))
    for n, m in g.n_entries():
        acc = g.as_dict()
        acc[n] -= 1
        up = _tuple_add(n, D.i)
        acc[up] = acc.get(up, 0) + 1
        out.append((_trusted(acc), Fraction((n[D.i - 1] + 1) * m)))
    return out


def _adjoint_monomial(D: Derivation, h: MultiIndex, cfg: Config) -> list:
    """The transpose of ``apply_to_monomial``: every (g, c) with
    c = <D z^g, z^h> != 0, each branch's move read backwards."""
    base = h.as_dict()
    if isinstance(D, DOp) and any(D.n):  # lowering: g = h + e_n, c = g_n
        base[D.n] = base.get(D.n, 0) + 1
        return [(_trusted(base), Fraction(base[D.n]))]
    # Each other branch moves a key a of src back to b: g = src - e_a + e_b
    # with c = w g_b.  The ladder moves j to j - 1 with w = j.  Partial(i)
    # raises n' - e_i to n' with w = n'_i, where n' = e_i has no source, and
    # its ladder branch runs on h less the e_(e_i) that it adds.
    moves = []
    if isinstance(D, Partial):
        unit = _unit_dir(D.i, cfg.d)
        raised = [n for n, _ in h.n_entries() if n[D.i - 1] and n != unit]
        moves = [(base, n, _tuple_sub(n, D.i), n[D.i - 1]) for n in raised]
        base = {**base, unit: base[unit] - 1} if base.get(unit) else {}
    moves += [(base, j, j - 1, j) for j in base if isinstance(j, int) and j]
    out = []
    for src, a, b, w in moves:
        acc = src.copy()
        acc[a] -= 1
        acc[b] = acc.get(b, 0) + 1
        out.append((_trusted(acc), Fraction(w * acc[b])))
    return out


def apply(D: Derivation, p: Polynomial, cfg: Config) -> Polynomial:
    terms = []
    for g, c in p.terms:
        for gg, cc in apply_to_monomial(D, g, cfg):
            terms.append((gg, c * cc))
    return Polynomial.from_terms(terms)


def apply_word(ds: Sequence[Derivation], p: Polynomial, cfg: Config) -> Polynomial:
    """Compose right to left: apply_word([D1, D2], p) = D1(D2(p))."""
    for D in reversed(ds):
        p = apply(D, p, cfg)
    return p


# -- linear combinations -----------------------------------------------------


class DerivationCombo(Combination):
    """Finite rational combination of basis derivations, canonical."""

    _rank = staticmethod(derivation_rank)

    def apply(self, p: Polynomial, cfg: Config) -> Polynomial:
        return Polynomial.sum_of((apply(D, p, cfg), c) for D, c in self.terms)


def diamond(D1: Derivation, D2: Derivation) -> DerivationCombo:
    """Partial(i) <> DOp(n) = -n_i DOp(n - e_i); zero on every other pair."""
    if isinstance(D1, Partial) and isinstance(D2, DOp):
        ni = D2.n[D1.i - 1] if D1.i <= len(D2.n) else 0
        if ni:
            return DerivationCombo.single(DOp(_tuple_sub(D2.n, D1.i)), -ni)
    return DerivationCombo.zero()


def compose_commutator(D1: Derivation, D2: Derivation) -> DerivationCombo:
    """[D1, D2] under composition, in closed form.

    The only nonzero bracket of basis elements is
    [Partial(i), DOp(n)] = -n_i DOp(n - e_i), equivalently
    [DOp(n), Partial(i)] = +n_i DOp(n - e_i).
    Only a Partial on the left gives a nonzero ``diamond``, so at most one
    of the two pair orders contributes.
    """
    if isinstance(D1, Partial):
        return diamond(D1, D2)
    return -diamond(D2, D1)


# -- text form ---------------------------------------------------------------
#
#   D(1,0)    D(0,0)    P1


def print_derivation(D: Derivation) -> str:
    if isinstance(D, Partial):
        return f"P{D.i}"
    return "D" + print_naturals(D.n)


def parse_derivation(s: str, d: int | None = None) -> Derivation:
    text = s
    s = s.strip()
    if s.startswith("P"):
        try:
            D: Derivation = Partial(int(s[1:]))
        except ValueError:
            raise ParseError("expected P<i> with i >= 1", text, 1) from None
    elif s.startswith("D"):
        D = DOp(parse_naturals(s[1:], text, 1))
    else:
        raise ParseError(f"expected P<i> or D(...), got {s!r}", text, 0)
    if d is not None:
        check_derivation_dim(D, d)
    return D
