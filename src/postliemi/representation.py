"""Action of basis elements and words on polynomials, and the coaction.

A basis key a (x) D acts on a polynomial by p -> a * D(p).  Words act two
ways: ``rho_hat`` composes the letter actions as operators, while ``rho_bar``
pulls every polynomial decoration out front and applies ``psi_word`` to the
derivation parts.  The two are intertwined by the word-to-star map: applying
rho_hat to a word equals applying rho_bar to its iterated star product.  The
decorations of a word multiply to one monomial, z^front with front the sum of
its tilt decorations, so ``rho_bar_word`` forms that multi-index once instead
of multiplying polynomials letter by letter.

``psi_word`` is the recursion

    Psi[D0 D1 ... Dn] p = D0(Psi[D1 ... Dn] p) - sum_i Psi[D1 ... (D0 <> Di) ... Dn] p

with Psi[] = id and Psi[D] = D; it is symmetric in the derivations even
though the recursion peels them in order.  Results are memoized per
(word, monomial, configuration) because the recursion branches factorially,
and each level gathers its terms and merges them once.

``coaction_contributions`` inverts rho_bar against a target monomial: it
finds every (word u, source monomial beta) with

    < rho_bar_btr(u)(z^beta), z^target > != 0,

reading the bracket as plain coefficient extraction, and reports the
coefficient divided by the symmetry factor of u.  Tilt decorations must
divide the target and the two-component degree is exactly additive, which
leaves finitely many words: a choice of tilts and a spread of at most as
many shifts as the direction budget allows.  The shifts are spread only over
live directions, those i that occur in a direction key of z^(target - front)
or in the n of a chosen tilt: the transpose of Partial(i) needs direction i
in the monomial, P_i <> D(m) needs m_i > 0, and no adjoint step brings in a
direction that was in neither.  The sources are not searched for, and no
action is evaluated.  psi_word is a linear recursion, so its transpose
(``_psi_adjoint``) is the same recursion with each derivation replaced by
its transpose on monomials, applied in reverse order.  Since rho_bar_word
multiplies by z^front after psi_word, the coefficient of z^target in
rho_bar(u)(z^beta) is < psi_word z^beta, z^(target - front) >.  So the
transpose, applied to z^(target - front) once per word, gives both the
sources with a nonzero coefficient and those coefficients.  The transposes
are memoized as long as psi_word.  The dual coproduct of a letter is read
from the same coaction.

Two exact degree invariants keep the enumeration from forming words whose
transpose is empty.  Write rem = target - front, K(g) = sum_k k g_k over
the counting keys, N(g) for the number of direction factors and T for the
number of chosen tilts.

1. Ladder weight.  Every basis derivation raises K by 1 or leaves it: D(0)
   and the ladder branch of P_i raise it, D(n != 0) and the raising branch
   of P_i leave it.  A diamond term never removes a D(0), since
   P_i <> D(0) = 0.  So a nonempty transpose needs K(rem) at least the
   number of chosen tilts with n = 0.  Down the tilt search K(rem) only
   falls and that number only grows, so a failure cuts the whole branch.
2. Source degree when no counting key is left.  Every derivation keeps the
   number of counting factors, so if rem has none, neither has the source
   beta, and no ladder step can act.  Each tilt derivation then removes
   exactly one direction factor and the shifts only raise or are absorbed
   by a diamond term, so beta has N(rem) + T direction factors, each of
   norm at least 1.  Its direction degree b(beta) is the direction budget
   less the m shifts, so m is at most that budget less N(rem) + T.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from typing import Iterable, Sequence

from .derivations import (
    Derivation,
    _adjoint_monomial,
    apply as apply_derivation,
    apply_to_monomial,
    apply_word,
    derivation_rank,
    diamond as derivation_diamond,
)
from .enveloping import Structure, SymElement, SymWord, _word_rank, sigma
from .multiindex import Config, MultiIndex, homogeneity, n_norm
from .polyalg import Polynomial
from .postlie import (
    LBasisKey,
    LElement,
    Shift,
    Tilt,
    divisor_tilts,
    key_derivation,
    key_poly,
    structural_rank,
)
from .walks import compositions

# -- letter and operator actions ---------------------------------------------


def rho_key(key: LBasisKey, p: Polynomial, cfg: Config) -> Polynomial:
    return key_poly(key) * apply_derivation(key_derivation(key), p, cfg)


def rho(x: LElement, p: Polynomial, cfg: Config) -> Polynomial:
    return Polynomial.sum_of((rho_key(key, p, cfg), c) for key, c in x.terms)


def rho_hat(seq: Sequence[LBasisKey], p: Polynomial, cfg: Config) -> Polynomial:
    """Compose the letter actions, rightmost letter applied first."""
    for key in reversed(tuple(seq)):
        p = rho_key(key, p, cfg)
    return p


# -- the symmetrized action of derivation words ------------------------------

_PSI_CACHE: dict = {}


def _diamond_words(head: Derivation, rest: tuple):
    """(rest with rest_i replaced by a term of head <> rest_i, its coefficient)."""
    for i in range(len(rest)):
        for dnew, c in derivation_diamond(head, rest[i]).terms:
            yield rest[:i] + (dnew,) + rest[i + 1 :], c


def psi_word(ds: tuple, g: MultiIndex, cfg: Config) -> Polynomial:
    key = (ds, g, cfg)
    hit = _PSI_CACHE.get(key)
    if hit is not None:
        return hit
    if not ds:
        out = Polynomial.monomial(g)
    elif len(ds) == 1:
        out = Polynomial.from_terms(apply_to_monomial(ds[0], g, cfg))
    else:
        head, rest = ds[0], ds[1:]
        terms = list(apply_derivation(head, psi_word(rest, g, cfg), cfg).terms)
        for repl, c in _diamond_words(head, rest):
            terms.extend((h, -c * ch) for h, ch in psi_word(repl, g, cfg).terms)
        out = Polynomial.from_terms(terms)
    _PSI_CACHE[key] = out
    return out


def psi_apply(ds: Iterable[Derivation], p: Polynomial, cfg: Config) -> Polynomial:
    ds = tuple(ds)
    return Polynomial.sum_of((psi_word(ds, g, cfg), c) for g, c in p.terms)


def rho_bar_word(struct: Structure, w: Sequence[LBasisKey], p: Polynomial, cfg: Config) -> Polynomial:
    """Product of the decorations times the derivation-word action.

    The decorations multiply to the single monomial z^front, front the sum
    of the tilt decorations (a shift has none).  The derivations, sorted by
    ``derivation_rank``, act through psi_word at lam = 1 (btr); at lam = 0
    (jz) the diamond terms vanish and they compose, shifts applied last.
    That is the composition in PBW order: both orders put the shifts first,
    and shift derivations commute among themselves, as do tilt derivations.
    """
    front = MultiIndex.sum_of(key.gamma for key in w if isinstance(key, Tilt))
    ds = tuple(sorted((key_derivation(k) for k in w), key=derivation_rank))
    acted = psi_apply(ds, p, cfg) if struct.lam else apply_word(ds, p, cfg)
    return Polynomial.monomial(front) * acted


def rho_bar(struct: Structure, u: SymElement, p: Polynomial, cfg: Config) -> Polynomial:
    return Polynomial.sum_of((rho_bar_word(struct, w, p, cfg), c) for w, c in u.terms)


# -- coaction ----------------------------------------------------------------


@dataclass(frozen=True)
class Contribution:
    """One term of the coaction on a monomial: coeff * word (x) z^source."""

    word: SymWord
    source: MultiIndex
    coeff: Fraction


_PSI_ADJOINT_CACHE: dict = {}


def _psi_adjoint(ds: tuple, h: MultiIndex, cfg: Config) -> dict:
    """psi_word transposed: beta -> <psi_word(ds) z^beta, z^h>, zeros dropped.

    Psi[D0 rest]^T = Psi[rest]^T o D0^T - sum_i Psi[rest with D0 <> rest_i]^T,
    over the diamond terms of ``psi_word``, and memoized like it.
    """
    key = (ds, h, cfg)
    hit = _PSI_ADJOINT_CACHE.get(key)
    if hit is not None:
        return hit
    if not ds:
        out = {h: Fraction(1)}
    else:
        head, rest = ds[0], ds[1:]
        acc: dict = {}
        for g, c in _adjoint_monomial(head, h, cfg):
            for beta, cb in _psi_adjoint(rest, g, cfg).items():
                acc[beta] = acc.get(beta, 0) + c * cb
        for repl, c in _diamond_words(head, rest):
            for beta, cb in _psi_adjoint(repl, h, cfg).items():
                acc[beta] = acc.get(beta, 0) - c * cb
        out = {beta: c for beta, c in acc.items() if c}
    _PSI_ADJOINT_CACHE[key] = out
    return out


def _ladder_weight(g: MultiIndex) -> int:
    """K(g) = sum_k k g_k over the counting keys of g."""
    return sum(k * m for k, m in g.entries if isinstance(k, int))


def coaction_contributions(target: MultiIndex, cfg: Config) -> tuple:
    """All (word, source, coefficient) triples of the coaction on z^target.

    Exact and complete.  Tilt letters are chosen among the divisors of the
    target, and the degree bookkeeping bounds the shift count.  For each
    word u so formed, the transpose of its derivation action, applied to
    z^(target - front), gives exactly the sources with a nonzero
    coefficient, and each coefficient before the division by sigma(u).

    Two necessary conditions for a nonempty transpose keep dead words from
    being formed (module docstring): the ladder weight K(rem) of
    rem = target - front must reach the number of chosen ladder tilts
    D(0), which cuts a branch of the tilt search, and when rem has no
    counting key the shift count is at most the direction budget less the
    N(rem) + T direction factors of the source.  Tilts are chosen in
    canonical order and shifts come first in it, so each word is built
    sorted; its derivations are the shifts' followed by the tilts', sorted
    once per choice of tilts.
    """
    ht = homogeneity(target)
    letters = [(x, not any(x.n)) for x in sorted(divisor_tilts(target, cfg), key=structural_rank)]
    units = [Shift(i) for i in range(1, cfg.d + 1)]
    results = []

    def finish(tilts: list, rem: MultiIndex):
        max_shifts = ht.b - sum(homogeneity(t.gamma).b - n_norm(t.n) for t in tilts)
        if not rem.k_entries():
            # the source has N(rem) + T direction factors, each of norm >= 1
            max_shifts -= rem.total() + len(tilts)
        # a shift in any other direction acts as zero (module docstring)
        live = sorted(
            {i for nkey, _ in rem.n_entries() for i, a in enumerate(nkey) if a}
            | {i for t in tilts for i, a in enumerate(t.n) if a}
        )
        tilt_word = tuple(tilts)
        tilt_ds = tuple(sorted((key_derivation(t) for t in tilts), key=derivation_rank))
        tilt_sigma = sigma(tilt_word)
        for m in range(max_shifts + 1):
            for spread in compositions(m, len(live)):
                shifts = [units[i] for i, k in zip(live, spread) for _ in range(k)]
                ds = tuple(key_derivation(x) for x in shifts) + tilt_ds
                adjoint = _psi_adjoint(ds, rem, cfg)
                if not adjoint:
                    continue
                u = tuple(shifts) + tilt_word
                s = tilt_sigma * prod(factorial(k) for k in spread)
                for beta, c in adjoint.items():
                    results.append(Contribution(u, beta, c / s))

    def choose(i: int, tilts: list, rem: MultiIndex, ladders: int):
        finish(tilts, rem)
        gamma = room = None
        for j in range(i, len(letters)):
            x, ladder = letters[j]
            # the letters of one decoration are adjacent: one subtraction each
            if x.gamma != gamma:
                gamma = x.gamma
                left = rem.try_sub(gamma)
                room = -1 if left is None else _ladder_weight(left) - ladders
            # K(rem) only falls and the ladder count only grows down the search
            if room >= ladder:
                choose(j, tilts + [x], left, ladders + ladder)

    choose(0, [], target, 0)
    results.sort(key=lambda r: (_word_rank(r.word), r.source.sort_rank()))
    return tuple(results)
