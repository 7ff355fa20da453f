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
coefficient divided by the symmetry factor of u.  The search space is finite:
tilt decorations must divide the target, the two-component degree is exactly
additive, and that fixes the shift count and bounds beta.  A choice of tilts
leaves a counting budget and a direction budget; the source parts that fill
them and the spreads of the leftover shifts depend on nothing else, so they
are built once per target and shared by every tilt choice.  Each candidate is
still settled by evaluating ``rho_bar_word`` on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .derivations import (
    Derivation,
    apply as apply_derivation,
    apply_to_monomial,
    apply_word,
    derivation_rank,
    diamond as derivation_diamond,
)
from .enveloping import STRUCT_BTR, Structure, SymElement, SymWord, _word_rank, sigma, sym_word
from .multiindex import Config, MultiIndex, direction_keys, homogeneity, n_norm
from .polyalg import Polynomial
from .postlie import (
    LBasisKey,
    LElement,
    Shift,
    Tilt,
    divisor_tilts,
    key_derivation,
    key_poly,
    pbw_rank,
    structural_rank,
)
from .walks import compositions, within_budget

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
        for i in range(len(rest)):
            combo = derivation_diamond(head, rest[i])
            for dnew, c in combo.terms:
                repl = rest[:i] + (dnew,) + rest[i + 1 :]
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
    of the tilt decorations (a shift has none).  In the btr structure the
    derivation part is psi_word; with the plain structure the diamond terms
    vanish and it degenerates to composition in the fixed word order.
    """
    front = MultiIndex.sum_of(key.gamma for key in w if isinstance(key, Tilt))
    if struct.name == "btr":
        ds = tuple(sorted((key_derivation(k) for k in w), key=derivation_rank))
        acted = psi_apply(ds, p, cfg)
    else:
        ordered = sorted(w, key=lambda k: pbw_rank(k, cfg))
        acted = apply_word([key_derivation(k) for k in ordered], p, cfg)
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


def coaction_contributions(target: MultiIndex, cfg: Config) -> tuple:
    """All (word, source, coefficient) triples of the coaction on z^target.

    Exact and complete: candidate words are enumerated from divisibility and
    degree bookkeeping, then every candidate coefficient is computed by
    evaluating the action; zero candidates are dropped.  The candidate parts
    depend on a tilt choice only through its degree bookkeeping, so the
    counting parts, direction parts and shift-letter lists are built once
    per target, keyed by their budgets, and shared by every tilt choice.
    """
    ht = homogeneity(target)
    k_keys = [k for k, _ in target.k_entries()]
    max_k = max(k_keys) if k_keys else -1
    letters = sorted(divisor_tilts(target, cfg), key=structural_rank)
    k_parts: dict = {}  # counting budget -> source parts on K-keys
    n_parts: dict = {}  # b budget -> [(part on direction keys, shifts left)]
    shift_letters: dict = {}  # shift count -> every spread over the d shifts
    units = [Shift(i) for i in range(1, cfg.d + 1)]
    results = []

    def finish(tilts: list, used: MultiIndex):
        rem = target.sub(used)
        a_fix = homogeneity(rem).a
        sum_norm = sum(n_norm(t.n) for t in tilts)
        sum_b = sum(homogeneity(t.gamma).b for t in tilts)
        b_budget = ht.b - sum_b + sum_norm
        if b_budget < 0:
            return
        if a_fix not in k_parts:
            k_parts[a_fix] = [
                MultiIndex.from_dict(dict(enumerate(c))) for c in compositions(a_fix, max_k + 1)
            ]
        if b_budget not in n_parts:
            weighted = [(n, n_norm(n)) for n in direction_keys(cfg.d, b_budget)]
            n_parts[b_budget] = [
                (MultiIndex.from_dict(acc), left)
                for acc, left in within_budget(weighted, b_budget)
            ]
        for k_part in k_parts[a_fix]:
            for n_part, m_total in n_parts[b_budget]:
                beta = k_part + n_part
                source = Polynomial.monomial(beta)
                if m_total not in shift_letters:
                    shift_letters[m_total] = [
                        [x for x, m in zip(units, c) for _ in range(m)]
                        for c in compositions(m_total, cfg.d)
                    ]
                for shifts in shift_letters[m_total]:
                    u = sym_word(tilts + shifts)
                    value = rho_bar_word(STRUCT_BTR, u, source, cfg)
                    c = value.coeff(target)
                    if c != 0:
                        results.append(Contribution(u, beta, c / sigma(u)))

    def choose(i: int, tilts: list, used: MultiIndex):
        finish(tilts, used)
        for j in range(i, len(letters)):
            g = letters[j].gamma
            if target.try_sub(used + g) is None:
                continue
            choose(j, tilts + [letters[j]], used + g)

    choose(0, [], MultiIndex.zero())
    results.sort(key=lambda r: (_word_rank(r.word), r.source.sort_rank()))
    return tuple(results)
