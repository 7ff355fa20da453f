"""Word algebras over the basis keys: symmetric and enveloping products.

Words are multisets of basis keys, stored as sorted tuples (``SymWord``).
Under the commutative product ``poly_star`` they form the free polynomial
algebra on the keys; under ``star`` they carry the associative product

    u * v = sum u^(1) (u^(2) > v)

built from the Guin-Oudom extension ``ext_action`` of a letter-level product
to words.  The structures are one family: deforming the post-Lie pair
(>, [.,.]) by <> gives the letter product > + lambda <> with bracket
(1 - lambda)[.,.].  A ``Structure`` holds lambda; two values are supported:

* ``STRUCT_JZ``, lambda = 0: letter product >, bracket [.,.]; words
  multiply by concatenation followed by ``pbw_normal_form``;
* ``STRUCT_BTR``, lambda = 1: letter product btr = > + <>, zero bracket;
  words multiply by multiset union.

On one letter y = z^gamma D^(n) the action of a word u factors through the
representation, so ``ext_action_word`` reads it in closed form instead of
peeling u letter by letter: the decorations of u multiply out front, its
derivations act on z^gamma through ``psi_word`` (composed in
``derivation_rank`` order at lambda = 0), and at lambda = 1 each shift that
<> absorbs lowers D^(n) by P_i <> D^(m) = -m_i D^(m - e_i).  Only the
decorations multiply out per word; the rest is read from a table keyed by
the derivations of u.  The coefficient of those lowerings, ``_lowering``,
also gives the extra shifts of ``dual_coproduct_letter``.

``coshuffle`` is the coproduct with primitive letters; on a word it sums
multiset splittings with binomial multiplicities, which is simultaneously
the coproduct of the symmetric algebra and, through the sorted-word basis,
of the enveloping algebra.

Combinations of words and of word pairs are ``Combination``s: each sum of
scaled pieces below is merged once (``from_terms``, ``sum_of``), never
folded with ``+``.  Word products merge once per public result:
``Structure.mul``, ``star_word``, ``star`` and the splitting branch of
``ext_action_word`` add every term into one plain dict and sort it at the
end, multiplying by no factor equal to 1.  A concatenation whose inverted
letters all commute is sorted, not rewritten; only a tilt z^gamma D^(n)
standing before a shift P_i with n_i != 0 sends a jz product through
``pbw_normal_form``.

Duality: ``pairing`` satisfies <w, w> = prod m_i! on a word with letter
multiplicities m_i, zero on distinct words; ``tmap`` multiplies each word by
that symmetry factor.  ``dual_coproduct`` computes the coproduct dual to
``star`` in the btr structure,

    D(x) = x (x) 1 + sum_{u, y} <u > y, x> / sigma(u)  u (x) y

on letters, extended multiplicatively to words.  A shift is primitive; the
terms of a tilt z^gamma D^(n) are read from the coaction on z^gamma.  Letters
must lie in the graded subalgebra (``in_L``): outside it the sum is genuinely
infinite, so membership is a precondition rather than a limitation of the
implementation.  Truncation bounds are checked against the exact result: the
required word length and letter degree are read from its terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence, Tuple

from .combination import Combination
from .derivations import Partial, apply_word, derivation_rank
from .errors import ParseError, TruncationRefused
from .multiindex import Config, MultiIndex, hom_value, n_norm
from .polyalg import Polynomial
from .postlie import (
    LBasisKey,
    LElement,
    Shift,
    Tilt,
    _diamond_kernel,
    _keys_commute,
    _tri_kernel,
    _trusted_tilt,
    bracket,
    check_key_dim,
    key_degree,
    key_derivation,
    key_in_L,
    parse_l_key,
    pbw_rank,
    print_l_key,
    structural_rank,
)
from .text import print_sum
from .walks import compositions, splits

SymWord = Tuple[LBasisKey, ...]  # letters sorted by structural_rank


def sym_word(letters: Iterable[LBasisKey]) -> SymWord:
    return tuple(sorted(letters, key=structural_rank))


EMPTY_WORD: SymWord = ()


def word_mults(w: SymWord) -> list:
    """Distinct letters with multiplicities, in canonical order."""
    out: list = []
    for x in w:
        if out and out[-1][0] == x:
            out[-1][1] += 1
        else:
            out.append([x, 1])
    return [(x, m) for x, m in out]


def sigma(w: SymWord) -> int:
    """Symmetry factor: product of factorials of letter multiplicities."""
    s = 1
    for _, m in word_mults(w):
        s *= math.factorial(m)
    return s


def _word_rank(w: SymWord):
    return (len(w), tuple(map(structural_rank, w)))


class SymElement(Combination):
    """Finite rational combination of words, canonical."""

    _rank = staticmethod(_word_rank)
    # declared here, not only inherited: tracing wraps each class's own __add__
    __add__ = Combination.__add__

    @staticmethod
    def unit() -> "SymElement":
        return _SE_UNIT


_SE_UNIT = SymElement(((EMPTY_WORD, Fraction(1)),))


def counit(u: SymElement) -> Fraction:
    return u.coeff(EMPTY_WORD)


def _pair_rank(pair: tuple):
    return (_word_rank(pair[0]), _word_rank(pair[1]))


class TensorElement(Combination):
    """Combination of word pairs, canonical."""

    _rank = staticmethod(_pair_rank)
    # declared here, not only inherited: tracing wraps each class's own __add__
    __add__ = Combination.__add__

    @classmethod
    def single(cls, w1: SymWord, w2: SymWord, c=1) -> "TensorElement":
        return super().single((w1, w2), c)

    def coeff(self, w1: SymWord, w2: SymWord) -> Fraction:
        return super().coeff((w1, w2))


# -- commutative product and coproduct ---------------------------------------


def poly_star(u: SymElement, v: SymElement) -> SymElement:
    """Multiset union on words, extended bilinearly."""
    return SymElement.from_terms(
        (sym_word(w1 + w2), c1 * c2) for w1, c1 in u.terms for w2, c2 in v.terms
    )


def tensor_poly_star(t1: TensorElement, t2: TensorElement) -> TensorElement:
    return TensorElement.from_terms(
        ((sym_word(a1 + a2), sym_word(b1 + b2)), c1 * c2)
        for (a1, b1), c1 in t1.terms
        for (a2, b2), c2 in t2.terms
    )


def coshuffle(u: SymElement) -> TensorElement:
    return TensorElement.from_terms(
        ((w1, w2), c * mult) for w, c in u.terms for w1, w2, mult in splits(word_mults(w))
    )


# -- the two structures ------------------------------------------------------


@dataclass(frozen=True)
class Structure:
    """Letter product > + lam <> with bracket (1 - lam)[.,.], for lam = 0
    (jz) or 1 (btr): another lam also needs psi deformed by lam."""

    lam: int

    def __post_init__(self):
        if self.lam not in (0, 1):
            raise ValueError(f"structure parameter must be 0 or 1, got {self.lam}")

    def mul_words(self, w1: SymWord, w2: SymWord, cfg: Config) -> SymElement:
        return self.mul(SymElement.single(w1), SymElement.single(w2), cfg)

    def mul(self, u: SymElement, v: SymElement, cfg: Config) -> SymElement:
        acc: dict = {}
        _mul_into(acc, self, u.terms, v.terms, 1, cfg)
        return SymElement.from_terms(acc.items())


STRUCT_JZ = Structure(0)
STRUCT_BTR = Structure(1)
STRUCTURES = {"jz": STRUCT_JZ, "btr": STRUCT_BTR}


# -- PBW normal form ---------------------------------------------------------


def _first_inversion(seq: tuple, ranks: list, strategy: str) -> int | None:
    positions = range(len(seq) - 1)
    if strategy == "rightmost":
        positions = reversed(positions)
    for i in positions:
        if ranks[i] > ranks[i + 1]:
            return i
    return None


def _add_into(acc: dict, key, c) -> None:
    """acc[key] += c in place, dropping the entry when it cancels to zero."""
    old = acc.get(key)
    if old is None:
        acc[key] = c
    else:
        c += old
        if c:
            acc[key] = c
        else:
            del acc[key]


def pbw_normal_form(
    seq: Sequence[LBasisKey], lie, cfg: Config, strategy: str = "leftmost"
) -> SymElement:
    """Rewrite x y -> y x + lie(x, y) on adjacent inversions until every word
    is nondecreasing in the fixed total order; returns the resulting
    combination of sorted words.

    Terminates because each swap reduces the inversion count and each bracket
    term is strictly shorter.  The two strategies must agree; the test suite
    checks that.

    Each letter is ranked once per call, by the integer key ``pbw_rank``, and
    each inverted pair is bracketed once per call; both tables are local to
    the call and freed on return.
    """
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown strategy {strategy!r}")
    ranks: dict = {}  # letter -> pbw_rank
    brackets: dict = {}  # inverted pair (x, y) -> terms of lie(x, y)
    pending: dict = {tuple(seq): Fraction(1)}
    done: dict = {}
    while pending:
        word, coeff = pending.popitem()
        word_ranks = []
        for x in word:
            r = ranks.get(x)
            if r is None:
                r = ranks[x] = pbw_rank(x, cfg)
            word_ranks.append(r)
        i = _first_inversion(word, word_ranks, strategy)
        if i is None:
            # finished sequences are recorded as canonical words: the sorted
            # sequence determines its multiset and conversely
            _add_into(done, sym_word(word), coeff)
            continue
        x, y = word[i], word[i + 1]
        head, tail = word[:i], word[i + 2 :]
        _add_into(pending, head + (y, x) + tail, coeff)
        terms = brackets.get((x, y))
        if terms is None:
            terms = brackets[(x, y)] = lie(LElement.single(x), LElement.single(y), cfg).terms
        for k, c in terms:
            _add_into(pending, head + (k,) + tail, coeff * c)
    return SymElement.from_terms(done.items())


def _sorts_freely(seq: tuple) -> bool:
    """Whether straightening seq only sorts it.  PBW order puts every shift
    before every tilt, so the only inverted pairs that can bracket to nonzero
    are a tilt before a shift; true when each of those commutes."""
    return all(
        _keys_commute(x, y)
        for i, x in enumerate(seq)
        if isinstance(x, Tilt)
        for y in seq[i + 1 :]
        if isinstance(y, Shift)
    )


def _mul_into(acc: dict, struct: Structure, u_terms, v_terms, scale, cfg: Config) -> None:
    """acc += scale * u * v for the words of u and v given by their terms.

    The bracket (1 - lam)[.,.] vanishes at lam = 1, where a concatenation
    is only sorted.  At lam = 0 it is straightened with [.,.], unless
    ``_sorts_freely`` shows that its inverted letters all commute.  A
    factor equal to 1 is not multiplied by.
    """
    straighten = struct.lam != 1
    rescale = scale != 1
    for w1, c1 in u_terms:
        if rescale:
            c1 *= scale
        one = c1 == 1
        for w2, c2 in v_terms:
            c = c2 if one else c1 if c2 == 1 else c1 * c2
            seq = w1 + w2
            if straighten and not _sorts_freely(seq):
                for w, cw in pbw_normal_form(seq, bracket, cfg).terms:
                    _add_into(acc, w, c if cw == 1 else c * cw)
            else:
                _add_into(acc, sym_word(seq), c)


# -- Guin-Oudom extension ----------------------------------------------------

_ACTION_CACHE: dict = {}


def _lowering(s: Sequence[int], n: Sequence[int], t: Sequence[int]) -> int:
    """L(s, n, t) = prod_i C(s_i, t_i) (-1)^t_i n_i! / (n_i - t_i)!.

    The coefficient with which t_i of s_i copies of each shift P_i lower
    D^(n) to D^(n - t), each by P_i <> D^(m) = -m_i D^(m - e_i): C(s_i, t_i)
    ways to choose the copies, times the falling factorial of the factors
    -m_i.  Zero once some t_i exceeds n_i.
    """
    c = 1
    for si, ni, ti in zip(s, n, t):
        c *= math.comb(si, ti) * math.perm(ni, ti)
    return -c if sum(t) % 2 else c


def _act_on_letter(struct: Structure, u: SymWord, y: LBasisKey, cfg: Config) -> SymElement:
    """u > y for a word u of two or more letters and one letter y, in closed
    form; ``ext_action_word`` states it.  Only the decorations of u are
    read here: they multiply out front of the terms of ``_letter_terms``."""
    d = cfg.d
    for k in u:
        check_key_dim(k, d)
    check_key_dim(y, d)
    if isinstance(y, Shift):
        return SymElement.zero()  # every derivation kills the unit decoration
    s = [0] * d
    front, tilt_ds = MultiIndex.zero(), []
    for k in u:
        if isinstance(k, Shift):
            s[k.i - 1] += 1
        else:
            front = front + k.gamma  # most words hold one tilt: no merge
            tilt_ds.append(key_derivation(k))
    tilt_ds = tuple(sorted(tilt_ds, key=derivation_rank))
    table = _letter_terms(struct.lam, tuple(s), tilt_ds, y, cfg)
    return SymElement.from_terms(((_trusted_tilt(front + h, nt),), c) for h, nt, c in table)


_LETTER_TABLE: dict = {}


def _letter_terms(lam: int, s: tuple, tilt_ds: tuple, y: Tilt, cfg: Config) -> tuple:
    """The (h, n - t, c) triples of the derivation part of u > y,

        sum_t L(s, n, t) psi[ds less t_i P_i](z^gamma) (x) D^(n - t),

    for y = z^gamma D^(n), with ds the s_i copies of each shift P_i
    followed by the sorted tilt derivations tilt_ds; at lam = 0 only t = 0,
    composed with ``apply_word``.

    The triples depend on the derivations of a word, not on its
    decorations, so words that differ only in those share one entry.
    """
    key = (lam, s, tilt_ds, y.gamma, y.n, cfg)
    hit = _LETTER_TABLE.get(key)
    if hit is not None:
        return hit
    # deferred: representation imports this module
    from .representation import psi_word

    n = y.n
    # L(s, n, t) is zero once t_i > n_i; at lam = 0 only t = 0 is summed
    tops = [min(si, ni) for si, ni in zip(s, n)] if lam else ()
    if any(tops):
        ts = product(*(range(top + 1) for top in tops))
    else:
        ts = ((0,) * cfg.d,)
    out = []
    for t in ts:
        c = _lowering(s, n, t)
        # derivation_rank order, as rho_bar_word sorts: shifts by direction, then tilts
        ds = tuple(Partial(i) for i, (si, ti) in enumerate(zip(s, t), 1) for _ in range(si - ti))
        ds += tilt_ds
        if lam:
            acted = psi_word(ds, y.gamma, cfg)
        else:
            acted = apply_word(ds, Polynomial.monomial(y.gamma), cfg)
        nt = tuple(ni - ti for ni, ti in zip(n, t))
        out.extend((h, nt, c * ch) for h, ch in acted.terms)
    out = tuple(out)
    _LETTER_TABLE[key] = out
    return out


def ext_action_word(struct: Structure, u: SymWord, v: SymWord, cfg: Config) -> SymElement:
    """The extension of the letter product to words acting on words.

    Defining rules: the empty word acts as the identity; u acts on the empty
    word through the counit; (x v) > w = x > (v > w) - (x > v) > w peels one
    letter; u > (v w) splits u through the coproduct.

    On one letter y = z^gamma D^(n) the peel has a closed form, used for
    every u of two or more letters.  With s_i the number of copies of P_i
    in u, front the sum of its tilt decorations and ds(u) its derivations,

        u > y = sum_{t <= s} L(s, n, t) z^front psi[ds(u) less t_i P_i](z^gamma) (x) D^(n - t)

    at lam = 1, with L the ``_lowering`` coefficient.  It is exact because
    the action factors through the representation: the decorations of u
    multiply out front, its derivations act on z^gamma through psi_word,
    and each shift that <> absorbs lowers D^(n) instead.  At lam = 0 no
    shift lowers D^(n), only t = 0 remains, and the derivations compose
    with ``apply_word`` in ``derivation_rank`` order, as in ``rho_bar_word``.
    A nonempty word kills a shift.  Only z^front depends on the
    decorations of u: the rest of each term is read from ``_letter_terms``,
    one table entry per (lam, s, tilt derivations, gamma, n, cfg).

    The empty u and the empty v are answered before the memo is read, so
    the memo holds no entry for them.
    """
    if not u:
        return SymElement.single(v)
    if not v:
        return SymElement.zero()  # counit of a nonempty word
    key = (struct.lam, u, v, cfg)
    hit = _ACTION_CACHE.get(key)
    if hit is not None:
        return hit
    if len(u) == 1 and len(v) == 1:
        kx, ky = u[0], v[0]
        check_key_dim(kx, cfg.d)
        check_key_dim(ky, cfg.d)
        terms = _tri_kernel(kx, ky, cfg)
        if struct.lam:
            terms = terms + _diamond_kernel(kx, ky, cfg)
        out = SymElement.from_terms(((k,), c) for k, c in terms)
    elif len(v) == 1:
        out = _act_on_letter(struct, u, v[0], cfg)
    else:
        y, rest = (v[0],), v[1:]
        acc: dict = {}
        for u1, u2, mult in splits(word_mults(u)):
            left = ext_action_word(struct, u1, y, cfg)
            if left.terms:
                right = ext_action_word(struct, u2, rest, cfg)
                _mul_into(acc, struct, left.terms, right.terms, mult, cfg)
        out = SymElement.from_terms(acc.items())
    _ACTION_CACHE[key] = out
    return out


def ext_action_elem(
    struct: Structure, u: SymElement, v: SymElement, cfg: Config
) -> SymElement:
    return SymElement.sum_of(
        (ext_action_word(struct, wu, wv, cfg), cu * cv) for wu, cu in u.terms for wv, cv in v.terms
    )


def _star_into(acc: dict, struct: Structure, u: SymWord, v: SymWord, scale, cfg: Config) -> None:
    """acc += scale * (u * v): the sum of u^(1) (u^(2) > v) over the splits of u."""
    one = scale == 1
    for u1, u2, mult in splits(word_mults(u)):
        acted = ext_action_word(struct, u2, v, cfg)
        _mul_into(acc, struct, ((u1, 1),), acted.terms, mult if one else scale * mult, cfg)


def star_word(struct: Structure, u: SymWord, v: SymWord, cfg: Config) -> SymElement:
    acc: dict = {}
    _star_into(acc, struct, u, v, 1, cfg)
    return SymElement.from_terms(acc.items())


def star(struct: Structure, u: SymElement, v: SymElement, cfg: Config) -> SymElement:
    acc: dict = {}
    for wu, cu in u.terms:
        for wv, cv in v.terms:
            _star_into(acc, struct, wu, wv, cu * cv, cfg)
    return SymElement.from_terms(acc.items())


def tensor_componentwise(word_mul, t1: TensorElement, t2: TensorElement) -> TensorElement:
    """(a1 (x) b1)(a2 (x) b2) = word_mul(a1, a2) (x) word_mul(b1, b2), bilinearly."""
    terms = []
    for (a1, b1), c1 in t1.terms:
        for (a2, b2), c2 in t2.terms:
            left = word_mul(a1, a2)
            right = word_mul(b1, b2)
            for wl, cl in left.terms:
                c = c1 * c2 * cl
                terms.extend(((wl, wr), c * cr) for wr, cr in right.terms)
    return TensorElement.from_terms(terms)


def tensor_star(
    struct: Structure, t1: TensorElement, t2: TensorElement, cfg: Config
) -> TensorElement:
    """Componentwise star on tensors."""
    return tensor_componentwise(lambda a, b: star_word(struct, a, b, cfg), t1, t2)


def phi(struct: Structure, seq: Sequence[LBasisKey], cfg: Config) -> SymElement:
    """Iterated star of the letters, right-associated."""
    out = SymElement.unit()
    for x in reversed(tuple(seq)):
        out = star(struct, SymElement.single((x,)), out, cfg)
    return out


# -- duality -----------------------------------------------------------------


def tmap(u: SymElement) -> SymElement:
    return SymElement(tuple((w, c * sigma(w)) for w, c in u.terms))


def pairing(u: SymElement, v: SymElement) -> Fraction:
    """<w, w'> = delta_{w,w'} * sigma(w) on words, extended bilinearly."""
    vals = {w: c for w, c in v.terms}
    out = Fraction(0)
    for w, c in u.terms:
        if w in vals:
            out += c * vals[w] * sigma(w)
    return out


# -- dual coproduct ----------------------------------------------------------


@dataclass(frozen=True)
class TruncationParams:
    """Optional assertions that the dual coproduct drops no term.

    The coproduct is always computed exactly; these are not search ceilings.
    ``max_word_len`` asserts that no leg of a term is longer, and
    ``max_letter_degree`` that no letter of a leg has a larger degree.  A
    bound that fails either assertion is refused, never silently applied: a
    clipped coproduct is wrong, not approximate.  None asserts nothing.
    """

    max_word_len: int | None = None
    max_letter_degree: Fraction | None = None


_DUAL_LETTER_CACHE: dict = {}


def dual_coproduct_letter(x: LBasisKey, cfg: Config) -> TensorElement:
    """The coproduct dual to the btr star product, on a single letter.

    For a tilt x = z^gamma D^(n), each term s (x) z^beta of the coaction on
    z^gamma gives the pairs u = s plus t_i more shifts P_i, y = z^beta
    D^(n + t), for each t with |n + t| < |beta|.  Those shifts act on
    D^(n + t) alone, each P_i lowering it by e_i with factor -(n_i + t_i),
    in C(s_i + t_i, t_i) ways: the coefficient ``_lowering``(s + t, n + t, t).
    """
    hit = _DUAL_LETTER_CACHE.get((x, cfg))
    if hit is not None:
        return hit
    if isinstance(x, Shift):
        # primitive: x (x) 1 + 1 (x) x
        out = TensorElement.single((x,), EMPTY_WORD) + TensorElement.single(EMPTY_WORD, (x,))
    else:
        # deferred: representation imports this module
        from .representation import coaction_contributions

        units = [Shift(i) for i in range(1, cfg.d + 1)]
        terms = [(((x,), EMPTY_WORD), 1)]
        # every coaction word lies in the graded subalgebra: its tilts come
        # from divisor_tilts and its shifts are P_1..P_d
        for r in coaction_contributions(x.gamma, cfg):
            counts = [r.word.count(p) for p in units]
            raw = r.coeff * sigma(r.word)
            spare = math.ceil(hom_value(r.source, cfg)) - 1 - n_norm(x.n)  # |n + t| < |beta|
            for m in range(spare + 1):
                for t in compositions(m, cfg.d):
                    # t of the counts + t shifts of u lower D^(n + t) back to D^(n)
                    shifts = [a + b for a, b in zip(counts, t)]
                    nt = tuple(a + b for a, b in zip(x.n, t))
                    c = raw * _lowering(shifts, nt, t)
                    u = sym_word(r.word + tuple(p for p, k in zip(units, t) for _ in range(k)))
                    # c is a Fraction, so the division stays exact
                    terms.append(((u, (Tilt(r.source, nt),)), c / sigma(u)))
        out = TensorElement.from_terms(terms)
    _DUAL_LETTER_CACHE[(x, cfg)] = out
    return out


def dual_coproduct(
    w: SymWord, cfg: Config, trunc: TruncationParams | None = None
) -> TensorElement:
    """Coproduct dual to star_btr; multiplicative over the letters of w.

    Every letter must satisfy in_L.  The result is always exact; a bound in
    trunc is refused when it would drop one of its terms, that is when it is
    below the longest leg or below the largest degree of a letter in a leg.
    """
    for x in w:
        if not key_in_L(x, cfg):
            raise ValueError(
                f"letter {print_l_key(x)} is outside the graded subalgebra; "
                "its dual coproduct has infinitely many terms"
            )
    out = TensorElement.single(EMPTY_WORD, EMPTY_WORD)
    for x in w:
        out = tensor_poly_star(out, dual_coproduct_letter(x, cfg))
    if trunc is None:
        return out
    legs = [leg for (a, b), _ in out.terms for leg in (a, b)]
    if trunc.max_word_len is not None:
        need_len = max(map(len, legs))
        if trunc.max_word_len < need_len:
            raise TruncationRefused(
                f"word length bound {trunc.max_word_len} is below the required {need_len}"
            )
    if trunc.max_letter_degree is not None:
        need_deg = max((key_degree(k).value(cfg) for leg in legs for k in leg), default=Fraction(0))
        if trunc.max_letter_degree < need_deg:
            raise TruncationRefused(
                f"letter degree bound {trunc.max_letter_degree} is below the required {need_deg}"
            )
    return out


# -- text form ---------------------------------------------------------------
#
#   [P1][z{k0:1}xD(1,0)]        the empty word prints as 1


def print_word(w: Sequence[LBasisKey], cfg: Config | None = None) -> str:
    letters = list(w)
    if cfg is not None:
        letters.sort(key=lambda k: pbw_rank(k, cfg))
    if not letters:
        return "1"
    return "".join("[" + print_l_key(k) + "]" for k in letters)


def parse_word(s: str, d: int | None = None) -> tuple:
    """Bracketed letters in written order; '1' is the empty word.

    Whitespace may stand around and between the letters, nothing else."""
    text = s
    s = s.strip()
    if s == "1" or not s:
        return ()
    if not (s.startswith("[") and s.endswith("]")):
        raise ParseError("word must be bracketed letters or '1'", text, 0)
    base = text.index("[")
    letters, at = [], 0
    while at < len(s):
        if s[at] != "[":
            raise ParseError(f"expected '[' after a letter, got {s[at]!r}", text, base + at)
        close = s.index("]", at)
        letters.append(parse_l_key(s[at + 1 : close], d))
        at = close + 1
        while s[at : at + 1].isspace():
            at += 1
    return tuple(letters)


def print_sym_element(u: SymElement, cfg: Config) -> str:
    return print_sum((print_word(w, cfg), c) for w, c in u.terms)


def print_tensor_element(t: TensorElement, cfg: Config) -> str:
    """One term per line: coefficient, left word, (x), right word."""
    if t.is_zero:
        return "0"
    lines = []
    for (a, b), c in t.terms:
        lines.append(f"{c} {print_word(a, cfg)} (x) {print_word(b, cfg)}")
    return "\n".join(lines)
