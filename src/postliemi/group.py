"""Characters on words, their convolution, and the recentering maps.

A character assigns a rational to every basis key and extends to words
multiplicatively, with value 1 on the empty word.  Characters convolve
through the coproduct dual to the btr star product:

    (f1 * f2)(w) = (f1 (x) f2)(D(w))

and the convolution of two characters is again a character, so it is fully
determined by its letter values.

``gamma_apply`` turns a character into an algebra endomorphism of the
polynomial ring: on a monomial it sums coeff * f(word) * z^source over the
coaction contributions of the target, and extends multiplicatively in the
weak sense of linearity over monomials.  Composition reverses into
convolution: gamma of (f1 * f2) equals gamma(f2) after gamma(f1); the
``check_gamma_composition`` helper verifies that on concrete inputs, and
``check_coaction_axiom`` verifies the coefficientwise compatibility between
the coaction and the dual coproduct that underlies it.

A check reads the same few coactions many times, so every function that
reads them takes an optional ``coaction`` lookup with the signature of
``coaction_contributions``.  Each check builds its own ``coaction_memo``
when it is given none, and a caller running several checks passes one memo
to all of them; the memo lives as long as that caller holds it, so nothing
here caches across calls.

Character files hold one ``<letter> = <rational>`` line each, read by
``text.read_assignments``: blank lines and '#' comments are skipped and a
repeated letter is refused.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .enveloping import SymWord, _word_rank, dual_coproduct
from .multiindex import Config, MultiIndex
from .polyalg import Polynomial
from .postlie import LBasisKey, basis_pool, parse_l_key, print_l_key, structural_rank
from .representation import coaction_contributions
from .text import read_assignments

_ZERO = Fraction(0)


@dataclass(frozen=True)
class Character:
    """Finitely supported letter values; multiplicative on words.

    ``values`` is the whole value: it alone is compared, hashed, printed and
    pickled.  The letter -> value dict beside it is an index built from it.
    """

    values: tuple = ()
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", dict(self.values))

    def __getstate__(self):
        return {"values": self.values}

    def __setstate__(self, state):
        object.__setattr__(self, "values", state["values"])
        self.__post_init__()

    @staticmethod
    def from_dict(vals: dict) -> "Character":
        cleaned = [(k, Fraction(v)) for k, v in vals.items() if Fraction(v) != 0]
        cleaned.sort(key=lambda kv: structural_rank(kv[0]))
        return Character(tuple(cleaned))

    def value(self, key: LBasisKey) -> Fraction:
        return self._index.get(key, _ZERO)

    def on_word(self, w: Sequence[LBasisKey]) -> Fraction:
        out = Fraction(1)
        for k in w:
            out *= self.value(k)
            if out == 0:
                return out
        return out


UNIT_CHARACTER = Character(())


def char_eval(f: Character, terms) -> Fraction:
    """Linear extension to a combination of words."""
    out = Fraction(0)
    for w, c in terms:
        out += c * f.on_word(w)
    return out


def convolve(f1: Character, f2: Character, w: SymWord, cfg: Config) -> Fraction:
    out = Fraction(0)
    for (a, b), c in dual_coproduct(w, cfg).terms:
        out += c * f1.on_word(a) * f2.on_word(b)
    return out


def conv_character(
    f1: Character, f2: Character, letters: Iterable[LBasisKey], cfg: Config
) -> Character:
    """Materialize f1 * f2 on the given letters; enough to evaluate it on any
    word over them, since the convolution is again a character."""
    vals = {}
    for k in letters:
        vals[k] = convolve(f1, f2, (k,), cfg)
    return Character.from_dict(vals)


def coaction_memo():
    """A fresh memo of ``coaction_contributions``, for one caller's checks."""
    return functools.cache(coaction_contributions)


def gamma_apply(f: Character, g: MultiIndex, cfg: Config, coaction=None) -> Polynomial:
    out = Polynomial.zero()
    for con in (coaction or coaction_contributions)(g, cfg):
        fv = f.on_word(con.word)
        if fv:
            out = out + Polynomial.monomial(con.source, con.coeff * fv)
    return out


def gamma_apply_poly(f: Character, p: Polynomial, cfg: Config, coaction=None) -> Polynomial:
    out = Polynomial.zero()
    for g, c in p.terms:
        out = out + gamma_apply(f, g, cfg, coaction).scale(c)
    return out


def contribution_letters(targets: Iterable[MultiIndex], cfg: Config, coaction=None) -> list:
    """Distinct letters appearing in the coaction words of the targets."""
    coaction = coaction or coaction_contributions
    seen = set()
    for g in targets:
        for con in coaction(g, cfg):
            seen.update(con.word)
    return sorted(seen, key=structural_rank)


def check_gamma_composition(
    f1: Character,
    f2: Character,
    targets: Sequence[MultiIndex],
    cfg: Config,
    coaction=None,
) -> list:
    """Violations of gamma_{f1 * f2} = gamma_{f2} o gamma_{f1} on the targets."""
    coaction = coaction or coaction_memo()
    letters = contribution_letters(targets, cfg, coaction)
    f12 = conv_character(f1, f2, letters, cfg)
    out = []
    for g in targets:
        lhs = gamma_apply(f12, g, cfg, coaction)
        rhs = gamma_apply_poly(f2, gamma_apply(f1, g, cfg, coaction), cfg, coaction)
        if lhs != rhs:
            out.append((g, lhs - rhs))
    return out


def check_gamma_multiplicativity(
    f: Character, pairs: Sequence, cfg: Config, coaction=None
) -> list:
    """Report monomial pairs where gamma_f(z^a z^b) != gamma_f(z^a) gamma_f(z^b).

    Not asserted anywhere: the map need not be an algebra morphism in general,
    so callers only report what they find.
    """
    coaction = coaction or coaction_memo()
    out = []
    for g1, g2 in pairs:
        lhs = gamma_apply(f, g1 + g2, cfg, coaction)
        rhs = gamma_apply(f, g1, cfg, coaction) * gamma_apply(f, g2, cfg, coaction)
        if lhs != rhs:
            out.append(((g1, g2), lhs - rhs))
    return out


def check_coaction_axiom(targets: Sequence[MultiIndex], cfg: Config, coaction=None) -> list:
    """Coefficientwise comparison of the two ways around the square:
    coact-then-coact against coact-then-split."""
    coaction = coaction or coaction_memo()
    out = []
    for g in targets:
        first = coaction(g, cfg)
        lhs: dict = {}
        for con in first:
            for con2 in coaction(con.source, cfg):
                k = (con.word, con2.word, con2.source)
                lhs[k] = lhs.get(k, Fraction(0)) + con.coeff * con2.coeff
        rhs: dict = {}
        for con in first:
            for (w1, w2), c in dual_coproduct(con.word, cfg).terms:
                k = (w1, w2, con.source)
                rhs[k] = rhs.get(k, Fraction(0)) + con.coeff * c
        keys = set(lhs) | set(rhs)

        def _rank(t):
            w1, w2, beta = t
            return (_word_rank(w1), _word_rank(w2), beta.sort_rank())

        for k in sorted(keys, key=_rank):
            dl = lhs.get(k, Fraction(0))
            dr = rhs.get(k, Fraction(0))
            if dl != dr:
                out.append((g, k, dl - dr))
    return out


def sample_character(
    rng: random.Random, letters: Sequence[LBasisKey], denom_max: int = 4
) -> Character:
    """Random rational letter values in [-2, 2] with small denominators."""
    vals = {}
    for k in letters:
        q = rng.randint(1, denom_max)
        p = rng.randint(-2 * q, 2 * q)
        if p:
            vals[k] = Fraction(p, q)
    return Character.from_dict(vals)


def support_letters(cutoff: Fraction, cfg: Config) -> list:
    """Basis keys of the graded subalgebra with decoration degree <= cutoff,
    shifts included; the natural support for sampled characters."""
    return basis_pool(cfg, gamma_limit=cutoff, max_norm=max(int(cutoff), 1), require_L=True)


# -- text form ---------------------------------------------------------------


def print_character(f: Character) -> str:
    return "\n".join(f"{print_l_key(k)} = {v}" for k, v in f.values)


def parse_character(text: str, d: int | None = None) -> Character:
    def letter(left: str):
        key = parse_l_key(left, d)
        return key, print_l_key(key)

    return Character.from_dict(
        dict(read_assignments(text, letter, "<letter> = <rational>", "letter"))
    )
