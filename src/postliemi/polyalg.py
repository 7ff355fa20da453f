"""The free commutative polynomial algebra on the multi-index variables.

Coefficients are exact rationals; terms are stored sparsely as a canonical
tuple of (MultiIndex, coefficient) pairs with all coefficients nonzero.
The algebra is graded by HomDegree pairs: the product of monomials adds
exponents, hence degrees add componentwise.
"""

from __future__ import annotations

from fractions import Fraction

from .combination import Combination
from .errors import ParseError
from .multiindex import (
    Config,
    HomDegree,
    MultiIndex,
    hom_value,
    homogeneity,
    parse_multiindex,
    print_multiindex,
)


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
# Each term is an optional rational coefficient followed by an optional
# monomial `z{...}`; a bare rational is a constant term and `1` the unit
# monomial.  Terms are joined with ` + ` / ` - `.


def _fmt_coeff(c: Fraction) -> str:
    return str(c)


def print_polynomial(p: Polynomial, cfg: Config | None = None) -> str:
    if p.is_zero:
        return "0"
    terms = list(p.terms)
    if cfg is not None:
        terms.sort(key=lambda gc: (hom_value(gc[0], cfg), gc[0].sort_rank()))
    pieces = []
    for i, (g, c) in enumerate(terms):
        neg = c < 0
        mag = -c if neg else c
        if g.is_zero:
            body = _fmt_coeff(mag)
        elif mag == 1:
            body = "z" + print_multiindex(g)
        else:
            body = f"{_fmt_coeff(mag)} z" + print_multiindex(g)
        if i == 0:
            pieces.append(("- " if neg else "") + body)
        else:
            pieces.append(("- " if neg else "+ ") + body)
    return " ".join(pieces)


def _split_sum(s: str) -> list:
    """Top-level sum splitter, brace and paren aware: returns (sign, term_text)
    pairs.  A sign right after the exponent marker of a number, as in 1e-3,
    belongs to that number."""
    parts = []
    depth = 0
    term_start = 0
    pending_sign = 1
    seen_content = False
    for i, ch in enumerate(s):
        if ch in "({":
            depth += 1
            seen_content = True
        elif ch in ")}":
            depth -= 1
        elif ch in "+-" and depth == 0 and not (
            i >= 2 and s[i - 1] in "eE" and (s[i - 2].isdigit() or s[i - 2] == ".")
        ):
            if not seen_content:
                # sign prefixing the current term
                if ch == "-":
                    pending_sign = -pending_sign
                continue
            parts.append((pending_sign, s[term_start:i].strip().lstrip("+-").strip()))
            pending_sign = 1 if ch == "+" else -1
            term_start = i + 1
            seen_content = False
        elif not ch.isspace():
            seen_content = True
    tail = s[term_start:].strip().lstrip("+-").strip()
    if seen_content and tail:
        parts.append((pending_sign, tail))
    return parts


def _parse_rational(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational {s!r}") from None


def parse_polynomial(s: str, d: int | None = None) -> Polynomial:
    text = s.strip()
    if not text or text == "0":
        return Polynomial.zero()
    terms = []
    for sign, chunk in _split_sum(text):
        if not chunk:
            raise ParseError("empty term", s, 0)
        if "z{" in chunk:
            idx = chunk.index("z{")
            coeff_s = chunk[:idx].strip()
            mono_s = chunk[idx + 1 :].strip()
            c = Fraction(1) if not coeff_s else _parse_rational(coeff_s)
            g = parse_multiindex(mono_s, d)
        else:
            c = _parse_rational(chunk)
            g = MultiIndex.zero()
        terms.append((g, sign * c))
    return Polynomial.from_terms(terms)
