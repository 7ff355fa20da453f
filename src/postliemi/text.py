"""The lexical pieces that every printer and parser shares.

Each grammar decision is made here once:

* a rational is what ``Fraction`` reads: ``3``, ``-1/2``, ``2.5``, ``1e-3``;
* a tuple of naturals is written ``(1,0)``;
* a list splits on the commas outside every bracket;
* a sum is terms joined by ``+`` and ``-``, at most one of them before
  each term; a term is an optional rational coefficient then a label, and
  the signs written against a number's digits, as in ``-2.5e+1`` or
  ``1e-3``, belong to that number;
* a file holds one ``<left> = <rational>`` line per entry; ``#`` starts a
  comment, blank lines are skipped and a repeated left side is refused.

Like ``combination`` and ``walks``, this module is not a layer of its own:
it knows the punctuation, and the modules that own each object know their
labels.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError


def parse_rational(s: str, text: str | None = None, pos: int | None = None) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational {s!r}", text, pos) from None


def print_naturals(n: tuple) -> str:
    return "(" + ",".join(map(str, n)) + ")"


def parse_naturals(s: str, text: str, pos: int) -> tuple:
    """The tuple written ``(n_1,...,n_d)``, every entry a natural."""
    try:
        if s[:1] == "(" and s[-1:] == ")":
            n = tuple(int(c.strip()) for c in s[1:-1].split(","))
            if min(n) >= 0:
                return n
    except ValueError:
        pass
    raise ParseError(f"expected a tuple of naturals like (1,0), got {s!r}", text, pos)


def split_commas(s: str, text: str, base: int) -> list:
    """(item, offset) pairs of s split on the commas outside every bracket;
    offsets count from the start of text, where s begins at base."""
    items, depth, start = [], 0, 0
    for i, ch in enumerate(s):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced {ch!r}", text, base + i)
        elif ch == "," and depth == 0:
            items.append((s[start:i], base + start))
            start = i + 1
    if depth:
        raise ParseError("unclosed bracket", text, base + start)
    items.append((s[start:], base + start))
    return items


def _split_sum(s: str) -> list:
    """(sign, term, offset) triples of the top-level terms of s.

    A sign outside every bracket ends the term before it and signs the next
    one.  A second sign written against a number's digits (``+ -2``), like
    one after an exponent marker (``1e-3``), belongs to the number.  Any
    other second sign before one term, or a sign that no term follows, is a
    ParseError.
    """
    parts = []
    depth = 0
    sign, sign_at = 1, None  # the pending sign, and where it was written
    start = None  # offset of the current term, None between terms
    for i, ch in enumerate(s):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch in "+-" and depth == 0 and not (
            i >= 2 and s[i - 1] in "eE" and (s[i - 2].isdigit() or s[i - 2] == ".")
        ):
            if start is not None:
                parts.append((sign, s[start:i].strip(), start))
                start = None
            elif sign_at is not None:
                if not (s[i + 1 : i + 2].isdigit() or s[i + 1 : i + 2] == "."):
                    raise ParseError("two signs before one term", s, i)
                start, sign_at = i, None  # a number's own sign, as in `+ -2 P1`
                continue
            sign, sign_at = (-1 if ch == "-" else 1), i
            continue
        if start is None and not ch.isspace():
            start, sign_at = i, None
    if start is not None:
        parts.append((sign, s[start:].strip(), start))
    elif sign_at is not None:
        raise ParseError("sign with no term after it", s, sign_at)
    return parts


def parse_sum(s: str, markers: tuple, parse_label, unit=None) -> list:
    """(key, coefficient) pairs of a written sum; ``0`` and the empty text
    are the empty sum.

    A term's label starts at the first of the markers that it contains, in
    the order given, and parse_label reads it into a key.  A term without
    any is a bare rational, the coefficient of the key unit; with no unit
    such a term is refused.
    """
    text = s.strip()
    if not text or text == "0":
        return []
    out = []
    for sign, term, pos in _split_sum(text):
        for marker in markers:
            at = term.find(marker)
            if at >= 0:
                break
        else:
            if unit is None:
                raise ParseError(
                    f"expected a label starting with {' or '.join(markers)} in {term!r}", text, pos
                )
            out.append((unit, sign * parse_rational(term, text, pos)))
            continue
        coeff = term[:at].strip()
        c = parse_rational(coeff, text, pos) if coeff else Fraction(1)
        out.append((parse_label(term[at:]), sign * c))
    return out


def print_sum(terms) -> str:
    """The written sum of (label, coefficient) pairs: a coefficient of
    magnitude 1 is left out before a label, and the empty label stands for
    a bare number; the empty sum is ``0``."""
    pieces = []
    for label, c in terms:
        neg = c < 0
        mag = -c if neg else c
        if not label:
            body = str(mag)
        elif mag == 1:
            body = label
        else:
            body = f"{mag} {label}"
        pieces.append(("- " if neg else "+ ") + body)
    if not pieces:
        return "0"
    if pieces[0][0] == "+":
        pieces[0] = pieces[0][2:]
    return " ".join(pieces)


def read_assignments(text: str, parse_left, form: str, what: str) -> list:
    """The (key, value) pairs of the ``<left> = <rational>`` lines of text.

    parse_left reads a left side into a (key, label) pair.  Every error is
    a ParseError that names its line; a key seen on an earlier line is
    refused as a duplicate ``what``, named by its label.
    """
    out, seen = [], set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        left, eq, right = line.partition("=")
        try:
            if not eq:
                raise ParseError(f"expected '{form}', got {raw!r}")
            key, label = parse_left(left.strip())
            if key in seen:
                raise ParseError(f"duplicate {what} {label}")
            seen.add(key)
            out.append((key, parse_rational(right.strip())))
        except ParseError as e:
            raise ParseError(f"line {lineno}: {e}") from None
    return out
