"""The text grammar: printed forms parse back, printed bytes stay pinned, and
every malformed or out-of-range input is a ParseError."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postliemi.coordinates import constants_from_derivations, derivation_labels, print_constants
from postliemi.derivations import parse_derivation
from postliemi.enveloping import (
    SymElement,
    dual_coproduct,
    parse_word,
    print_sym_element,
    print_tensor_element,
    print_word,
    sym_word,
)
from postliemi.errors import ParseError
from postliemi.group import print_character, sample_character, support_letters
from postliemi.multiindex import Config, enumerate_below_value
from postliemi.polyalg import Polynomial, parse_polynomial, print_polynomial
from postliemi.postlie import (
    LElement,
    Shift,
    basis_pool,
    parse_l_element,
    parse_l_key,
    print_l_element,
)

CONFIGS = [Config(d, alpha) for d in (2, 3) for alpha in (Fraction(1, 2), Fraction(3, 4))]
POOLS = {cfg: basis_pool(cfg, gamma_limit=Fraction(3, 2), max_norm=2) for cfg in CONFIGS}
coefficients = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def repeating_keys(draw, max_size):
    """A config and up to max_size keys drawn from at most three of its
    basis keys, so that letters repeat often."""
    cfg = draw(st.sampled_from(CONFIGS))
    few = draw(st.lists(st.sampled_from(POOLS[cfg]), min_size=1, max_size=3))
    return cfg, draw(st.lists(st.sampled_from(few), max_size=max_size))


@st.composite
def elements(draw):
    cfg, keys = draw(repeating_keys(6))
    return cfg, LElement.from_terms((k, draw(coefficients)) for k in keys)


@settings(max_examples=200, deadline=None)
@given(elements())
def test_l_elements_round_trip(cfg_x):
    cfg, x = cfg_x
    assert parse_l_element(print_l_element(x, cfg), cfg.d) == x


@settings(max_examples=200, deadline=None)
@given(repeating_keys(5))
def test_words_round_trip(cfg_letters):
    cfg, letters = cfg_letters
    w = sym_word(letters)
    assert sym_word(parse_word(print_word(w, cfg), cfg.d)) == w
    assert parse_word(print_word(w), cfg.d) == w


# -- byte pin ----------------------------------------------------------------
#
# sha256 of the printed forms of a seeded sample of each printable type, at
# d = 2, 3 and alpha = 1/2, 3/4; a printer change that moves one byte fails.


def _fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 5))


def _printed(kind):
    rng = random.Random(9)
    out = []
    for cfg in CONFIGS:
        pool = POOLS[cfg]
        letters = basis_pool(cfg, gamma_limit=Fraction(1), max_norm=1, require_L=True)
        monos = enumerate_below_value(Fraction(2), cfg)
        for _ in range(12):
            size = rng.randint(0, 4)
            if kind == "polynomials":
                p = Polynomial.from_terms((rng.choice(monos), _fraction(rng)) for _ in range(size))
                out += [print_polynomial(p, cfg), print_polynomial(p)]
            elif kind == "elements":
                x = LElement.from_terms((rng.choice(pool), _fraction(rng)) for _ in range(size))
                out.append(print_l_element(x, cfg))
            elif kind == "words":
                w = sym_word(rng.choice(pool[:6]) for _ in range(size))
                u = SymElement.from_terms(
                    (sym_word(rng.sample(pool, rng.randint(0, 2))), _fraction(rng))
                    for _ in range(size)
                )
                out += [print_word(w, cfg), print_word(w), print_sym_element(u, cfg)]
        if kind == "tensors":
            for _ in range(3):
                w = sym_word(rng.choice(letters) for _ in range(rng.randint(0, 2)))
                out.append(print_tensor_element(dual_coproduct(w, cfg), cfg))
        elif kind == "characters":
            out.append(print_character(sample_character(rng, support_letters(Fraction(1), cfg))))
        elif kind == "constants":
            sc = constants_from_derivations(derivation_labels(cfg.d, 2))
            i, j, m = (rng.choice(sc.index_set) for _ in range(3))
            out += [print_constants(sc), print_constants(sc.with_entry("g", i, j, m, _fraction(rng)))]
    return "\n".join(out)


@pytest.mark.parametrize(
    "kind, digest",
    [
        ("polynomials", "3ef2ffd6e8d049bace46dd8f19e6b88af86e50394c0c357f80d31fe527bdacfe"),
        ("elements", "47428ba1388f62eb964d12490df12f3017754937f1aa81237e94738a7fb58432"),
        ("words", "4603cdeb04724fa7e76c6f85ae015f145521ba53a63dd86a8ab26bd06bbc90d1"),
        ("tensors", "1707478ef1ee9e709c2d7f8d5de52e8b296084fddd12e71d2d5d2845b4667a63"),
        ("characters", "8fdb4bc60a7d2d930ec206220bfeda9d8ab4fe24dc4274fe4b7c1623101cb5cc"),
        ("constants", "c6a4b5484c322ef2d2508e56ea55f24deb715e414913d4a1f9040476fe2b1349"),
    ],
)
def test_printed_forms_are_pinned(kind, digest):
    assert hashlib.sha256(_printed(kind).encode()).hexdigest() == digest


# -- refusals ----------------------------------------------------------------

BAD_SIGNS = ["+", "-", "{t} -", "{t} +", "{t} + + {t}", "{t} - - {t}", "- - {t}", "+ - {t}"]


@pytest.mark.parametrize("form", BAD_SIGNS)
@pytest.mark.parametrize(
    "parse, term", [(parse_polynomial, "z{k0:1}"), (parse_l_element, "P1")]
)
def test_dangling_and_doubled_signs_are_refused(form, parse, term):
    with pytest.raises(ParseError):
        parse(form.format(t=term), 2)


def l_sum(*pairs):
    return LElement.from_terms((Shift(i), Fraction(c)) for i, c in pairs)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("- P1 + P2", l_sum((1, -1), (2, 1))),
        ("+ P1 - 1/2 P2", l_sum((1, 1), (2, Fraction(-1, 2)))),
        ("P1 + -2 P2", l_sum((1, 1), (2, -2))),  # a number keeps its own sign
    ],
)
def test_one_sign_before_each_term_is_accepted(text, expected):
    assert parse_l_element(text, 2) == expected


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_derivation, "P0"),
        (parse_l_key, "P0"),
        (parse_l_element, "2 P0"),
        (parse_word, "[P0]"),
        (parse_polynomial, "z{(1,-1):1}"),
        (parse_l_key, "z{k0:1}xD(1,-1)"),
    ],
)
def test_out_of_range_numbers_are_parse_errors(parse, text):
    with pytest.raises(ParseError):
        parse(text)


T = parse_l_key("z{k0:1}xD(0,0)")


@pytest.mark.parametrize(
    "text",
    ["[P1][z{k0:1}xD(0,0)][P2]", "[P1] [z{k0:1}xD(0,0)]\t[P2]", "  [P1][ z{k0:1}xD(0,0) ] [P2] "],
)
def test_whitespace_may_stand_between_letters(text):
    assert parse_word(text, 2) == (Shift(1), T, Shift(2))


@pytest.mark.parametrize(
    "text, offset",
    [("[P1]x[P2]", 4), ("[P1] , [P2]", 5), (" [P1]  ][P2]", 7), ("[P1]]", 4)],
)
def test_other_text_between_letters_is_refused_where_it_stands(text, offset):
    with pytest.raises(ParseError) as info:
        parse_word(text, 2)
    assert info.value.pos == offset
    assert str(info.value).endswith(f"(at offset {offset} in {text!r})")
