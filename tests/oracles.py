"""Brute-force reference computations for the test suite.

Everything in this file trades speed for transparency: enumerate every
candidate inside sound finite caps, evaluate it exactly, keep the nonzero
ones.  The library proper prunes by divisibility and degree bookkeeping;
these scans are what that bookkeeping is checked against, so they must not
share its shortcuts.

The only library pieces reused here are the value types (MultiIndex, words,
polynomials, combinations of basis keys), the single-letter and
single-derivation actions, the closed-form products of two basis derivations,
and the pointwise evaluator star_word, which the relevant checks treat as
ground truth for single candidates.  Words act on polynomials through
``brute_rho_bar_word`` below, which recomputes every branch of the psi
recursion, folds every sum with + and multiplies the decorations of a word
letter by letter, so it shares no memo and no merge with the library.
Words act on words through ``brute_ext_action_word``, the Guin-Oudom
recursion with the same discipline, its letters multiplied by the letter
product > + lam <> of the structure, built from the brute kernels below.  A
word acts on one letter through ``brute_letter_action``, a closed form over
the shifts of the word that shares no code with that recursion.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb, perm

from postliemi.derivations import (
    DOp,
    DerivationCombo,
    Partial,
    apply as apply_derivation,
    apply_to_monomial,
    compose_commutator,
    derivation_rank,
    diamond as derivation_diamond,
)
from postliemi.errors import DimensionMismatch
from postliemi.multiindex import (
    Config,
    HomDegree,
    MultiIndex,
    hom_value,
    homogeneity,
    n_norm,
)
from postliemi.polyalg import Polynomial
from postliemi.postlie import LElement, Shift, Tilt, bracket, key_derivation, key_poly
from postliemi.enveloping import STRUCT_BTR, SymElement, sigma, star_word, sym_word


def direction_tuples(d: int, max_norm: int, include_zero: bool = False) -> list:
    """All d-tuples of naturals with coordinate sum between 1 (or 0) and max_norm."""
    low = 0 if include_zero else 1
    out = [n for n in product(range(max_norm + 1), repeat=d) if low <= sum(n) <= max_norm]
    out.sort(key=lambda n: (sum(n), n))
    return out


def brute_slice(val: Fraction, cfg: Config, max_k: int = -1) -> set:
    """The capped degree slice {gamma : |gamma| <= val}, enumerated the slow way.

    Candidate support: counting keys k <= max(floor(val/alpha), max_k),
    direction keys with |n| <= floor(val).  Exponents are chosen one key at a
    time against the remaining exact budget; nothing smarter.
    """
    val = Fraction(val)
    if val < 0:
        return set()
    kmax = max(int(val / cfg.alpha), max_k)
    nmax = int(val)
    keys = [(k, cfg.alpha) for k in range(kmax + 1)]
    keys += [(n, Fraction(n_norm(n))) for n in direction_tuples(cfg.d, nmax)]
    found = set()

    def rec(i: int, remaining: Fraction, chosen: dict):
        if i == len(keys):
            found.add(MultiIndex.from_dict(chosen))
            return
        key, step = keys[i]
        count = 0
        while count * step <= remaining:
            rec(i + 1, remaining - count * step, {**chosen, key: count} if count else chosen)
            count += 1

    rec(0, val, {})
    return found


def brute_slice_hom(bound: HomDegree, cfg: Config) -> set:
    return brute_slice(bound.value(cfg), cfg)


# -- products by the factorized rules -----------------------------------------
#
# For x = a1 (x) D1 and y = a2 (x) D2:
#   x > y  = a1 * D1(a2) (x) D2   (zero when y is a Shift)
#   [x, y] = a1 * a2 (x) [D1, D2]
#   x <> y = a1 * a2 (x) (D1 <> D2)
# Each key is split into a decoration polynomial and a freshly built
# derivation, the factors are multiplied as polynomials, and every sum is
# folded with +.


def _factors(key):
    """The pair (a, D) with key = a (x) D."""
    if isinstance(key, Shift):
        return Polynomial.one(), Partial(key.i)
    return Polynomial.monomial(key.gamma), DOp(key.n)


def _check_dim(key, d: int) -> None:
    if isinstance(key, Shift):
        if key.i > d:
            raise DimensionMismatch(f"direction {key.i} out of range for dimension {d}")
        return
    gd = key.gamma.dim()
    if len(key.n) != d or (gd is not None and gd != d):
        raise DimensionMismatch(f"key over dimension {len(key.n)}, expected {d}")


def _tensor(poly: Polynomial, combo) -> LElement:
    out = LElement.zero()
    for D, c in combo.terms:
        assert isinstance(D, DOp), "a product of basis keys gave a decorated shift"
        for g, cp in poly.terms:
            out = out + LElement.single(Tilt(g, D.n), c * cp)
    return out


def _brute_tri_key(kx, ky, cfg: Config) -> LElement:
    if isinstance(ky, Shift):
        return LElement.zero()
    a1, D1 = _factors(kx)
    a2, D2 = _factors(ky)
    return _tensor(a1 * apply_derivation(D1, a2, cfg), DerivationCombo.single(D2))


def _brute_bracket_key(kx, ky, cfg: Config) -> LElement:
    a1, D1 = _factors(kx)
    a2, D2 = _factors(ky)
    return _tensor(a1 * a2, compose_commutator(D1, D2))


def _brute_diamond_key(kx, ky, cfg: Config) -> LElement:
    a1, D1 = _factors(kx)
    a2, D2 = _factors(ky)
    return _tensor(a1 * a2, derivation_diamond(D1, D2))


def _brute_bilinear(key_op, x: LElement, y: LElement, cfg: Config) -> LElement:
    """Extend a product of basis keys bilinearly.  Every key of both operands
    is checked against the dimension when x is nonzero; a zero x gives zero
    whatever y holds."""
    out = LElement.zero()
    if x.is_zero:
        return out
    for k, _ in x.terms + y.terms:
        _check_dim(k, cfg.d)
    for kx, cx in x.terms:
        for ky, cy in y.terms:
            out = out + key_op(kx, ky, cfg).scale(cx * cy)
    return out


def brute_triangleright(x: LElement, y: LElement, cfg: Config) -> LElement:
    return _brute_bilinear(_brute_tri_key, x, y, cfg)


def brute_bracket(x: LElement, y: LElement, cfg: Config) -> LElement:
    return _brute_bilinear(_brute_bracket_key, x, y, cfg)


def brute_diamond(x: LElement, y: LElement, cfg: Config) -> LElement:
    return _brute_bilinear(_brute_diamond_key, x, y, cfg)


def brute_btr(x: LElement, y: LElement, cfg: Config) -> LElement:
    return brute_triangleright(x, y, cfg) + brute_diamond(x, y, cfg)


def brute_bbracket(x: LElement, y: LElement, cfg: Config) -> LElement:
    return brute_bracket(x, y, cfg) - (brute_diamond(x, y, cfg) - brute_diamond(y, x, cfg))


def brute_grand_bracket(x: LElement, y: LElement, cfg: Config) -> LElement:
    return (brute_triangleright(x, y, cfg) - brute_triangleright(y, x, cfg)) + brute_bracket(
        x, y, cfg
    )


# -- action of a word by the defining recursion ------------------------------
#
# Psi[D0 D1 ... Dn] p = D0(Psi[D1 ... Dn] p) - sum_i Psi[D1 ... (D0 <> Di) ... Dn] p,
# every sum folded with + and every branch recomputed, and the decorations of
# the word multiplied together one letter at a time.


def brute_psi_word(ds: tuple, g: MultiIndex, cfg: Config) -> Polynomial:
    if not ds:
        return Polynomial.monomial(g)
    if len(ds) == 1:
        return Polynomial.from_terms(apply_to_monomial(ds[0], g, cfg))
    head, rest = ds[0], ds[1:]
    out = apply_derivation(head, brute_psi_word(rest, g, cfg), cfg)
    for i in range(len(rest)):
        combo = derivation_diamond(head, rest[i])
        for dnew, c in combo.terms:
            repl = rest[:i] + (dnew,) + rest[i + 1 :]
            out = out - brute_psi_word(repl, g, cfg).scale(c)
    return out


def brute_psi_apply(ds, p: Polynomial, cfg: Config) -> Polynomial:
    ds = tuple(ds)
    out = Polynomial.zero()
    for g, c in p.terms:
        out = out + brute_psi_word(ds, g, cfg).scale(c)
    return out


def brute_rho_bar_word(struct, w, p: Polynomial, cfg: Config) -> Polynomial:
    """Product of the decorations times the derivation-word action: psi at
    lam = 1 (btr), composition in PBW order at lam = 0 (jz)."""
    front = Polynomial.one()
    for key in w:
        front = front * key_poly(key)
    if struct.lam:
        ds = tuple(sorted((key_derivation(k) for k in w), key=derivation_rank))
        acted = brute_psi_apply(ds, p, cfg)
    else:
        acted = p
        for k in reversed(sorted(w, key=lambda k: brute_pbw_rank(k, cfg))):
            acted = apply_derivation(key_derivation(k), acted, cfg)
    return front * acted


# -- PBW straightening and word splittings, written out literally -----------


def brute_pbw_rank(key, cfg: Config) -> tuple:
    """The PBW order on letters with the decoration degree as an exact
    rational: shifts by direction, then tilts by (|gamma|, gamma, |n|, n)."""
    if isinstance(key, Shift):
        return (0, key.i)
    return (1, hom_value(key.gamma, cfg), key.gamma.sort_rank(), n_norm(key.n), key.n)


def brute_pbw_normal_form(seq, lie, cfg: Config, strategy: str = "leftmost") -> SymElement:
    """Rewrite x y -> y x + lie(x, y) on the leftmost (or rightmost) adjacent
    inversion until every sequence is nondecreasing.  Every rank is recomputed
    as an exact Fraction at every step, and the pending sequences are rebuilt
    without their zero entries after each step."""
    pending = {tuple(seq): Fraction(1)}
    done: dict = {}
    while pending:
        word, coeff = pending.popitem()
        ranks = [brute_pbw_rank(x, cfg) for x in word]
        inversions = [i for i in range(len(word) - 1) if ranks[i] > ranks[i + 1]]
        if not inversions:
            key = sym_word(word)
            done[key] = done.get(key, Fraction(0)) + coeff
            continue
        i = inversions[0] if strategy == "leftmost" else inversions[-1]
        x, y = word[i], word[i + 1]
        swapped = word[:i] + (y, x) + word[i + 2 :]
        pending[swapped] = pending.get(swapped, Fraction(0)) + coeff
        for k, c in lie(LElement.single(x), LElement.single(y), cfg).terms:
            shorter = word[:i] + (k,) + word[i + 2 :]
            pending[shorter] = pending.get(shorter, Fraction(0)) + coeff * c
        pending = {w: c for w, c in pending.items() if c != 0}
    return SymElement.from_terms(done.items())


def brute_word_splits(w) -> dict:
    """{(left, right): count} over every subset of the positions of w taken
    as the left half, the rest as the right half."""
    counts: dict = {}
    positions = range(len(w))
    for size in range(len(w) + 1):
        for chosen in combinations(positions, size):
            left = sym_word(w[i] for i in chosen)
            right = sym_word(w[i] for i in positions if i not in chosen)
            counts[(left, right)] = counts.get((left, right), 0) + 1
    return counts


# -- the Guin-Oudom action by its defining recursion -------------------------
#
# No memo, every sum folded with +, letters multiplied by > + lam <> and words
# by the literal straightening above (lam = 0, jz) or by multiset union
# (lam = 1, btr).


def _brute_mul(struct, u: SymElement, v: SymElement, cfg: Config) -> SymElement:
    out = SymElement.zero()
    for w1, c1 in u.terms:
        for w2, c2 in v.terms:
            if struct.lam == 1:
                prod = SymElement.single(sym_word(w1 + w2))
            else:
                prod = brute_pbw_normal_form(w1 + w2, bracket, cfg)
            out = out + prod.scale(c1 * c2)
    return out


def _brute_act(struct, u: SymElement, v: SymElement, cfg: Config) -> SymElement:
    out = SymElement.zero()
    for wu, cu in u.terms:
        for wv, cv in v.terms:
            out = out + brute_ext_action_word(struct, wu, wv, cfg).scale(cu * cv)
    return out


def brute_ext_action_word(struct, u, v, cfg: Config) -> SymElement:
    """u > v: the empty word acts as the identity, a nonempty word kills the
    empty word, (x rest) > y = x > (rest > y) - (x > rest) > y on one letter
    y, and u > (y rest) = sum over the position splits u = u1 u2 of
    (u1 > y)(u2 > rest)."""
    if not u:
        return SymElement.single(v)
    if not v:
        return SymElement.zero()
    if len(u) == 1 and len(v) == 1:
        x, y = LElement.single(u[0]), LElement.single(v[0])
        letter = brute_triangleright(x, y, cfg) + brute_diamond(x, y, cfg).scale(struct.lam)
        out = SymElement.zero()
        for k, c in letter.terms:
            out = out + SymElement.single((k,), c)
        return out
    if len(v) == 1:
        x, rest = SymElement.single((u[0],)), u[1:]
        first = _brute_act(struct, x, brute_ext_action_word(struct, rest, v, cfg), cfg)
        xrest = _brute_act(struct, x, SymElement.single(rest), cfg)
        return first - _brute_act(struct, xrest, SymElement.single(v), cfg)
    y, rest = (v[0],), v[1:]
    out = SymElement.zero()
    for (u1, u2), count in brute_word_splits(u).items():
        left = brute_ext_action_word(struct, u1, y, cfg)
        right = brute_ext_action_word(struct, u2, rest, cfg)
        out = out + _brute_mul(struct, left, right, cfg).scale(count)
    return out


def brute_letter_action(struct, u, y, cfg: Config) -> SymElement:
    """u > y for one letter y, in closed form.  The empty word acts as the
    identity and a nonempty word kills a shift.  On a tilt y = z^g D^(n),
    with s_i the number of copies of P_i in u,

        u > y = sum_{t <= s} prod_i C(s_i, t_i) (-1)^t_i n_i! / (n_i - t_i)!
                    rho_bar(u - t)(z^g) (x) D^(n - t)

    at lam = 1 (btr), where u - t drops t_i copies of each P_i: the shifts
    of u that do not act on the decoration lower D^(n).  At lam = 0 (jz) a
    shift does not lower D^(n), and only t = 0 remains."""
    if not u:
        return SymElement.single((y,))
    if isinstance(y, Shift):
        return SymElement.zero()
    s = [sum(1 for k in u if k == Shift(i)) for i in range(1, cfg.d + 1)]
    ts = product(*(range(si + 1) for si in s)) if struct.lam else [(0,) * cfg.d]
    out = SymElement.zero()
    for t in ts:
        c = 1
        for si, ti, ni in zip(s, t, y.n):
            c *= comb(si, ti) * (-1) ** ti * perm(ni, ti)  # perm is 0 when ti > ni
        if not c:
            continue
        rest = list(u)
        for i, ti in enumerate(t, start=1):
            for _ in range(ti):
                rest.remove(Shift(i))
        n = tuple(ni - ti for ni, ti in zip(y.n, t))
        acted = brute_rho_bar_word(struct, rest, Polynomial.monomial(y.gamma), cfg)
        for h, ch in acted.terms:
            out = out + SymElement.single((Tilt(h, n),), c * ch)
    return out


def brute_star_word(struct, u, v, cfg: Config) -> SymElement:
    """u * v = sum over the position splits u = u1 u2 of u1 (u2 > v)."""
    out = SymElement.zero()
    for (u1, u2), count in brute_word_splits(u).items():
        acted = brute_ext_action_word(struct, u2, v, cfg)
        out = out + _brute_mul(struct, SymElement.single(u1), acted, cfg).scale(count)
    return out


# -- alphabet and word enumeration -------------------------------------------


def letter_degree(key) -> HomDegree:
    """Degree of a basis letter, recomputed from the definitions: a shift
    raises by one, a tilt carries its decoration minus the derivation norm."""
    if isinstance(key, Shift):
        return HomDegree(0, 1)
    return homogeneity(key.gamma) + HomDegree(0, -n_norm(key.n))


def word_degree(w) -> HomDegree:
    deg = HomDegree.zero()
    for key in w:
        deg = deg + letter_degree(key)
    return deg


def brute_letters(max_gamma: Fraction, cfg: Config, max_k: int = -1) -> list:
    """Every basis key of the graded subalgebra whose decoration stays at or
    below the given degree value: all shifts, and every tilt with
    |gamma| <= max_gamma and |gamma| > |n|, counting keys capped as in
    ``brute_slice``."""
    out = [Shift(i) for i in range(1, cfg.d + 1)]
    for g in sorted(brute_slice(max_gamma, cfg, max_k), key=lambda g: g.sort_rank()):
        gval = hom_value(g, cfg)
        for n in direction_tuples(cfg.d, int(Fraction(max_gamma)), include_zero=True):
            if gval > n_norm(n):
                out.append(Tilt(g, n))
    return out


def budget_words(letters: list, max_value: Fraction, cfg: Config) -> list:
    """All multiset words over the alphabet with total degree value at most
    max_value, the empty word included.  Every letter must have strictly
    positive degree or the recursion would not terminate."""
    max_value = Fraction(max_value)
    degs = [letter_degree(x).value(cfg) for x in letters]
    assert all(v > 0 for v in degs)
    words = []

    def rec(i: int, remaining: Fraction, acc: list):
        words.append(sym_word(acc))
        for j in range(i, len(letters)):
            if degs[j] <= remaining:
                rec(j, remaining - degs[j], acc + [letters[j]])

    rec(0, max_value, [])
    return words


# -- coaction by exhaustive scan ---------------------------------------------


def brute_coaction(target: MultiIndex, cfg: Config, words: list | None = None) -> dict:
    """Map (word, source) -> coefficient of the coaction on z^target.

    Scans every word of in-L letters whose decorations fit in the degree
    slice of the target, and every source monomial with the complementary
    degree.  Counting keys of letters and sources both range up to the
    largest one in the target (letters also up to the slice cap): the action
    never lowers an index and decorations multiply straight through, so a
    larger key cannot reach the target, while a letter such as z_3 D(0,0)
    at alpha = 1/2 and |target| = 1 can although 3 exceeds the slice cap 2.
    Each candidate is settled by applying the word to the source and reading
    off one coefficient.  Given ``words``, only those words are scanned, and
    the map holds their terms alone.
    """
    tval = hom_value(target, cfg)
    ht = homogeneity(target)
    k_keys = [k for k, _ in target.k_entries()]
    max_k = max(k_keys) if k_keys else -1
    letters = brute_letters(tval, cfg, max_k)
    out = {}
    for u in budget_words(letters, tval, cfg) if words is None else words:
        need = ht - word_degree(u)
        if need.a < 0 or need.b < 0:
            continue
        for beta in _sources(need, max_k, cfg):
            c = brute_rho_bar_word(STRUCT_BTR, u, Polynomial.monomial(beta), cfg).coeff(target)
            if c != 0:
                out[(u, beta)] = out.get((u, beta), Fraction(0)) + c / sigma(u)
    return {k: v for k, v in out.items() if v != 0}


def _sources(need: HomDegree, max_k: int, cfg: Config) -> list:
    """All monomial exponents of homogeneity exactly (need.a, need.b) whose
    counting keys do not exceed max_k; the action never lowers an index."""
    k_opts = _count_splits(need.a, max_k)
    n_opts = _norm_splits(need.b, cfg.d)
    return [ks + ns for ks in k_opts for ns in n_opts]


def _count_splits(total: int, max_k: int) -> list:
    if total == 0:
        return [MultiIndex.zero()]
    if max_k < 0:
        return []
    out = []

    def rec(k: int, left: int, acc: MultiIndex):
        if k > max_k:
            if left == 0:
                out.append(acc)
            return
        for c in range(left + 1):
            rec(k + 1, left - c, acc + MultiIndex.single(k, c) if c else acc)

    rec(0, total, MultiIndex.zero())
    return out


def _norm_splits(total: int, d: int) -> list:
    if total == 0:
        return [MultiIndex.zero()]
    vecs = direction_tuples(d, total)
    out = []

    def rec(i: int, left: int, acc: MultiIndex):
        if left == 0:
            out.append(acc)
            return
        if i == len(vecs):
            return
        step = n_norm(vecs[i])
        c = 0
        while c * step <= left:
            rec(i + 1, left - c * step, acc + MultiIndex.single(vecs[i], c) if c else acc)
            c += 1

    rec(0, total, MultiIndex.zero())
    return out


# -- dual coproduct by pair scan ---------------------------------------------


def brute_dual_coproduct(w, letters: list, cfg: Config) -> dict:
    """Map (left word, right word) -> coefficient, from the defining duality:
    the coefficient of u1 (x) u2 is <u1 * u2, w> / (sigma(u1) sigma(u2)).

    All pairs over the supplied alphabet with the exact complementary degrees
    are tried, with no pruning beyond degree bookkeeping.
    """
    degw = word_degree(w)
    valw = degw.value(cfg)
    sw = sigma(w)
    words = budget_words(letters, valw, cfg)
    buckets: dict = {}
    for u in words:
        du = word_degree(u)
        buckets.setdefault((du.a, du.b), []).append(u)
    out = {}
    for u1 in words:
        need = degw - word_degree(u1)
        for u2 in buckets.get((need.a, need.b), ()):
            c = star_word(STRUCT_BTR, u1, u2, cfg).coeff(w)
            if c != 0:
                out[(u1, u2)] = c * sw / (sigma(u1) * sigma(u2))
    return out


def brute_dual_table(letters: list, max_value: Fraction, cfg: Config) -> dict:
    """Dual coproducts of every word of degree value at most max_value over
    the alphabet, all at once: word -> {(left, right) -> coefficient}.

    One pass over the word pairs whose degree values fit the budget; each
    star product is expanded once and its support distributed to the matching
    targets.  Collecting by support rather than by complementary degree means
    a product that landed in the wrong degree would show up as a mismatch
    instead of being silently skipped.
    """
    max_value = Fraction(max_value)
    words = budget_words(letters, max_value, cfg)
    sig = {u: sigma(u) for u in words}
    val = {u: word_degree(u).value(cfg) for u in words}
    table: dict = {u: {} for u in words}
    for u1 in words:
        for u2 in words:
            if val[u1] + val[u2] > max_value:
                continue
            for w, c in star_word(STRUCT_BTR, u1, u2, cfg).terms:
                if w in table:
                    table[w][(u1, u2)] = c * sig[w] / (sig[u1] * sig[u2])
    return table


# -- structure-constant checks ------------------------------------------------
#
# The dense forms of the three coordinate checks: every (i, j, k, m) in I^4,
# every summation label l in I, every table read through the accessors.  The
# library contracts over nonzero entries instead; these loops are what that
# contraction is checked against.


def _sorted_by_position(sc, found: dict) -> list:
    order = {label: k for k, label in enumerate(sc.index_set)}
    return sorted(found.items(), key=lambda iv: tuple(order[x] for x in iv[0]))


def brute_null_torsion(sc) -> list:
    found = {}
    for i in sc.index_set:
        for j in sc.index_set:
            for m in sc.index_set:
                r = sc.g(i, j, m) - sc.g(j, i, m) - sc.d(i, j, m)
                if r != 0:
                    found[(i, j, m)] = r
    return _sorted_by_position(sc, found)


def _t(sc, j, k, m) -> Fraction:
    return sc.g(j, k, m) - sc.g(k, j, m) - sc.d(j, k, m)


def brute_constant_torsion(sc) -> list:
    found = {}
    I = sc.index_set
    for i in I:
        for j in I:
            for k in I:
                for m in I:
                    r = Fraction(0)
                    for l in I:
                        r += (
                            sc.g(i, l, m) * _t(sc, j, k, l)
                            - sc.g(i, j, l) * _t(sc, l, k, m)
                            - _t(sc, j, l, m) * sc.g(i, k, l)
                        )
                    if r != 0:
                        found[(i, j, k, m)] = r
    return _sorted_by_position(sc, found)


def brute_flat(sc) -> list:
    found = {}
    I = sc.index_set
    for i in I:
        for j in I:
            for k in I:
                for m in I:
                    r = Fraction(0)
                    for l in I:
                        r += (
                            sc.g(i, l, m) * sc.g(j, k, l)
                            - sc.g(j, l, m) * sc.g(i, k, l)
                            - sc.d(i, j, l) * sc.g(l, k, m)
                        )
                    if r != 0:
                        found[(i, j, k, m)] = r
    return _sorted_by_position(sc, found)
