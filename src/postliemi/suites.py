"""Named verification suites, shared by the command line and the test tree.

Each suite draws seeded samples, evaluates a family of exact identities and
returns a ``SuiteResult`` whose ``violations`` list is empty on success.
The first line of a runner's docstring is its ``verify --list`` description.
``samples=None`` means the suite's own default, which is also what the
acceptance tests run.  Everything is exact rational arithmetic; a suite never
passes "within tolerance".
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .coordinates import (
    ALL_CHECKS,
    StructureConstants,
    check_null_torsion,
    constants_from_derivations,
    derivation_labels,
    derivation_order,
    diamond_from_order,
)
from .derivations import derivation_degree, derivation_rank
from .enveloping import (
    EMPTY_WORD,
    STRUCT_BTR,
    STRUCT_JZ,
    STRUCTURES,
    SymElement,
    _word_rank,
    coshuffle,
    dual_coproduct,
    pbw_normal_form,
    phi,
    print_sym_element,
    print_word,
    sigma,
    star,
    star_word,
    sym_word,
    tensor_componentwise,
    tensor_poly_star,
    tensor_star,
    word_mults,
)
from .group import (
    check_coaction_axiom,
    check_gamma_composition,
    check_gamma_multiplicativity,
    coaction_memo,
    sample_character,
    support_letters,
)
from .multiindex import Config, MultiIndex, direction_keys, enumerate_below_value, homogeneity
from .polyalg import Polynomial, print_polynomial
from .postlie import (
    LElement,
    Shift,
    Tilt,
    associator,
    basis_pool,
    bbracket,
    bianchi_residual,
    bracket,
    btr,
    check_derivation_compat,
    check_post_lie,
    check_pre_lie,
    covariant_torsion,
    curvature,
    diamond,
    in_L,
    key_derivation,
    print_l_element,
    sample_element,
    sample_triples,
    torsion,
    triangleright,
    zero_op,
)
from .representation import psi_apply, psi_word, rho_bar, rho_hat
from .walks import splits

CFG_HALF = Config(d=2, alpha=Fraction(1, 2))
CFG_THREEQ = Config(d=2, alpha=Fraction(3, 4))


@dataclass
class SuiteResult:
    """A suite's outcome; ``seconds`` is the runner's wall time, set by
    ``run_suite`` and kept out of ``line``, so text output stays stable."""

    name: str
    checks: int = 0
    violations: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        """No violations, and at least one check: a vacuous run proves nothing."""
        return self.checks > 0 and not self.violations

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        msg = f"[{status}] {self.name}: {self.checks} checks"
        if self.violations:
            msg += f", {len(self.violations)} violations (first: {self.violations[0]})"
        return msg


def _fmt_triple(cfg, x, y, z) -> str:
    return (
        f"x = {print_l_element(x, cfg)}; y = {print_l_element(y, cfg)}; "
        f"z = {print_l_element(z, cfg)}"
    )


def _collect(result: SuiteResult, tagged, cfg) -> None:
    for tag, (x, y, z) in tagged:
        result.violations.append(f"{tag}: {_fmt_triple(cfg, x, y, z)}")


# -- identities on the Lie algebra -------------------------------------------


def run_post_lie_jz(samples: int | None, seed: int) -> SuiteResult:
    """compatibility axioms for the triangular product and composition bracket"""
    n = 200 if samples is None else samples
    cfg = CFG_HALF
    res = SuiteResult("post-lie-jz")
    rng = random.Random(seed)
    pool = basis_pool(cfg, gamma_limit=Fraction(3, 2), max_norm=2)
    triples = sample_triples(rng, pool, n)
    _collect(res, check_post_lie(triangleright, bracket, triples, cfg), cfg)
    _collect(res, check_derivation_compat(triangleright, diamond, triples, cfg), cfg)
    res.checks = 5 * n
    return res


def run_pre_lie_btr(samples: int | None, seed: int) -> SuiteResult:
    """symmetric associator and closure for the deformed product"""
    n = 200 if samples is None else samples
    cfg = CFG_HALF
    res = SuiteResult("pre-lie-btr")
    rng = random.Random(seed)
    pool = basis_pool(cfg, gamma_limit=Fraction(3, 2), max_norm=1, require_L=True)
    triples = sample_triples(rng, pool, n)
    _collect(res, check_pre_lie(btr, triples, cfg), cfg)
    for _ in range(n):
        x = sample_element(rng, pool)
        y = sample_element(rng, pool)
        out = btr(x, y, cfg)
        if not in_L(out, cfg):
            res.violations.append(
                f"closure: btr({print_l_element(x, cfg)}, {print_l_element(y, cfg)}) "
                f"left the subalgebra: {print_l_element(out, cfg)}"
            )
    res.checks = 2 * n
    return res


def run_flat_diamond(samples: int | None, seed: int) -> SuiteResult:
    """vanishing torsion, curvature and covariant torsion of the connection"""
    n = 100 if samples is None else samples
    cfg = CFG_HALF
    res = SuiteResult("flat-diamond")
    pure = [LElement.single(Shift(i)) for i in (1, 2)] + [
        LElement.single(Tilt(MultiIndex.zero(), nn))
        for nn in [tuple([0] * cfg.d)] + direction_keys(cfg.d, 3)
    ]
    for x in pure:
        for y in pure:
            t = torsion(diamond, bracket, x, y, cfg)
            if not t.is_zero:
                res.violations.append(
                    f"torsion: x = {print_l_element(x, cfg)}; y = {print_l_element(y, cfg)}"
                )
            for z in pure:
                if not curvature(diamond, bracket, x, y, z, cfg).is_zero:
                    res.violations.append(f"curvature: {_fmt_triple(cfg, x, y, z)}")
                if not covariant_torsion(diamond, bracket, x, y, z, cfg).is_zero:
                    res.violations.append(f"covariant-torsion: {_fmt_triple(cfg, x, y, z)}")
    res.checks = len(pure) ** 2 + 2 * len(pure) ** 3
    rng = random.Random(seed)
    pool = basis_pool(cfg, gamma_limit=Fraction(2), max_norm=3)
    for x, y, z in sample_triples(rng, pool, n):
        if not torsion(diamond, bracket, x, y, cfg).is_zero:
            res.violations.append(f"decorated torsion: {_fmt_triple(cfg, x, y, z)}")
        if not curvature(diamond, bracket, x, y, z, cfg).is_zero:
            res.violations.append(f"decorated curvature: {_fmt_triple(cfg, x, y, z)}")
        if not covariant_torsion(diamond, bracket, x, y, z, cfg).is_zero:
            res.violations.append(f"decorated covariant torsion: {_fmt_triple(cfg, x, y, z)}")
    res.checks += 3 * n
    # on tilts the connection only composes the derivation parts, so
    # decorations multiply straight through; checking that justifies reading
    # the exhaustive derivation-level sweep as a statement about all
    # decorated tilts
    monos = enumerate_below_value(Fraction(1), cfg)
    tilts = [p.terms[0][0] for p in pure if isinstance(p.terms[0][0], Tilt)]
    for _ in range(n):
        g1, g2 = rng.choice(monos), rng.choice(monos)
        k1, k2 = rng.choice(tilts), rng.choice(tilts)
        x = LElement.single(Tilt(k1.gamma + g1, k1.n))
        y = LElement.single(Tilt(k2.gamma + g2, k2.n))
        base = diamond(LElement.single(k1), LElement.single(k2), cfg)
        shifted = LElement.from_terms(
            (Tilt(k.gamma + g1 + g2, k.n), c) for k, c in base.terms
        )
        if diamond(x, y, cfg) != shifted:
            res.violations.append(
                f"decoration factoring: {print_l_element(x, cfg)} <> {print_l_element(y, cfg)}"
            )
    res.checks += n
    return res


def run_bianchi(samples: int | None, seed: int) -> SuiteResult:
    """cyclic torsion-curvature residual vanishes for three product choices"""
    n = 200 if samples is None else samples
    cfg = CFG_HALF
    res = SuiteResult("bianchi")
    rng = random.Random(seed)
    pool = basis_pool(cfg, gamma_limit=Fraction(3, 2), max_norm=2)
    for prod, label in ((diamond, "connection"), (zero_op, "zero"), (bracket, "bracket")):
        for x, y, z in sample_triples(rng, pool, n):
            if not bianchi_residual(prod, bracket, x, y, z, cfg).is_zero:
                res.violations.append(f"{label}: {_fmt_triple(cfg, x, y, z)}")
    res.checks = 3 * n
    return res


def run_curvature_torsion(samples: int | None, seed: int) -> SuiteResult:
    """curvature identities linking associators, torsion and deformations"""
    n = 200 if samples is None else samples
    cfg = CFG_HALF
    res = SuiteResult("curvature-torsion")
    rng = random.Random(seed)
    pool = basis_pool(cfg, gamma_limit=Fraction(3, 2), max_norm=2)
    for x, y, z in sample_triples(rng, pool, n):
        lhs = curvature(diamond, bracket, x, y, z, cfg)
        rhs = (
            associator(diamond, x, y, z, cfg)
            - associator(diamond, y, x, z, cfg)
            + diamond(torsion(diamond, bracket, x, y, cfg), z, cfg)
        )
        if lhs != rhs:
            res.violations.append(f"curvature-vs-associator: {_fmt_triple(cfg, x, y, z)}")
    for x, y, z in sample_triples(rng, pool, n):
        lhs = triangleright(x, bbracket(y, z, cfg), cfg)
        rhs = bbracket(triangleright(x, y, cfg), z, cfg) + bbracket(
            y, triangleright(x, z, cfg), cfg
        )
        if lhs != rhs:
            res.violations.append(f"deformed-leibniz: {_fmt_triple(cfg, x, y, z)}")
    for x, y, z in sample_triples(rng, pool, n):
        lhs = associator(btr, x, y, z, cfg) - associator(btr, y, x, z, cfg)
        rhs = btr(bbracket(x, y, cfg), z, cfg) + curvature(diamond, bracket, x, y, z, cfg)
        if lhs != rhs:
            res.violations.append(f"deformed-curvature: {_fmt_triple(cfg, x, y, z)}")
    res.checks = 3 * n
    return res


# -- identities on words -----------------------------------------------------


def _word_pool(cfg: Config) -> list:
    return basis_pool(cfg, gamma_limit=Fraction(1), max_norm=1)


def _sample_word(rng, pool, max_len: int) -> tuple:
    return sym_word(rng.choice(pool) for _ in range(rng.randint(0, max_len)))


def run_hopf(samples: int | None, seed: int) -> SuiteResult:
    """star associativity, coproduct compatibility, morphism and confluence checks"""
    n = 100 if samples is None else samples
    cfg = CFG_HALF
    res = SuiteResult("hopf")
    rng = random.Random(seed)
    pool = _word_pool(cfg)
    half = max(n // 2, 1)
    for name, struct in STRUCTURES.items():
        for _ in range(n):
            u = SymElement.single(_sample_word(rng, pool, 3))
            v = SymElement.single(_sample_word(rng, pool, 3))
            w = SymElement.single(_sample_word(rng, pool, 3))
            lhs = star(struct, star(struct, u, v, cfg), w, cfg)
            rhs = star(struct, u, star(struct, v, w, cfg), cfg)
            if lhs != rhs:
                res.violations.append(
                    f"associativity[{name}]: {print_sym_element(u, cfg)} ; "
                    f"{print_sym_element(v, cfg)} ; {print_sym_element(w, cfg)}"
                )
        for _ in range(half):
            s1 = tuple(rng.choice(pool) for _ in range(rng.randint(0, 2)))
            s2 = tuple(rng.choice(pool) for _ in range(rng.randint(0, 2)))
            lhs = phi(struct, s1 + s2, cfg)
            rhs = star(struct, phi(struct, s1, cfg), phi(struct, s2, cfg), cfg)
            if lhs != rhs:
                res.violations.append(
                    f"concat-morphism[{name}]: "
                    f"{print_word(sym_word(s1), cfg)} then {print_word(sym_word(s2), cfg)}"
                )
    # coproduct compatibility, in all three places it holds: the splitting
    # coproduct over the deformed star, the same coproduct over the
    # straightened enveloping product, and the dual coproduct over the plain
    # word product
    lpool = basis_pool(cfg, gamma_limit=Fraction(1), max_norm=1, require_L=True)
    for _ in range(n):
        u = SymElement.single(_sample_word(rng, pool, 2))
        v = SymElement.single(_sample_word(rng, pool, 2))
        lhs = coshuffle(star(STRUCT_BTR, u, v, cfg))
        rhs = tensor_star(STRUCT_BTR, coshuffle(u), coshuffle(v), cfg)
        if lhs != rhs:
            res.violations.append(
                f"coproduct-compat[star]: {print_sym_element(u, cfg)} ; "
                f"{print_sym_element(v, cfg)}"
            )
        if coshuffle(STRUCT_JZ.mul(u, v, cfg)) != tensor_componentwise(
            lambda a, b: STRUCT_JZ.mul_words(a, b, cfg), coshuffle(u), coshuffle(v)
        ):
            res.violations.append(
                f"coproduct-compat[enveloping]: {print_sym_element(u, cfg)} ; "
                f"{print_sym_element(v, cfg)}"
            )
        wu = sym_word(rng.choice(lpool) for _ in range(rng.randint(0, 2)))
        wv = sym_word(rng.choice(lpool) for _ in range(rng.randint(0, 2)))
        lhs = dual_coproduct(sym_word(wu + wv), cfg)
        rhs = tensor_poly_star(dual_coproduct(wu, cfg), dual_coproduct(wv, cfg))
        if lhs != rhs:
            res.violations.append(
                f"coproduct-compat[dual]: {print_word(wu, cfg)} ; {print_word(wv, cfg)}"
            )
    for _ in range(half):
        seq = tuple(rng.choice(pool) for _ in range(rng.randint(0, 4)))
        left = pbw_normal_form(seq, bracket, cfg, "leftmost")
        right = pbw_normal_form(seq, bracket, cfg, "rightmost")
        if left != right:
            res.violations.append(f"confluence: {print_word(sym_word(seq), cfg)}")
        if pbw_normal_form(seq, zero_op, cfg) != SymElement.single(sym_word(seq)):
            res.violations.append(f"zero-bracket-sort: {print_word(sym_word(seq), cfg)}")
    res.checks = 2 * (n + half) + 3 * n + 2 * half
    return res


def run_representation(samples: int | None, seed: int) -> SuiteResult:
    """operator actions of words; Leibniz and grading of the derivation action"""
    n = 100 if samples is None else samples
    cfg = CFG_HALF
    res = SuiteResult("representation")
    rng = random.Random(seed)
    pool = _word_pool(cfg)
    monos = enumerate_below_value(Fraction(2), cfg)
    half = max(n // 2, 1)

    def sample_poly():
        terms = [
            (rng.choice(monos), Fraction(rng.choice([-2, -1, 1, 2])))
            for _ in range(rng.randint(1, 2))
        ]
        p = Polynomial.from_terms(terms)
        return p if not p.is_zero else Polynomial.monomial(MultiIndex.zero())

    for name, struct in STRUCTURES.items():
        for _ in range(n):
            u = SymElement.single(_sample_word(rng, pool, 2))
            v = SymElement.single(_sample_word(rng, pool, 2))
            p = sample_poly()
            lhs = rho_bar(struct, star(struct, u, v, cfg), p, cfg)
            rhs = rho_bar(struct, u, rho_bar(struct, v, p, cfg), cfg)
            if lhs != rhs:
                res.violations.append(
                    f"star-morphism[{name}]: {print_sym_element(u, cfg)} ; "
                    f"{print_sym_element(v, cfg)} on {print_polynomial(p, cfg)}"
                )
        for _ in range(half):
            seq = tuple(rng.choice(pool) for _ in range(rng.randint(0, 3)))
            p = sample_poly()
            lhs = rho_hat(seq, p, cfg)
            rhs = rho_bar(struct, phi(struct, seq, cfg), p, cfg)
            if lhs != rhs:
                res.violations.append(
                    f"composition-vs-star[{name}]: {print_word(sym_word(seq), cfg)}"
                )
    for _ in range(n):
        ds = tuple(key_derivation(k) for k in _sample_word(rng, pool, 2))
        f, g = sample_poly(), sample_poly()
        lhs = psi_apply(ds, f * g, cfg)
        rhs = Polynomial.sum_of(
            (psi_apply(d1, f, cfg) * psi_apply(d2, g, cfg), mult)
            for d1, d2, mult in splits(word_mults(sorted(ds, key=derivation_rank)))
        )
        if lhs != rhs:
            res.violations.append(f"leibniz: word of {len(ds)} derivations")
    grading = 2 * n
    for _ in range(grading):
        ds = tuple(key_derivation(k) for k in _sample_word(rng, pool, 2))
        g = rng.choice(monos)
        expect = homogeneity(g)
        for D in ds:
            expect = expect + derivation_degree(D)
        for mono, _ in psi_word(ds, g, cfg).terms:
            if homogeneity(mono) != expect:
                res.violations.append(
                    f"grading: word of {len(ds)} derivations on "
                    f"{print_polynomial(Polynomial.monomial(g), cfg)}"
                )
                break
    res.checks = 2 * (n + half) + n + grading
    return res


def run_duality(samples: int | None, seed: int) -> SuiteResult:
    """adjointness of the dual coproduct and the deformed star product"""
    cfg = CFG_HALF
    res = SuiteResult("duality")
    letters = basis_pool(cfg, gamma_limit=Fraction(1), max_norm=1, require_L=True)
    words = [EMPTY_WORD] + [(x,) for x in letters]
    for i, x in enumerate(letters):
        for y in letters[i:]:
            words.append(sym_word((x, y)))
    wordset = set(words)
    res.notes.append(f"alphabet of {len(letters)} letters, {len(words)} words")
    star_table: dict = {}
    for u in words:
        for v in words:
            for w, c in star_word(STRUCT_BTR, u, v, cfg).terms:
                if w in wordset:
                    star_table[(u, v, w)] = c * sigma(w)
    dual_table: dict = {}
    for w in words:
        for (u, v), c in dual_coproduct(w, cfg).terms:
            if u in wordset and v in wordset:
                key = (u, v, w)
                dual_table[key] = dual_table.get(key, Fraction(0)) + c * sigma(u) * sigma(v)
    res.checks = len(words) ** 3
    for key in sorted(
        set(star_table) | set(dual_table), key=lambda uvw: tuple(map(_word_rank, uvw))
    ):
        lv = star_table.get(key, Fraction(0))
        rv = dual_table.get(key, Fraction(0))
        if lv != rv:
            u, v, w = key
            res.violations.append(
                f"<u*v, w> = {lv} but <u(x)v, split(w)> = {rv} at "
                f"u = {print_word(u, cfg)}; v = {print_word(v, cfg)}; w = {print_word(w, cfg)}"
            )
    return res


def run_gamma_compose(samples: int | None, seed: int) -> SuiteResult:
    """composition law of the recentering maps through convolution"""
    n = 20 if samples is None else samples
    cfg = CFG_THREEQ
    res = SuiteResult("gamma-compose")
    rng = random.Random(seed)
    targets = enumerate_below_value(Fraction(3, 2), cfg)
    letters = support_letters(Fraction(3, 2), cfg)
    coaction = coaction_memo()  # every check below reads each target's coaction once
    for _ in range(n):
        f1 = sample_character(rng, letters)
        f2 = sample_character(rng, letters)
        for g, diff in check_gamma_composition(f1, f2, targets, cfg, coaction):
            res.violations.append(
                f"composition at {print_polynomial(Polynomial.monomial(g), cfg)}: "
                f"difference {print_polynomial(diff, cfg)}"
            )
    for g, _key, _diff in check_coaction_axiom(targets, cfg, coaction):
        res.violations.append(
            f"coaction coassociativity at {print_polynomial(Polynomial.monomial(g), cfg)}"
        )
    f = sample_character(rng, letters)
    pairs = [(rng.choice(targets), rng.choice(targets)) for _ in range(20)]
    pairs = [(g1, g2) for g1, g2 in pairs if (g1 + g2) in targets]
    mults = len(check_gamma_multiplicativity(f, pairs, cfg, coaction))
    res.notes.append(
        f"multiplicativity: {mults} of {len(pairs)} sampled pairs differ "
        "(reported, not asserted)"
    )
    res.checks = n * len(targets) + len(targets) + len(pairs)
    return res


def run_coordinates(samples: int | None, seed: int) -> SuiteResult:
    """structure-constant residual checks and the order construction"""
    res = SuiteResult("coordinates")
    sc = constants_from_derivations(derivation_labels(2, 2))
    for label, check in ALL_CHECKS.items():
        found = check(sc)
        res.checks += 1
        if found:
            res.violations.append(
                f"{label}: {len(found)} nonzero residuals, first at {found[0][0]}"
            )
    lie_only = StructureConstants.from_entries(sc.index_set, (), sc.delta.items())
    rebuilt = diamond_from_order(lie_only, derivation_order(sc))
    res.checks += 1
    if rebuilt.gamma != sc.gamma:
        res.violations.append("order construction does not reproduce the connection table")
    shift_label = sc.index_set[0]
    dop_label = next(lbl for lbl in sc.index_set if lbl.startswith("D"))
    res.checks += 1
    broken_g = sc.with_entry("g", shift_label, dop_label, shift_label, 1)
    if not check_null_torsion(broken_g):
        res.violations.append("asymmetric connection mutation passed the torsion check")
    res.checks += 1
    broken_d = sc.with_entry("d", shift_label, dop_label, dop_label, 1)
    if not any(check(broken_d) for check in ALL_CHECKS.values()):
        res.violations.append("bracket mutation passed every residual check")
    return res


SUITES: dict = {
    "post-lie-jz": run_post_lie_jz,
    "pre-lie-btr": run_pre_lie_btr,
    "flat-diamond": run_flat_diamond,
    "bianchi": run_bianchi,
    "curvature-torsion": run_curvature_torsion,
    "hopf": run_hopf,
    "representation": run_representation,
    "duality": run_duality,
    "gamma-compose": run_gamma_compose,
    "coordinates": run_coordinates,
}

def run_suite(name: str, samples: int | None = None, seed: int = 0) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}")
    start = time.perf_counter()
    result = SUITES[name](samples, seed)
    result.seconds = time.perf_counter() - start
    return result
