"""The four benchmark workloads, built from a seed.

A workload is a list of task groups.  A group is a function that returns an
iterator; each item it yields is one task, one user-visible result:
``(task name, printed text, checks total or None, violation count)``.  The
work for a task happens inside the ``next()`` call that yields it, so the
time between two results is that task's latency, as in the closed loop of a
user who waits for each table row or suite line.  An exception ends only its
own group.

Everything before the first group runs is set-up: the imports, the configs,
the character and the structure-constant tables.

The seed selects one of ``SEED_CLASSES`` input sets (``seed % SEED_CLASSES``),
because the reference outputs in ``reference.json`` were recorded for each
of them.

Every workload keeps a pass to a few seconds, so that one run of the
benchmark fits several passes and reports their median.  ``words`` runs
``hopf`` at ``HOPF_SAMPLES`` samples, not its default 100, and leaves out
``duality``: at defaults the two take about 21 s, one pass a run.  Its
suite seed is 0 whatever the seed, because the cost of ``hopf`` varies about
4x across suite seeds (a few long-word samples dominate), so a seeded
``hopf`` would measure the draw, not the code.  ``coords`` checks the |I|=8
truncation (``COORD_TRUNCATION``); at |I|=12 the six checks take about 20 s.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Library functions are looked up through their modules at call time, so
# that the tracer's rebinding of module attributes reaches these calls too.
from postliemi import coordinates, enveloping, group, multiindex, polyalg, representation, suites
from postliemi.group import Character
from postliemi.multiindex import Config
from postliemi.polyalg import Polynomial
from postliemi.postlie import basis_pool

SEED_CLASSES = 16

WORKLOADS = ("words", "lie", "tables", "coords")

HOPF_SAMPLES = 60

# derivation_labels(d, max_norm): both shifts and every DOp(n) with |n| <= 2
COORD_TRUNCATION = (2, 2)

LIE_SUITES = (
    "post-lie-jz",
    "pre-lie-btr",
    "flat-diamond",
    "bianchi",
    "curvature-torsion",
    "representation",
    "gamma-compose",
)

COORD_CHECKS = (
    ("torsion", "check_null_torsion"),
    ("covtorsion", "check_constant_torsion"),
    ("flat", "check_flat"),
)


def seed_class(seed: int) -> int:
    return seed % SEED_CLASSES


class Workload:
    """Task groups plus what the per-layer report needs to know of the inputs."""

    def __init__(self, groups: list, sizes: dict | None = None):
        self.groups = groups  # [(root layer, group name, iterator factory)]
        self.sizes = sizes or {}


def build(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return _BUILDERS[name](seed_class(seed))


# -- suites ------------------------------------------------------------------


def _suite_group(suite: str, suite_seed: int, samples: int | None = None):
    def run():
        r = suites.run_suite(suite, samples=samples, seed=suite_seed)
        lines = [r.line()]
        lines += [f"    note: {n}" for n in r.notes]
        lines += [f"    violation: {v}" for v in r.violations]
        yield suite, "\n".join(lines), r.checks, len(r.violations)

    return ("suites", suite, run)


def _words(cls: int) -> Workload:
    return Workload([_suite_group("hopf", 0, HOPF_SAMPLES)])


def _lie(cls: int) -> Workload:
    return Workload([_suite_group(s, cls) for s in LIE_SUITES])


# -- tables ------------------------------------------------------------------


def _mono(g, cfg) -> str:
    return polyalg.print_polynomial(Polynomial.monomial(g), cfg)


def _coaction_group(label: str, cfg: Config, cutoff: Fraction):
    def run():
        for g in multiindex.enumerate_below_value(cutoff, cfg):
            mono = _mono(g, cfg)
            lines = [f"target {mono}"]
            for c in representation.coaction_contributions(g, cfg):
                word = enveloping.print_word(c.word, cfg)
                lines.append(f"  {c.coeff} {word} (x) {_mono(c.source, cfg)}")
            yield f"{label}[{mono}]", "\n".join(lines), None, 0

    return ("bench", label, run)


def _gamma_group(f: Character, cfg: Config, cutoff: Fraction):
    def run():
        for g in multiindex.enumerate_below_value(cutoff, cfg):
            mono = _mono(g, cfg)
            image = polyalg.print_polynomial(group.gamma_apply(f, g, cfg), cfg)
            yield f"gamma[{mono}]", f"{mono} -> {image}", None, 0

    return ("bench", "gamma", run)


def _dual_group(letters: list, cfg: Config):
    def run():
        for x in letters:
            w = (x,)
            text = enveloping.print_tensor_element(enveloping.dual_coproduct(w, cfg), cfg)
            yield f"dual[{enveloping.print_word(w, cfg)}]", text, None, 0

    return ("bench", "dual_coproduct", run)


def tables_character(cls: int, cfg: Config) -> Character:
    """Seeded rational values in [-2, 2] with denominators up to 4."""
    rng = random.Random(f"tables-{cls}")
    vals = {}
    for k in group.support_letters(Fraction(9, 4), cfg):
        q = rng.randint(1, 4)
        vals[k] = Fraction(rng.randint(-2 * q, 2 * q), q)
    return Character.from_dict(vals)


def _tables(cls: int) -> Workload:
    cfg = Config(d=2, alpha=Fraction(3, 4))
    cfg_half = Config(d=2, alpha=Fraction(1, 2))
    cfg_d8 = Config(d=8, alpha=Fraction(3, 4))
    f = tables_character(cls, cfg)
    letters = basis_pool(cfg_half, gamma_limit=Fraction(3, 2), max_norm=2, require_L=True)
    return Workload(
        [
            _coaction_group("coaction", cfg, Fraction(11, 4)),
            _gamma_group(f, cfg, Fraction(9, 4)),
            _dual_group(letters, cfg_half),
            _coaction_group("coaction_d8", cfg_d8, Fraction(2)),
        ],
    )


# -- coordinates -------------------------------------------------------------


def coords_mutation(cls: int, sc) -> tuple:
    """The delta entry to overwrite: (DOp a, DOp b, shift) with |a|, |b| <= 1.

    A bracket landing on a shift breaks null torsion at that entry; flatness
    sees it through gamma[shift, ., .], and constant torsion through the
    gamma entries leading into D(a) and out of D(b), which exist when both
    norms stay below the truncation |n| <= 2.
    """
    rng = random.Random(f"coords-{cls}")
    shifts = [x for x in sc.index_set if x.startswith("P")]
    low = [x for x in sc.index_set if x.startswith("D") and _norm(x) < COORD_TRUNCATION[1]]
    a, b = rng.sample(low, 2)
    return a, b, rng.choice(shifts), rng.choice((-2, -1, 1, 2))


def _norm(label: str) -> int:
    return sum(int(c) for c in label[2:-1].split(","))


def _coords_group(label: str, sc):
    def run():
        for name, check in COORD_CHECKS:
            found = getattr(coordinates, check)(sc)
            if found:
                lines = [f"{name}: {len(found)} nonzero residuals"]
                lines += [f"  at {idx}: {v}" for idx, v in found]
            else:
                lines = [f"{name}: clean"]
            yield f"{label}.{name}", "\n".join(lines), len(found), 0

    return ("bench", label, run)


def _coords(cls: int) -> Workload:
    sc = coordinates.constants_from_derivations(coordinates.derivation_labels(*COORD_TRUNCATION))
    a, b, p, v = coords_mutation(cls, sc)
    mutated = sc.with_entry("d", a, b, p, v)
    return Workload(
        [_coords_group("clean", sc), _coords_group("mutated", mutated)],
        sizes={
            "coordinates.index_size": len(sc.index_set),
            "coordinates.nnz": len(sc.gamma) + len(sc.delta),
        },
    )


_BUILDERS = {"words": _words, "lie": _lie, "tables": _tables, "coords": _coords}
