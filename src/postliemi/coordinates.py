"""Structure constants of a connection/bracket pair on a finite index set.

A ``StructureConstants`` value holds two sparse tables over an index set I:

    gamma[i, j, m]   the connection,  i * j = sum_m gamma[i,j,m] m
    delta[i, j, m]   the bracket,     [i, j] = sum_m delta[i,j,m] m

with delta antisymmetric in (i, j).  Three polynomial conditions are checked
entry by entry, each returning the lexicographically sorted list of
``(indices, residual)`` pairs where the condition fails:

* ``check_null_torsion``:  gamma[i,j,m] - gamma[j,i,m] = delta[i,j,m];
* ``check_constant_torsion``: with t[j,k,m] the null-torsion residual,

      sum_l ( gamma[i,l,m] t[j,k,l] - gamma[i,j,l] t[l,k,m]
              - t[j,l,m] gamma[i,k,l] ) = 0   for all (i,j,k,m);

* ``check_flat``:

      sum_l ( gamma[i,l,m] gamma[j,k,l] - gamma[j,l,m] gamma[i,k,l]
              - delta[i,j,l] gamma[l,k,m] ) = 0   for all (i,j,k,m).

Each check contracts over nonzero entries only, joining two tables on the
summed label l, so its cost follows the number of nonzero entries, not
|I|^5; entries with a label outside I are never read.  The dense form, every
(i,j,k,m) and l in I, is the oracle in ``tests/oracles.py``.

``diamond_from_order`` builds a torsion-free connection from a bracket table
and a ranking of the index set: the full bracket is assigned to the
ascending side of each noncommuting pair and zero to the other.

``constants_from_derivations`` extracts both tables from the closed-form
products of basis derivations; the label set must be closed under both
products or the truncated tables would be meaningless, so non-closure is an
error rather than a silent drop.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .derivations import (
    DOp,
    Derivation,
    Partial,
    compose_commutator,
    derivation_rank,
    diamond,
    parse_derivation,
    print_derivation,
)
from .errors import ParseError
from .multiindex import direction_keys
from .text import read_assignments


def _norm_table(entries) -> dict:
    out = defaultdict(Fraction)
    for (i, j, m), v in entries:
        out[i, j, m] += Fraction(v)
    return {key: v for key, v in out.items() if v != 0}


@dataclass
class StructureConstants:
    """Treated as immutable; use replace helpers rather than mutating."""

    index_set: tuple
    gamma: dict = field(default_factory=dict)
    delta: dict = field(default_factory=dict)

    def g(self, i, j, m) -> Fraction:
        return self.gamma.get((i, j, m), Fraction(0))

    def d(self, i, j, m) -> Fraction:
        return self.delta.get((i, j, m), Fraction(0))

    def validate(self) -> None:
        known = set(self.index_set)
        if len(known) != len(self.index_set):
            raise ValueError("repeated label in index set")
        for table in (self.gamma, self.delta):
            for i, j, m in table:
                if not {i, j, m} <= known:
                    raise ValueError(f"entry ({i},{j},{m}) uses a label outside the index set")
        for (i, j, m), v in self.delta.items():
            if self.d(j, i, m) != -v:
                raise ValueError(f"bracket table not antisymmetric at ({i},{j},{m})")

    @staticmethod
    def from_entries(index_set, gamma_entries=(), delta_entries=()) -> "StructureConstants":
        sc = StructureConstants(
            tuple(index_set), _norm_table(gamma_entries), _norm_table(delta_entries)
        )
        sc.validate()
        return sc

    def with_entry(self, kind: str, i, j, m, value) -> "StructureConstants":
        """Copy with one entry overwritten; skips the antisymmetry validation
        so deliberately broken tables can be built for regression checks, but
        rejects labels outside the index set, which no check would read."""
        if not {i, j, m} <= set(self.index_set):
            raise ValueError(f"entry ({i},{j},{m}) uses a label outside the index set")
        gamma, delta = dict(self.gamma), dict(self.delta)
        table = gamma if kind == "g" else delta
        value = Fraction(value)
        if value == 0:
            table.pop((i, j, m), None)
        else:
            table[(i, j, m)] = value
        return StructureConstants(self.index_set, gamma, delta)


def _sorted_nonzero(sc: StructureConstants, table: dict) -> list:
    """The nonzero (labels, value) pairs of a table, in index-set order."""
    order = {label: k for k, label in enumerate(sc.index_set)}
    nonzero = [(idx, v) for idx, v in table.items() if v != 0]
    return sorted(nonzero, key=lambda iv: tuple(order[x] for x in iv[0]))


def _inside(sc: StructureConstants, table: dict) -> dict:
    """The entries with all three labels in I, the only ones the checks read."""
    known = set(sc.index_set)
    return {key: v for key, v in table.items() if known.issuperset(key)}


def _by_label(table: dict, pos: int) -> dict:
    """Nonzero entries grouped by the label at position pos of their key."""
    out: dict = {}
    for key, v in table.items():
        out.setdefault(key[pos], []).append((key, v))
    return out


def _torsion(gamma: dict, delta: dict) -> dict:
    """t[j,k,m] = gamma[j,k,m] - gamma[k,j,m] - delta[j,k,m], nonzero entries."""
    t = defaultdict(Fraction)
    for (j, k, m), v in gamma.items():
        t[j, k, m] += v
        t[k, j, m] -= v
    for key, v in delta.items():
        t[key] -= v
    return {key: v for key, v in t.items() if v != 0}


def check_null_torsion(sc: StructureConstants) -> list:
    return _sorted_nonzero(sc, _torsion(_inside(sc, sc.gamma), _inside(sc, sc.delta)))


def check_constant_torsion(sc: StructureConstants) -> list:
    gamma = _inside(sc, sc.gamma)
    t = _torsion(gamma, _inside(sc, sc.delta))
    g_middle, g_last, t_first = _by_label(gamma, 1), _by_label(gamma, 2), _by_label(t, 0)
    found = defaultdict(Fraction)
    for (j, k, l), tv in t.items():  # gamma[i,l,m] t[j,k,l]
        for (i, _, m), gv in g_middle.get(l, ()):
            found[i, j, k, m] += gv * tv
    for (i, j, l), gv in gamma.items():  # - gamma[i,j,l] t[l,k,m]
        for (_, k, m), tv in t_first.get(l, ()):
            found[i, j, k, m] -= gv * tv
    for (j, l, m), tv in t.items():  # - t[j,l,m] gamma[i,k,l]
        for (i, k, _), gv in g_last.get(l, ()):
            found[i, j, k, m] -= tv * gv
    return _sorted_nonzero(sc, found)


def check_flat(sc: StructureConstants) -> list:
    gamma, delta = _inside(sc, sc.gamma), _inside(sc, sc.delta)
    g_first, g_middle = _by_label(gamma, 0), _by_label(gamma, 1)
    found = defaultdict(Fraction)
    for (j, k, l), gv in gamma.items():  # gamma[i,l,m] gamma[j,k,l]
        for (i, _, m), gv2 in g_middle.get(l, ()):
            found[i, j, k, m] += gv2 * gv
    for (i, k, l), gv in gamma.items():  # - gamma[j,l,m] gamma[i,k,l]
        for (j, _, m), gv2 in g_middle.get(l, ()):
            found[i, j, k, m] -= gv2 * gv
    for (i, j, l), dv in delta.items():  # - delta[i,j,l] gamma[l,k,m]
        for (_, k, m), gv in g_first.get(l, ()):
            found[i, j, k, m] -= dv * gv
    return _sorted_nonzero(sc, found)


ALL_CHECKS = {
    "torsion": check_null_torsion,
    "covtorsion": check_constant_torsion,
    "flat": check_flat,
}


def diamond_from_order(lie_constants: StructureConstants, order) -> StructureConstants:
    """Connection from a bracket and a ranking: for each noncommuting pair the
    bracket goes to the ascending side, gamma[i,j] = delta[i,j] when
    rank(i) < rank(j), zero otherwise.

    order may be a mapping label -> comparable rank or a sequence listing
    labels from smallest to largest.  Every label in a noncommuting pair must
    be ranked, and tied ranks on such a pair are rejected.
    """
    if not isinstance(order, Mapping):
        order = {label: k for k, label in enumerate(order)}
    gamma_entries = []
    for (i, j, m), v in lie_constants.delta.items():
        if i not in order or j not in order:
            missing = i if i not in order else j
            raise ValueError(f"order does not rank label {missing!r} of a noncommuting pair")
        if order[i] == order[j]:
            raise ValueError(f"order does not separate the noncommuting pair ({i!r}, {j!r})")
        if order[i] < order[j]:
            gamma_entries.append(((i, j, m), v))
    return StructureConstants.from_entries(
        lie_constants.index_set, gamma_entries, lie_constants.delta.items()
    )


# -- extraction from the derivation tables -----------------------------------


def derivation_labels(d: int, max_norm: int) -> list:
    """The standard closed truncation: all shifts and all DOp(n), |n| <= max_norm."""
    zero = tuple([0] * d)
    return [Partial(i) for i in range(1, d + 1)] + [
        DOp(n) for n in [zero] + direction_keys(d, max_norm)
    ]


def constants_from_derivations(derivs: Sequence[Derivation]) -> StructureConstants:
    """Extract gamma from the triangular product and delta from the
    composition commutator; rejects index sets not closed under either."""
    derivs = sorted(derivs, key=derivation_rank)
    known = set(derivs)
    labels = {D: print_derivation(D) for D in derivs}
    gamma_entries, delta_entries = [], []
    for D1 in derivs:
        for D2 in derivs:
            for entries, combo in (
                (gamma_entries, diamond(D1, D2)),
                (delta_entries, compose_commutator(D1, D2)),
            ):
                for D3, c in combo.terms:
                    if D3 not in known:
                        raise ValueError(
                            f"index set not closed: {labels[D1]} and {labels[D2]} "
                            f"produce {print_derivation(D3)}"
                        )
                    entries.append(((labels[D1], labels[D2], labels[D3]), c))
    return StructureConstants.from_entries(
        tuple(labels[D] for D in derivs), gamma_entries, delta_entries
    )


def derivation_order(sc: StructureConstants):
    """Rank the labels of a derivation-labelled table by kind: shifts first,
    then DOp by (|n|, n)."""
    return {label: derivation_rank(parse_derivation(label)) for label in sc.index_set}


# -- file form ---------------------------------------------------------------
#
#   g P1 D(1,0) D(0,0) = -1
#   d P1 D(1,0) D(0,0) = -1
#
# Lines read by ``text.read_assignments``; labels are derivation grammar
# strings, and an entry repeated under the printed labels is refused.

CONSTANTS_LINE = "g|d <i> <j> <m> = <rational>"


def print_constants(sc: StructureConstants) -> str:
    lines = []
    for kind, table in (("g", sc.gamma), ("d", sc.delta)):
        for (i, j, m), v in _sorted_nonzero(sc, table):
            lines.append(f"{kind} {i} {j} {m} = {v}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_constants(text: str, d: int | None = None) -> StructureConstants:
    derivs: dict = {}  # printed label -> derivation

    def entry(left: str):
        toks = left.split()
        if len(toks) != 4:
            raise ParseError(f"expected '{CONSTANTS_LINE}', got {left!r}")
        kind, *labels = toks
        if kind not in ("g", "d"):
            raise ParseError(f"table must be 'g' or 'd', got {kind!r}")
        key = [kind]
        for label in labels:
            D = parse_derivation(label, d)
            key.append(print_derivation(D))
            derivs[key[-1]] = D
        return tuple(key), " ".join(key)

    entries = read_assignments(text, entry, CONSTANTS_LINE, "entry")
    index_set = tuple(sorted(derivs, key=lambda label: derivation_rank(derivs[label])))
    try:
        return StructureConstants.from_entries(
            index_set,
            [(key[1:], v) for key, v in entries if key[0] == "g"],
            [(key[1:], v) for key, v in entries if key[0] == "d"],
        )
    except ValueError as e:  # a bracket table that is not antisymmetric
        raise ParseError(str(e)) from None
