"""The decorated-derivation Lie algebra and its bilinear products.

Basis keys come in two kinds:

* ``Tilt(gamma, n)``: the operator z^gamma * D^(n), a polynomial decoration
  on a basis derivation (n may be the zero tuple);
* ``Shift(i)``: the bare directional derivation in direction i.

``LElement`` is a finite rational combination of keys.  The products are all
defined through the factorized rules

    x > y   =  a1 * D1(a2) (x) D2          (zero when y is a Shift)
    [x, y]  =  a1 * a2 (x) [D1, D2]
    x <> y  =  a1 * a2 (x) (D1 <> D2)

for x = a1 (x) D1, y = a2 (x) D2, where [.,.] is the composition commutator
of derivations and <> their triangular product.  Products of basis keys never
produce a decorated Shift, so the key shape is closed.

Only some pairs of keys reach a kernel.  [D1, D2] and D1 <> D2 of basis
derivations vanish unless a shift P_i meets a tilt with n_i != 0, and > is
zero onto a shift, so x > y runs every key of x against the tilts of y,
x <> y the shifts of x against the tilts of y, and [x, y] those pairs plus
the tilts of x against the shifts of y; a shift and a tilt reach <> or
[.,.] only when their direction masks (``_key_mask``) meet.  Each product
reads both operands' ``_Shape``: keys checked against the dimension, the
shift count and the masks, stored on the element and recomputed when it
is read at another dimension.  A tilt stores D(z^gamma) for each
(derivation D, config) that > has acted with, and drops it with the key.

Derived operations: ``btr`` (> plus <>), the deformed bracket ``bbracket``,
the ``grand_bracket``, and the generic torsion / curvature / Bianchi
machinery parameterized over any bilinear pair (prod, lie).

Membership: ``in_L`` keeps Shifts and those Tilts whose decoration outweighs
the lowering order, |gamma| > |n| as exact rationals.  That subspace is
closed under btr, which the test suite checks by sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, NamedTuple, Sequence, Tuple, Union

from .combination import Combination
from .derivations import (
    DOp,
    Derivation,
    Partial,
    apply_to_monomial,
    compose_commutator,
    parse_derivation,
    print_derivation,
)
from .derivations import diamond as derivation_diamond
from .errors import DimensionMismatch, ParseError
from .multiindex import (
    Config,
    HomDegree,
    MultiIndex,
    direction_keys,
    enumerate_below_value,
    hom_value,
    homogeneity,
    n_norm,
    parse_multiindex,
    print_multiindex,
)
from .polyalg import Polynomial
from .text import parse_sum, print_sum


@dataclass(frozen=True, slots=True)
class Tilt:
    """Basis key z^gamma * D^(n); n is a d-tuple, zero allowed.  Stores its
    hash, that of (gamma, n), its ``structural_rank``, the degree pair of
    gamma that ``pbw_rank`` reads and its ``key_derivation`` once computed,
    and the actions D(z^gamma) that ``>`` has read, keyed by (D, config)."""

    gamma: MultiIndex
    n: tuple
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)
    _rank: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _hom: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _derivation: DOp | None = field(default=None, init=False, repr=False, compare=False)
    _acted: dict | None = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.gamma, self.n)))
        return self._hash

    def __post_init__(self):
        if not isinstance(self.n, tuple) or not self.n:
            raise ValueError(f"direction tuple required, got {self.n!r}")
        if any((not isinstance(c, int)) or c < 0 for c in self.n):
            raise ValueError(f"direction tuple must consist of naturals, got {self.n!r}")
        gd = self.gamma.dim()
        if gd is not None and gd != len(self.n):
            raise DimensionMismatch(
                f"decoration over dimension {gd} on a derivation of dimension {len(self.n)}"
            )


def _trusted_tilt(gamma: MultiIndex, n: tuple) -> Tilt:
    """Tilt(gamma, n) without the ``__post_init__`` checks, for a product
    whose gamma and n come from keys already checked against one dimension."""
    t = object.__new__(Tilt)
    put = object.__setattr__
    put(t, "gamma", gamma)
    put(t, "n", n)
    put(t, "_hash", None)
    put(t, "_rank", None)
    put(t, "_hom", None)
    put(t, "_derivation", None)
    put(t, "_acted", None)
    return t


@dataclass(frozen=True, slots=True)
class Shift:
    """Basis key 1 * partial_i (no decoration by construction); stores its
    hash and its ``key_derivation`` like ``Tilt``."""

    i: int
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)
    _derivation: Partial | None = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.i,)))
        return self._hash

    def __post_init__(self):
        if not isinstance(self.i, int) or self.i < 1:
            raise ValueError(f"direction index must be >= 1, got {self.i!r}")


LBasisKey = Union[Tilt, Shift]


def key_derivation(key: LBasisKey) -> Derivation:
    """The derivation factor D of key = a (x) D, built once per key."""
    D = key._derivation
    if D is None:
        D = Partial(key.i) if isinstance(key, Shift) else DOp(key.n)
        object.__setattr__(key, "_derivation", D)
    return D


def _decoration(key: LBasisKey) -> MultiIndex:
    """The exponent of the decoration factor a of key = a (x) D."""
    return MultiIndex.zero() if isinstance(key, Shift) else key.gamma


def key_poly(key: LBasisKey) -> Polynomial:
    if isinstance(key, Shift):
        return Polynomial.one()
    return Polynomial.monomial(key.gamma)


def key_degree(key: LBasisKey) -> HomDegree:
    """Exact degree: hom(gamma) + (0, -|n|) for tilts, (0, 1) for shifts."""
    if isinstance(key, Shift):
        return HomDegree(0, 1)
    h = homogeneity(key.gamma)
    return HomDegree(h.a, h.b - n_norm(key.n))


def structural_rank(key: LBasisKey):
    """Configuration-free total order used for canonical storage."""
    if isinstance(key, Shift):
        return (0, key.i, (), 0, ())
    if key._rank is None:
        object.__setattr__(key, "_rank", (1, 0, key.gamma.sort_rank(), n_norm(key.n), key.n))
    return key._rank


def pbw_rank(key: LBasisKey, cfg: Config):
    """The fixed total order on basis keys: shifts by direction first, then
    tilts by (gamma degree, gamma, |n|, n).

    The degree a*alpha + b of gamma enters as the integer a*p + b*q, where
    alpha = p/q: scaling by q > 0 keeps the order of the exact rationals, so
    the key holds no Fraction and sorts exactly as the degree does.  The pair
    (a, b) does not depend on the config and is stored on the key.
    """
    if isinstance(key, Shift):
        return (0, key.i)
    hom = key._hom
    if hom is None:
        h = homogeneity(key.gamma)
        hom = (h.a, h.b)
        object.__setattr__(key, "_hom", hom)
    alpha = cfg.alpha
    return (1, hom[0] * alpha.numerator + hom[1] * alpha.denominator) + structural_rank(key)[2:]


def key_in_L(key: LBasisKey, cfg: Config) -> bool:
    if isinstance(key, Shift):
        return key.i <= cfg.d
    return hom_value(key.gamma, cfg) > n_norm(key.n)


def divisor_tilts(g: MultiIndex, cfg: Config) -> list:
    """The tilts of the graded subalgebra whose decoration divides g.

    These are z^{g'} D^(n) for every nonzero divisor g' of g and every n,
    zero first, with |n| < |g'|: the letters that can take part in a
    product or word landing on the decoration g.
    """
    zero_dir = tuple([0] * cfg.d)
    out = []
    for gp in g.divisors():
        if gp.is_zero:
            continue
        cap = math.ceil(hom_value(gp, cfg)) - 1  # the largest norm below |g'|
        out.extend(Tilt(gp, n) for n in [zero_dir] + direction_keys(cfg.d, cap))
    return out


def check_key_dim(key: LBasisKey, d: int) -> None:
    if isinstance(key, Shift):
        if key.i > d:
            raise DimensionMismatch(f"direction {key.i} out of range for dimension {d}")
    elif len(key.n) != d:
        # a Tilt's decoration has the dimension of n or none (__post_init__)
        raise DimensionMismatch(f"key over dimension {len(key.n)}, expected {d}")


class LElement(Combination):
    """Finite rational combination of basis keys, canonical.  Stores the
    ``_shape`` that the products last read it at."""

    _rank = staticmethod(structural_rank)
    # declared here, not only inherited: tracing wraps each class's own __add__
    __add__ = Combination.__add__
    _shape: _Shape | None = field(default=None, init=False, repr=False, compare=False)

    def keys(self) -> tuple:
        return tuple(k for k, _ in self.terms)


def in_L0(x: LElement, cfg: Config) -> bool:
    """Structural membership: every key fits the ambient dimension."""
    try:
        for k, _ in x.terms:
            check_key_dim(k, cfg.d)
    except DimensionMismatch:
        return False
    return True


def in_L(x: LElement, cfg: Config) -> bool:
    return in_L0(x, cfg) and all(key_in_L(k, cfg) for k, _ in x.terms)


# -- products ----------------------------------------------------------------


def _key_mask(key: LBasisKey) -> int:
    """The directions at which a key takes part in the vanishing rule, as
    bits (bit i-1 for direction i): i for P_i, and for z^gamma D^(n) each i
    with n_i != 0.  [D1, D2] and D1 <> D2 of two basis keys vanish unless
    one is a shift and the other a tilt whose masks meet
    (``compose_commutator``, ``derivations.diamond``)."""
    if isinstance(key, Shift):
        return 1 << (key.i - 1)
    mask = 0
    for j, c in enumerate(key.n):
        if c:
            mask |= 1 << j
    return mask


def _keys_commute(kx: LBasisKey, ky: LBasisKey) -> bool:
    """Whether the bracket of two keys is zero, read off their masks; two
    tilts or two shifts always commute.  A shift beyond a tilt's dimension
    is not claimed to commute: the bracket refuses that pair."""
    if isinstance(kx, Shift) is isinstance(ky, Shift):
        return True
    tilt, shift = (ky, kx) if isinstance(kx, Shift) else (kx, ky)
    return shift.i <= len(tilt.n) and not _key_mask(shift) & _key_mask(tilt)


class _Shape(NamedTuple):
    """What the products read of an element at dimension d, whose keys were
    checked against d.  Shifts rank first, so ``terms[:nshift]`` are the
    shifts and the rest the tilts; ``masks`` holds each key's ``_key_mask``,
    ``shift_mask`` and ``low_mask`` their unions over shifts and tilts."""

    d: int
    nshift: int
    masks: tuple
    shift_mask: int
    low_mask: int


def _shape(x: LElement, d: int) -> _Shape:
    """The shape of x at dimension d, computed once and stored on x until a
    product reads x at another dimension."""
    s = x._shape
    if s is None or s.d != d:
        nshift = shift_mask = low_mask = 0
        masks = []
        for k, _ in x.terms:
            check_key_dim(k, d)
            m = _key_mask(k)
            masks.append(m)
            if isinstance(k, Shift):
                nshift += 1
                shift_mask |= m
            else:
                low_mask |= m
        s = _Shape(d, nshift, tuple(masks), shift_mask, low_mask)
        object.__setattr__(x, "_shape", s)
    return s


def _tri_kernel(kx: LBasisKey, ky: LBasisKey, cfg: Config) -> list:
    """kx > ky as (key, coefficient) pairs: for ky = z^gamma D^(n), the
    decoration of kx times D(z^gamma), tensored with D^(n).  D(z^gamma) is
    read once per (D, config) and stored on ky."""
    if isinstance(ky, Shift):
        return []  # every derivation kills the unit decoration
    D = key_derivation(kx)
    acted = ky._acted
    if acted is None:
        acted = {}
        object.__setattr__(ky, "_acted", acted)
    moves = acted.get((D, cfg))
    if moves is None:
        moves = acted[(D, cfg)] = apply_to_monomial(D, ky.gamma, cfg)
    if not moves:
        return []
    gx, n = _decoration(kx), ky.n
    return [(_trusted_tilt(gx + g, n), c) for g, c in moves]


def _tensor_decoration(kx: LBasisKey, ky: LBasisKey, combo) -> list:
    """a1 * a2 (x) combo for x = a1 (x) D1, y = a2 (x) D2; every term of a
    product of two basis derivations is a DOp."""
    if combo.is_zero:
        return []
    g = _decoration(kx) + _decoration(ky)
    return [(_trusted_tilt(g, D.n), c) for D, c in combo.terms]


def _bracket_kernel(kx: LBasisKey, ky: LBasisKey, cfg: Config) -> list:
    return _tensor_decoration(kx, ky, compose_commutator(key_derivation(kx), key_derivation(ky)))


def _diamond_kernel(kx: LBasisKey, ky: LBasisKey, cfg: Config) -> list:
    return _tensor_decoration(kx, ky, derivation_diamond(key_derivation(kx), key_derivation(ky)))


def _tri_pairs(x: LElement, sx: _Shape, y: LElement, sy: _Shape):
    """Every term of x against the tilts of y."""
    return product(x.terms, y.terms[sy.nshift :])


def _meeting_pairs(x: LElement, sx: _Shape, y: LElement, sy: _Shape) -> list:
    """The (shift of x, tilt of y) pairs of terms whose masks meet: the
    only pairs at which x <> y can be nonzero."""
    if not sx.shift_mask & sy.low_mask:
        return []
    i, j = sx.nshift, sy.nshift
    return [
        (a, b)
        for a, ma in zip(x.terms[:i], sx.masks[:i])
        for b, mb in zip(y.terms[j:], sy.masks[j:])
        if ma & mb
    ]


def _bracket_pairs(x: LElement, sx: _Shape, y: LElement, sy: _Shape) -> list:
    """The meeting (shift, tilt) pairs and the meeting (tilt, shift) pairs."""
    pairs = _meeting_pairs(x, sx, y, sy)
    if sx.low_mask & sy.shift_mask:
        pairs += [(a, b) for b, a in _meeting_pairs(y, sy, x, sx)]
    return pairs


def _bilinear(kernel, pairs) -> "BilinearOp":
    """The bilinear extension of a product of basis keys, run on the pairs
    of terms that ``pairs`` yields; every other pair gives zero.  A factor
    equal to 1 is not multiplied by."""

    def op(x: LElement, y: LElement, cfg: Config) -> LElement:
        if not x.terms:
            return LElement.zero()
        d, sx, sy = cfg.d, x._shape, y._shape
        if sx is None or sx.d != d:
            # every key once, in the order a check per pair would meet them
            check_key_dim(x.terms[0][0], d)
            sy = _shape(y, d)
            sx = _shape(x, d)
        elif sy is None or sy.d != d:
            sy = _shape(y, d)
        terms = []
        for (kx, cx), (ky, cy) in pairs(x, sx, y, sy):
            out = kernel(kx, ky, cfg)
            if out:
                cxy = cy if cx == 1 else cx if cy == 1 else cx * cy
                if cxy == 1:
                    terms.extend(out)
                else:
                    terms.extend((kz, cxy if cz == 1 else cxy * cz) for kz, cz in out)
        return LElement.from_terms(terms) if terms else LElement.zero()

    return op


BilinearOp = Callable[[LElement, LElement, Config], LElement]

triangleright: BilinearOp = _bilinear(_tri_kernel, _tri_pairs)
bracket: BilinearOp = _bilinear(_bracket_kernel, _bracket_pairs)
diamond: BilinearOp = _bilinear(_diamond_kernel, _meeting_pairs)


def btr(x: LElement, y: LElement, cfg: Config) -> LElement:
    return triangleright(x, y, cfg) + diamond(x, y, cfg)


def commutator(prod: BilinearOp) -> BilinearOp:
    def op(x: LElement, y: LElement, cfg: Config) -> LElement:
        return prod(x, y, cfg) - prod(y, x, cfg)

    return op


def bbracket(x: LElement, y: LElement, cfg: Config) -> LElement:
    """Deformed bracket: the original one minus the <>-commutator."""
    return bracket(x, y, cfg) - (diamond(x, y, cfg) - diamond(y, x, cfg))


def grand_bracket(x: LElement, y: LElement, cfg: Config) -> LElement:
    """The >-commutator plus the bracket."""
    return (triangleright(x, y, cfg) - triangleright(y, x, cfg)) + bracket(x, y, cfg)


def zero_op(x: LElement, y: LElement, cfg: Config) -> LElement:
    return LElement.zero()


def adjoint_pair(prod: BilinearOp, lie: BilinearOp) -> Tuple[BilinearOp, BilinearOp]:
    """The companion structure (x,y) -> (prod + lie, -lie); applying it twice
    gives back (prod, lie)."""

    def new_prod(x: LElement, y: LElement, cfg: Config) -> LElement:
        return prod(x, y, cfg) + lie(x, y, cfg)

    def new_lie(x: LElement, y: LElement, cfg: Config) -> LElement:
        return -lie(x, y, cfg)

    return new_prod, new_lie


# -- torsion, curvature, Bianchi ---------------------------------------------


def associator(prod: BilinearOp, x, y, z, cfg: Config) -> LElement:
    return prod(x, prod(y, z, cfg), cfg) - prod(prod(x, y, cfg), z, cfg)


def torsion(prod: BilinearOp, lie: BilinearOp, x, y, cfg: Config) -> LElement:
    """prod-commutator minus the bracket."""
    return prod(x, y, cfg) - prod(y, x, cfg) - lie(x, y, cfg)


def curvature(prod: BilinearOp, lie: BilinearOp, x, y, z, cfg: Config) -> LElement:
    return (
        prod(x, prod(y, z, cfg), cfg)
        - prod(y, prod(x, z, cfg), cfg)
        - prod(lie(x, y, cfg), z, cfg)
    )


def covariant_torsion(prod: BilinearOp, lie: BilinearOp, x, y, z, cfg: Config) -> LElement:
    """(x <> T)(y, z): derivative of the torsion tensor along x."""
    return (
        prod(x, torsion(prod, lie, y, z, cfg), cfg)
        - torsion(prod, lie, prod(x, y, cfg), z, cfg)
        - torsion(prod, lie, y, prod(x, z, cfg), cfg)
    )


def _cyclic(f, x, y, z) -> LElement:
    return f(x, y, z) + f(y, z, x) + f(z, x, y)


def bianchi_residual(prod: BilinearOp, lie: BilinearOp, x, y, z, cfg: Config) -> LElement:
    """Cyclic sum of T(T(.,.),.) minus cyclic curvature plus cyclic covariant
    torsion; identically zero whenever lie satisfies the Jacobi identity."""

    def tt(a, b, c):
        return torsion(prod, lie, torsion(prod, lie, a, b, cfg), c, cfg)

    def rr(a, b, c):
        return curvature(prod, lie, a, b, c, cfg)

    def ct(a, b, c):
        return covariant_torsion(prod, lie, a, b, c, cfg)

    return _cyclic(tt, x, y, z) - _cyclic(rr, x, y, z) + _cyclic(ct, x, y, z)


# -- identity checkers -------------------------------------------------------


def check_post_lie(prod: BilinearOp, lie: BilinearOp, triples: Iterable, cfg: Config) -> list:
    """Violations of the compatibility axioms over the given triples.

    Checked per triple: antisymmetry and Jacobi for lie, the derivation rule
    prod(x, lie(y,z)) = lie(prod(x,y), z) + lie(y, prod(x,z)), and the
    associator rule prod(lie(x,y), z) = a(x,y,z) - a(y,x,z).
    """
    bad = []
    for x, y, z in triples:
        if not (lie(x, y, cfg) + lie(y, x, cfg)).is_zero:
            bad.append(("lie-antisymmetry", (x, y, z)))
        jac = lie(x, lie(y, z, cfg), cfg) + lie(y, lie(z, x, cfg), cfg) + lie(z, lie(x, y, cfg), cfg)
        if not jac.is_zero:
            bad.append(("lie-jacobi", (x, y, z)))
        der = (
            prod(x, lie(y, z, cfg), cfg)
            - lie(prod(x, y, cfg), z, cfg)
            - lie(y, prod(x, z, cfg), cfg)
        )
        if not der.is_zero:
            bad.append(("derivation-rule", (x, y, z)))
        ass = (
            prod(lie(x, y, cfg), z, cfg)
            - associator(prod, x, y, z, cfg)
            + associator(prod, y, x, z, cfg)
        )
        if not ass.is_zero:
            bad.append(("associator-rule", (x, y, z)))
    return bad


def check_pre_lie(prod: BilinearOp, triples: Iterable, cfg: Config) -> list:
    """Violations of associator symmetry a(x,y,z) = a(y,x,z)."""
    bad = []
    for x, y, z in triples:
        if not (associator(prod, x, y, z, cfg) - associator(prod, y, x, z, cfg)).is_zero:
            bad.append(("pre-lie", (x, y, z)))
    return bad


def check_derivation_compat(
    tri: BilinearOp, prod: BilinearOp, triples: Iterable, cfg: Config
) -> list:
    """Violations of tri(x, prod(y,z)) = prod(tri(x,y), z) + prod(y, tri(x,z))."""
    bad = []
    for x, y, z in triples:
        lhs = tri(x, prod(y, z, cfg), cfg)
        rhs = prod(tri(x, y, cfg), z, cfg) + prod(y, tri(x, z, cfg), cfg)
        if not (lhs - rhs).is_zero:
            bad.append(("compat", (x, y, z)))
    return bad


# -- sampling ----------------------------------------------------------------


def basis_pool(
    cfg: Config,
    gamma_limit: Fraction = Fraction(2),
    max_norm: int = 2,
    require_L: bool = False,
) -> list:
    """Deterministic finite pool of basis keys for randomized identity checks.

    Decorations run over the capped degree slice of value <= gamma_limit,
    lowering orders over |n| <= max_norm (the zero tuple included).
    """
    keys: list = [Shift(i) for i in range(1, cfg.d + 1)]
    dirs = [tuple([0] * cfg.d)] + direction_keys(cfg.d, max_norm)
    for g in enumerate_below_value(Fraction(gamma_limit), cfg):
        for n in dirs:
            key = Tilt(g, n)
            if require_L and not key_in_L(key, cfg):
                continue
            keys.append(key)
    return keys


def sample_element(rng, pool: Sequence[LBasisKey], max_terms: int = 3) -> LElement:
    """1..max_terms keys from the pool with nonzero coefficients in -3..3."""
    nterms = rng.randint(1, max_terms)
    terms = []
    for _ in range(nterms):
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        terms.append((rng.choice(pool), Fraction(c)))
    x = LElement.from_terms(terms)
    if x.is_zero:  # cancellation is possible: repeated key, opposite signs
        x = LElement.single(rng.choice(pool))
    return x


def sample_triples(rng, pool: Sequence[LBasisKey], count: int, max_terms: int = 3) -> list:
    return [
        tuple(sample_element(rng, pool, max_terms) for _ in range(3)) for _ in range(count)
    ]


# -- text form ---------------------------------------------------------------
#
#   z{k1:1,(1,0):1}xD(1,0) - z{k0:1}xD(0,0)        3/2 P1 + z{}xD(0,0)


def print_l_key(key: LBasisKey) -> str:
    D = print_derivation(key_derivation(key))
    return D if isinstance(key, Shift) else "z" + print_multiindex(key.gamma) + "x" + D


def _print_order(key: LBasisKey, cfg: Config):
    # graded by exact degree value; within a grade the structurally larger
    # key prints first (the > part of btr before the <> part)
    return (key_degree(key).value(cfg),)


def print_l_element(x: LElement, cfg: Config) -> str:
    terms = sorted(x.terms, key=lambda kc: structural_rank(kc[0]), reverse=True)
    terms.sort(key=lambda kc: _print_order(kc[0], cfg))
    return print_sum((print_l_key(k), c) for k, c in terms)


def parse_l_key(s: str, d: int | None = None) -> LBasisKey:
    """A shift ``P<i>``, or a tilt: the decoration prefix ``z{...}x`` and then
    ``D(...)``, both read by ``parse_derivation``."""
    text = s
    s = s.strip()
    if s.startswith("P"):
        key: LBasisKey = Shift(parse_derivation(s).i)
    elif s.startswith("z{"):
        close = s.find("}")
        if close < 0:
            raise ParseError("unterminated decoration", text, 1)
        gamma = parse_multiindex(s[1 : close + 1], d)
        rest = s[close + 1 :]
        if not rest.startswith("xD"):
            raise ParseError(f"expected xD(...) after decoration, got {rest!r}", text, close + 1)
        try:
            key = Tilt(gamma, parse_derivation(rest[1:]).n)
        except DimensionMismatch as e:
            raise ParseError(str(e), text, 0) from None
    else:
        raise ParseError(f"expected P<i> or z{{...}}xD(...), got {s!r}", text, 0)
    if d is not None:
        check_key_dim(key, d)
    return key


def parse_l_element(s: str, d: int | None = None) -> LElement:
    return LElement.from_terms(parse_sum(s, ("z{", "P"), lambda label: parse_l_key(label, d)))
