"""Exact post-Lie deformation algebra on regularity-structure multi-indices.

The layers, bottom up, every printer and parser built from the shared
lexical pieces of ``text``: multi-indices and their grading (``multiindex``),
the coefficient container that every combination type below shares
(``combination``), sparse polynomials (``polyalg``), the basis derivations
and their closed products (``derivations``), the Lie algebra of decorated
derivations with its triangular, bracket, connection and deformed products
plus the geometric residuals (``postlie``), coordinate structure constants
(``coordinates``), words and the enveloping machinery: star products, PBW
straightening, the dual coproduct (``enveloping``), the operator
representations and the coaction enumeration (``representation``),
characters and recentering maps (``group``), and the named verification
suites (``suites``).  ``clear_memos`` frees the process-wide memo tables.
"""

from .multiindex import Config, HomDegree, MultiIndex, enumerate_below_value, homogeneity
from .polyalg import Polynomial, parse_polynomial, print_polynomial
from .derivations import DOp, Partial, apply_word, compose_commutator, parse_derivation
from .postlie import (
    LElement,
    Shift,
    Tilt,
    associator,
    bbracket,
    bianchi_residual,
    bracket,
    btr,
    covariant_torsion,
    curvature,
    diamond,
    grand_bracket,
    in_L,
    parse_l_element,
    print_l_element,
    torsion,
    triangleright,
)
from .coordinates import (
    StructureConstants,
    check_constant_torsion,
    check_flat,
    check_null_torsion,
    constants_from_derivations,
    diamond_from_order,
)
from .enveloping import (
    STRUCT_BTR,
    STRUCT_JZ,
    SymElement,
    TensorElement,
    TruncationParams,
    coshuffle,
    dual_coproduct,
    pairing,
    parse_word,
    pbw_normal_form,
    phi,
    poly_star,
    print_word,
    star,
)
from .representation import coaction_contributions, psi_apply, rho, rho_bar, rho_hat
from .group import (
    Character,
    UNIT_CHARACTER,
    convolve,
    gamma_apply,
    parse_character,
    sample_character,
)
from .suites import SUITES, SuiteResult, run_suite
from . import enveloping, representation

__version__ = "0.1.0"


def clear_memos() -> None:
    """Empty the process-wide memo tables; later results are the same."""
    enveloping._ACTION_CACHE.clear()
    enveloping._LETTER_TABLE.clear()
    enveloping._DUAL_LETTER_CACHE.clear()
    representation._PSI_CACHE.clear()
    representation._PSI_ADJOINT_CACHE.clear()


__all__ = [
    "Config",
    "HomDegree",
    "MultiIndex",
    "enumerate_below_value",
    "homogeneity",
    "Polynomial",
    "parse_polynomial",
    "print_polynomial",
    "DOp",
    "Partial",
    "apply_word",
    "compose_commutator",
    "parse_derivation",
    "LElement",
    "Shift",
    "Tilt",
    "associator",
    "bbracket",
    "bianchi_residual",
    "bracket",
    "btr",
    "covariant_torsion",
    "curvature",
    "diamond",
    "grand_bracket",
    "in_L",
    "parse_l_element",
    "print_l_element",
    "torsion",
    "triangleright",
    "StructureConstants",
    "check_constant_torsion",
    "check_flat",
    "check_null_torsion",
    "constants_from_derivations",
    "diamond_from_order",
    "STRUCT_BTR",
    "STRUCT_JZ",
    "SymElement",
    "TensorElement",
    "TruncationParams",
    "coshuffle",
    "dual_coproduct",
    "pairing",
    "parse_word",
    "pbw_normal_form",
    "phi",
    "poly_star",
    "print_word",
    "star",
    "coaction_contributions",
    "psi_apply",
    "rho",
    "rho_bar",
    "rho_hat",
    "Character",
    "UNIT_CHARACTER",
    "convolve",
    "gamma_apply",
    "parse_character",
    "sample_character",
    "SUITES",
    "SuiteResult",
    "run_suite",
    "clear_memos",
    "__version__",
]
