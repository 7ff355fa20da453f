"""Command line front end.

Evaluates products on parsed elements, runs the named verification suites,
and emits dual-coproduct, recentering, coaction and coordinate tables.  All
numbers print as exact fractions; identical (seed, arguments) give identical
bytes.  Exit status: 0 clean, 1 when a verified identity fails, 2 for bad
input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .coordinates import (
    ALL_CHECKS,
    CONSTANTS_LINE,
    constants_from_derivations,
    derivation_labels,
    parse_constants,
)
from .derivations import parse_derivation
from .enveloping import (
    STRUCTURES,
    TruncationParams,
    dual_coproduct,
    parse_word,
    print_tensor_element,
    print_word,
)
from .errors import ParseError
from .group import gamma_apply, parse_character
from .multiindex import Config, enumerate_below_value
from .polyalg import Polynomial, parse_polynomial, print_polynomial
from .postlie import (
    LElement,
    bbracket,
    bracket,
    btr,
    diamond,
    grand_bracket,
    parse_l_element,
    print_l_element,
    triangleright,
)
from .representation import coaction_contributions, psi_apply, rho_bar_word
from .suites import SUITES, run_suite
from .text import parse_rational, split_commas

EVAL_OPS = {
    "tr": triangleright,
    "triangleright": triangleright,
    "bracket": bracket,
    "diamond": diamond,
    "btr": btr,
    "bbracket": bbracket,
    "grand": grand_bracket,
}


def _fraction(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ParseError:
        raise argparse.ArgumentTypeError(f"expected a rational like 3/4, got {text!r}") from None


def _config(args) -> Config:
    _require_at_least("--d", args.d, 1)
    return Config(d=args.d, alpha=args.alpha)


def _add_config_args(p, alpha_default=Fraction(1, 2)):
    p.add_argument("--d", type=int, default=2, help="ambient dimension (default 2)")
    p.add_argument(
        "--alpha",
        type=_fraction,
        default=alpha_default,
        help=f"grading parameter in (0,1), a fraction (default {alpha_default})",
    )


def _require_at_least(flag: str, value, floor: int) -> None:
    if value is not None and value < floor:
        raise ParseError(f"{flag} must be at least {floor}, got {value}")


def _emit(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _parse_operand(s: str, d: int):
    """A Lie algebra element, or a one-letter word such as [P1]."""
    if not s.startswith("["):
        return parse_l_element(s, d)
    w = parse_word(s, d)
    if len(w) != 1:
        raise ParseError(f"expected a Lie algebra element, got the word {s!r}")
    return LElement.single(w[0])


def cmd_eval(args) -> int:
    cfg = _config(args)
    expr = args.expr.strip()
    open_at = expr.find("(")
    if open_at < 0 or not expr.endswith(")"):
        raise ParseError(f"expected op(x, y), got {expr!r}")
    op_name = expr[:open_at].strip()
    if op_name not in EVAL_OPS:
        raise ParseError(
            f"unknown operation {op_name!r}; choose from {', '.join(sorted(EVAL_OPS))}"
        )
    operands = [item.strip() for item, _ in split_commas(expr[open_at + 1 : -1], expr, open_at + 1)]
    if len(operands) != 2:
        raise ParseError(f"{op_name} takes two arguments, got {len(operands)}")
    for which, text in zip(("first", "second"), operands):
        if not text:
            raise ParseError(f"the {which} operand of {op_name} is empty; write 0 for zero")
    x = _parse_operand(operands[0], cfg.d)
    y = _parse_operand(operands[1], cfg.d)
    result = EVAL_OPS[op_name](x, y, cfg)
    if args.json:
        _emit(args, json.dumps({"op": op_name, "result": print_l_element(result, cfg)}))
    else:
        _emit(args, print_l_element(result, cfg))
    return 0


def cmd_verify(args) -> int:
    if args.list:
        width = max(len(name) for name in SUITES)
        lines = []
        for name, run in SUITES.items():
            summary = (run.__doc__ or "").partition("\n")[0]  # python -OO drops docstrings
            lines.append(f"{name:<{width}}  {summary}")
        _emit(args, "\n".join(lines))
        return 0
    _require_at_least("--samples", args.samples, 1)
    _require_at_least("--max-violations", args.max_violations, 0)
    names = list(args.suite)
    if args.all or not names:
        names = list(SUITES)
    for name in names:
        if name not in SUITES:
            raise ParseError(
                f"unknown suite {name!r}; `verify --list` shows the choices"
            )
    failed = False
    lines = []
    records = []
    for name in names:
        r = run_suite(name, samples=args.samples, seed=args.seed)
        failed = failed or not r.passed
        if args.json:
            records.append(
                {
                    "suite": r.name,
                    "passed": r.passed,
                    "checks": r.checks,
                    "violations": r.violations,
                    "notes": r.notes,
                    "seconds": r.seconds,
                }
            )
            continue
        lines.append(r.line())
        for note in r.notes:
            lines.append(f"    note: {note}")
        shown = r.violations[: args.max_violations]
        for v in shown:
            lines.append(f"    violation: {v}")
        if len(r.violations) > len(shown):
            lines.append(f"    ... {len(r.violations) - len(shown)} more")
    if args.json:
        _emit(args, json.dumps(records, indent=2))
    else:
        _emit(args, "\n".join(lines))
    return 1 if failed else 0


def cmd_dual_coproduct(args) -> int:
    cfg = _config(args)
    # the unit word needs neither a letter nor a letter degree, so 0 is the
    # floor of both; a bound too tight for the given word is the library's
    # TruncationRefused
    _require_at_least("--max-word-len", args.max_word_len, 0)
    _require_at_least("--max-letter-degree", args.max_letter_degree, 0)
    w = parse_word(args.word, cfg.d)
    trunc = None
    if args.max_word_len is not None or args.max_letter_degree is not None:
        trunc = TruncationParams(
            max_word_len=args.max_word_len, max_letter_degree=args.max_letter_degree
        )
    t = dual_coproduct(w, cfg, trunc)
    if args.json:
        terms = [
            {"coeff": str(c), "left": print_word(a, cfg), "right": print_word(b, cfg)}
            for (a, b), c in t.terms
        ]
        _emit(args, json.dumps(terms, indent=2))
    else:
        _emit(args, print_tensor_element(t, cfg))
    return 0


def cmd_gamma(args) -> int:
    cfg = _config(args)
    _require_at_least("--cutoff", args.cutoff, 0)
    with open(args.char, encoding="utf-8") as fh:
        f = parse_character(fh.read(), cfg.d)
    lines = []
    records = []
    for g in enumerate_below_value(args.cutoff, cfg):
        mono = print_polynomial(Polynomial.monomial(g), cfg)
        val = print_polynomial(gamma_apply(f, g, cfg), cfg)
        if args.json:
            records.append({"monomial": mono, "image": val})
        else:
            lines.append(f"{mono} -> {val}")
    _emit(args, json.dumps(records, indent=2) if args.json else "\n".join(lines))
    return 0


def cmd_coaction(args) -> int:
    cfg = _config(args)
    _require_at_least("--cutoff", args.cutoff, 0)
    lines = []
    records = []
    for g in enumerate_below_value(args.cutoff, cfg):
        mono = print_polynomial(Polynomial.monomial(g), cfg)
        cons = coaction_contributions(g, cfg)
        if args.json:
            records.append(
                {
                    "target": mono,
                    "contributions": [
                        {
                            "coeff": str(c.coeff),
                            "word": print_word(c.word, cfg),
                            "source": print_polynomial(
                                Polynomial.monomial(c.source), cfg
                            ),
                        }
                        for c in cons
                    ],
                }
            )
            continue
        lines.append(f"target {mono}")
        for c in cons:
            lines.append(
                f"  {c.coeff} {print_word(c.word, cfg)} (x) "
                f"{print_polynomial(Polynomial.monomial(c.source), cfg)}"
            )
    _emit(args, json.dumps(records, indent=2) if args.json else "\n".join(lines))
    return 0


def cmd_check_coords(args) -> int:
    _require_at_least("--d", args.d, 1)
    _require_at_least("--max-norm", args.max_norm, 0)
    _require_at_least("--max-violations", args.max_violations, 0)
    if args.table:
        with open(args.table, encoding="utf-8") as fh:
            sc = parse_constants(fh.read(), args.d)
    else:
        sc = constants_from_derivations(derivation_labels(args.d, args.max_norm))
    failed = False
    lines = []
    records = []
    for name, check in ALL_CHECKS.items():
        found = check(sc)
        failed = failed or bool(found)
        if args.json:
            records.append(
                {
                    "check": name,
                    "residuals": [
                        {"indices": list(idx), "value": str(v)} for idx, v in found
                    ],
                }
            )
            continue
        if found:
            lines.append(f"{name}: {len(found)} nonzero residuals")
            for idx, v in found[: args.max_violations]:
                lines.append(f"  at {idx}: {v}")
        else:
            lines.append(f"{name}: clean")
    _emit(args, json.dumps(records, indent=2) if args.json else "\n".join(lines))
    return 1 if failed else 0


def cmd_psi(args) -> int:
    cfg = _config(args)
    ds = tuple(parse_derivation(tok, cfg.d) for tok in args.derivations.split())
    p = parse_polynomial(args.polynomial, cfg.d)
    result = psi_apply(ds, p, cfg)
    if args.json:
        _emit(args, json.dumps({"result": print_polynomial(result, cfg)}))
    else:
        _emit(args, print_polynomial(result, cfg))
    return 0


def cmd_rhobar(args) -> int:
    cfg = _config(args)
    struct = STRUCTURES[args.structure]
    w = parse_word(args.word, cfg.d)
    p = parse_polynomial(args.polynomial, cfg.d)
    result = rho_bar_word(struct, w, p, cfg)
    if args.json:
        _emit(args, json.dumps({"result": print_polynomial(result, cfg)}))
    else:
        _emit(args, print_polynomial(result, cfg))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="postliemi",
        description="exact post-Lie deformation algebra on multi-indices",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a product of two Lie algebra elements")
    p.add_argument("expr", help='e.g. \'btr([P1],[z{k0:1}xD(1,0)])\'')
    _add_config_args(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run named identity suites")
    p.add_argument("suite", nargs="*", help="suite names; none (or --all) means all")
    p.add_argument("--list", action="store_true", help="list suites and exit")
    p.add_argument("--all", action="store_true")
    p.add_argument("--samples", type=int, default=None, help="override sample count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-violations", type=int, default=10)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dual-coproduct", help="dual coproduct of a word")
    p.add_argument("word", help='e.g. "[z{k0:1}xD(0,0)]"')
    _add_config_args(p)
    p.add_argument("--max-word-len", type=int, default=None)
    p.add_argument("--max-letter-degree", type=_fraction, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_dual_coproduct)

    p = sub.add_parser("gamma", help="recentering table of a character file")
    p.add_argument("--char", required=True, help="file of lines `<letter> = <rational>`")
    p.add_argument("--cutoff", type=_fraction, default=Fraction(3, 2))
    _add_config_args(p, alpha_default=Fraction(3, 4))
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("coaction", help="coaction contribution tables")
    p.add_argument("--cutoff", type=_fraction, default=Fraction(3, 2))
    _add_config_args(p, alpha_default=Fraction(3, 4))
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_coaction)

    p = sub.add_parser("check-coords", help="structure-constant residual checks")
    p.add_argument(
        "--table",
        help=f"constants file, one `{CONSTANTS_LINE}` line per entry, labels P<i> "
        "or D(n), '#' starts a comment; omitted means the built-in truncation",
    )
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--max-norm", type=int, default=2)
    p.add_argument("--max-violations", type=int, default=10)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_check_coords)

    p = sub.add_parser("psi", help="apply a symmetrized derivation word")
    p.add_argument("derivations", help='space-separated, e.g. "P1 D(1,0)"')
    p.add_argument("polynomial", help='e.g. "z{k0:1} + 2 z{(1,0):1}"')
    _add_config_args(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("rhobar", help="apply a word through either representation")
    p.add_argument("structure", choices=sorted(STRUCTURES))
    p.add_argument("word", help='e.g. "[P1][z{k0:1}xD(1,0)]"')
    p.add_argument("polynomial")
    _add_config_args(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_rhobar)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as e:  # ParseError and TruncationRefused too
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
