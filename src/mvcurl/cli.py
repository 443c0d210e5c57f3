"""Command line interface: every computation reachable from a DSL document.

Exit codes: 0 success or predicate-true, 1 predicate-false or empty
solution set, 2 parse/validation error, 3 mathematical error such as a zero
denominator or a non-Poisson input where one is required.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable, Dict, Optional

from mvcurl.cohomology import NonExactError, truncated_exact_cohomology
from mvcurl.curl import curl, divergence, is_last_multiplier, schouten
from mvcurl.dsl import (
    MAX_POWER_DIGITS,
    Document,
    DslError,
    document_to_json,
    has_long_coefficient,
    parse,
    print_canonical,
    value_to_json,
)
from mvcurl.identities import DEFAULT_SEED, run_identity_suite
from mvcurl.poisson import (
    NonPoissonError,
    clear_poisson_memo,
    hamiltonian_field,
    jacobi_residual,
    modular_field,
    require_poisson,
    unimodularity_check,
)
from mvcurl.ring import clear_quotient_memo
from mvcurl.solver import AnsatzSpace, casimir_solve, lm_solve

__all__ = ["main"]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    Parsing reads but never changes it: each ``parse_args`` call returns a
    fresh namespace, and help and usage text read ``COLUMNS`` when printed.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", metavar="FILE",
                        help="DSL document (default: stdin)")
    common.add_argument("--json", action="store_true",
                        help="machine-readable output")
    common.add_argument("--volume", metavar="NAME",
                        help="volume binding to use (default: the unique "
                             "volume binding, else unit density)")

    parser = argparse.ArgumentParser(
        prog="mvcurl",
        description="Exact curl calculus for multivector fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curl", parents=[common],
                       help="curl of a multivector binding")
    p.add_argument("name")
    p = sub.add_parser("div", parents=[common],
                       help="divergence of a vector field binding")
    p.add_argument("name")
    p = sub.add_parser("schouten", parents=[common],
                       help="Schouten bracket of two multivector bindings")
    p.add_argument("left")
    p.add_argument("right")
    p = sub.add_parser("lm-check", parents=[common],
                       help="test a function as a last multiplier")
    p.add_argument("multiplier")
    p.add_argument("name")
    p = sub.add_parser("lm-solve", parents=[common],
                       help="basis of last multipliers in an ansatz")
    p.add_argument("name")
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--denominator", metavar="NAME",
                   help="func binding used as a fixed denominator")
    p = sub.add_parser("jacobi", parents=[common],
                       help="Schouten self-bracket of a bivector")
    p.add_argument("name")
    p = sub.add_parser("modular", parents=[common],
                       help="modular vector field of a Poisson bivector")
    p.add_argument("name")
    p = sub.add_parser("hamiltonian", parents=[common],
                       help="Hamiltonian vector field of a function")
    p.add_argument("name")
    p.add_argument("function")
    p = sub.add_parser("casimir", parents=[common],
                       help="bracket-central functions in an ansatz")
    p.add_argument("name")
    p.add_argument("--max-degree", type=int, required=True)
    p = sub.add_parser("unimodular", parents=[common],
                       help="search for a Hamiltonian potential of the "
                            "modular field")
    p.add_argument("name")
    p.add_argument("--max-degree", type=int, required=True)
    p = sub.add_parser("lie-poisson", parents=[common],
                       help="linear bivector of a lie binding")
    p.add_argument("name")
    p = sub.add_parser("cohomology", parents=[common],
                       help="truncated curl-free complex report")
    p.add_argument("name")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p = sub.add_parser("identities", parents=[common],
                       help="randomized algebraic identity suite")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--cases", type=int, default=50)
    sub.add_parser("print", parents=[common],
                   help="canonical form of the input document")
    return parser


def _load_document(args) -> Document:
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    return parse(text)


def _check_printable(*values) -> None:
    """Refuse, before printing anything, a result that cannot be printed."""
    if any(has_long_coefficient(v) for v in values):
        raise DslError(f"result has a coefficient of more than "
                       f"{MAX_POWER_DIGITS} digits")


def _print_value(args, doc: Document, value) -> None:
    _check_printable(value)
    if args.json:
        print(json.dumps(value_to_json(value, doc.chart)))
    else:
        print(print_canonical(value, doc.chart))


def _print_functions(args, doc: Document, functions, empty_message: str) -> int:
    _check_printable(*functions)
    if args.json:
        print(json.dumps({"solutions": [value_to_json(f, doc.chart)
                                        for f in functions]}))
    elif functions:
        for f in functions:
            print(print_canonical(f, doc.chart))
    else:
        print(empty_message)
    return 0 if functions else 1


def _cmd_curl(args, doc: Document) -> int:
    result = curl(doc.volume(args.volume), doc.multivector(args.name))
    _print_value(args, doc, result)
    return 0


def _cmd_div(args, doc: Document) -> int:
    result = divergence(doc.volume(args.volume), doc.multivector(args.name))
    _print_value(args, doc, result)
    return 0


def _cmd_schouten(args, doc: Document) -> int:
    result = schouten(doc.multivector(args.left), doc.multivector(args.right))
    _print_value(args, doc, result)
    return 0


def _cmd_lm_check(args, doc: Document) -> int:
    verdict = is_last_multiplier(doc.volume(args.volume),
                                 doc.scalar(args.multiplier),
                                 doc.multivector(args.name))
    if args.json:
        print(json.dumps({"last_multiplier": verdict, "routes": 3}))
    else:
        print(f"last multiplier: {'true' if verdict else 'false'} (3/3 routes)")
    return 0 if verdict else 1


def _cmd_lm_solve(args, doc: Document) -> int:
    denominator = None
    if args.denominator:
        rf = doc.scalar(args.denominator)
        if not rf.den.is_one():
            raise DslError(f"denominator {args.denominator!r} must be a "
                           "polynomial")
        denominator = rf.num
    space = AnsatzSpace(doc.chart, args.max_degree, denominator=denominator)
    solutions = lm_solve(doc.volume(args.volume), doc.multivector(args.name),
                         space)
    return _print_functions(args, doc, solutions, "no multipliers in ansatz")


def _cmd_jacobi(args, doc: Document) -> int:
    residual = jacobi_residual(doc.multivector(args.name))
    _check_printable(residual)
    if args.json:
        print(json.dumps({"residual": value_to_json(residual, doc.chart),
                          "poisson": residual.is_zero()}))
    else:
        print(print_canonical(residual, doc.chart))
    return 0 if residual.is_zero() else 1


def _cmd_modular(args, doc: Document) -> int:
    pi = doc.multivector(args.name)
    require_poisson(pi)
    result = modular_field(doc.volume(args.volume), pi)
    _print_value(args, doc, result)
    return 0


def _cmd_hamiltonian(args, doc: Document) -> int:
    result = hamiltonian_field(doc.multivector(args.name),
                               doc.scalar(args.function))
    _print_value(args, doc, result)
    return 0


def _cmd_casimir(args, doc: Document) -> int:
    pi = doc.multivector(args.name)
    require_poisson(pi)
    solutions = casimir_solve(pi, AnsatzSpace(doc.chart, args.max_degree))
    return _print_functions(args, doc, solutions, "no casimirs in ansatz")


def _cmd_unimodular(args, doc: Document) -> int:
    witness = unimodularity_check(doc.volume(args.volume),
                                  doc.multivector(args.name), args.max_degree)
    if witness is not None:
        _check_printable(witness)
    if args.json:
        payload = None if witness is None else value_to_json(witness, doc.chart)
        print(json.dumps({"witness": payload, "max_degree": args.max_degree}))
    elif witness is None:
        print(f"no witness in ansatz (degree <= {args.max_degree})")
    else:
        print(f"unimodular witness: {print_canonical(witness, doc.chart)}")
    return 0 if witness is not None else 1


def _cmd_lie_poisson(args, doc: Document) -> int:
    _print_value(args, doc, doc.lie(args.name))
    return 0


def _cmd_cohomology(args, doc: Document) -> int:
    report = truncated_exact_cohomology(doc.volume(args.volume),
                                        doc.multivector(args.name),
                                        args.k, args.max_degree)
    if args.json:
        print(json.dumps(report._asdict()))
    else:
        print(f"k: {report.k}")
        print(f"degree bound: {report.domain_degree_bound}")
        print(f"dim exact: {report.dim_exact_k}")
        print(f"dim kernel: {report.dim_kernel}")
        print(f"dim image from below: {report.dim_image_from_km1}")
        print(f"truncated H dim: {report.truncated_h_dim}")
        print("caveat: dimensions are for the truncated complex only")
    return 0


def _cmd_identities(args) -> int:
    results = run_identity_suite(args.seed, args.cases)
    if args.json:
        print(json.dumps({"seed": args.seed, "cases": args.cases,
                          "results": [{"name": r.name, "cases": r.cases,
                                       "failures": r.failures,
                                       "passed": r.passed} for r in results]}))
    else:
        for r in results:
            status = "pass" if r.passed else f"FAIL ({r.failures}/{r.cases})"
            print(f"{r.name}: {status}")
    return 0 if all(r.passed for r in results) else 1


def _cmd_print(args, doc: Document) -> int:
    if args.json:
        print(json.dumps(document_to_json(doc)))
    else:
        sys.stdout.write(print_canonical(doc))
    return 0


_HANDLERS: Dict[str, Callable] = {
    "curl": _cmd_curl,
    "div": _cmd_div,
    "schouten": _cmd_schouten,
    "lm-check": _cmd_lm_check,
    "lm-solve": _cmd_lm_solve,
    "jacobi": _cmd_jacobi,
    "modular": _cmd_modular,
    "hamiltonian": _cmd_hamiltonian,
    "casimir": _cmd_casimir,
    "unimodular": _cmd_unimodular,
    "lie-poisson": _cmd_lie_poisson,
    "cohomology": _cmd_cohomology,
    "print": _cmd_print,
}


def main(argv=None) -> int:
    """Run one command and return its exit code.

    Repeated calls in one process share one argument parser, built on the
    first call; every call starts with an empty quotient-rule memo and no
    bivector taken as proved Poisson.
    """
    clear_quotient_memo()
    clear_poisson_memo()
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "identities":
            return _cmd_identities(args)
        return _HANDLERS[args.command](args, _load_document(args))
    except (NonPoissonError, NonExactError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        print("error: input nested too deeply to evaluate", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: input too large to evaluate in memory", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal disagreement: {exc}", file=sys.stderr)
        return 3
    except DslError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
