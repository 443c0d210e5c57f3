"""Command line interface: every computation reachable from a DSL document.

Exit codes: 0 success or predicate-true, 1 predicate-false or empty
solution set, 2 parse/validation error, 3 mathematical error such as a zero
denominator or a non-Poisson input where one is required.

A call builds and imports only what its command runs.  When the first
argument names a command, the parser holds that one subcommand; the full
parser, with all of them, is built only for ``--help``, for no command and
for an unknown one.  Importing this module loads the ring, the exterior
calculus, the curl, the Poisson layer and the DSL, but not ``fractions``:
the printers render coefficients from ints.  ``solver``, ``cohomology`` and
``identities`` are registered in ``sys.modules`` without being run, and
run at their first use, so the solver commands (``lm-solve``, ``casimir``,
``unimodular``, ``cohomology``) still load ``solver`` and ``fractions`` on
their first call, as does a ``lie`` binding or a fraction written in a JSON
document.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from importlib.util import LazyLoader, find_spec, module_from_spec
from typing import Callable, Dict

import mvcurl
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
from mvcurl.poisson import (
    NonExactError,
    NonPoissonError,
    clear_poisson_memo,
    hamiltonian_field,
    jacobi_residual,
    modular_field,
    require_poisson,
    unimodularity_check,
)
from mvcurl.ring import clear_quotient_memo

__all__ = ["main"]


def _lazy_module(name: str):
    """``mvcurl.<name>``, put in ``sys.modules`` unrun: its code runs at the
    first attribute access, so a call that never uses it never pays for it,
    while a tracer or profiler that looks it up in ``sys.modules`` finds it."""
    full = f"mvcurl.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = find_spec(full)
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    setattr(mvcurl, name, module)
    return module


_solver = _lazy_module("solver")
_cohomology = _lazy_module("cohomology")
_identities = _lazy_module("identities")


def _load_document(args) -> Document:
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    return parse(sys.stdin.read())


def _check_printable(*values) -> None:
    """Refuse, before printing anything, a result that cannot be printed."""
    if any(has_long_coefficient(v) for v in values):
        raise DslError(f"result has a coefficient of more than "
                       f"{MAX_POWER_DIGITS} digits")


def _value(compute: Callable) -> Callable:
    """The handler of a command printing one value, ``compute(args, doc)``."""
    def run(args, doc: Document) -> int:
        value = compute(args, doc)
        _check_printable(value)
        if args.json:
            print(json.dumps(value_to_json(value, doc.chart)))
        else:
            print(print_canonical(value, doc.chart))
        return 0
    return run


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
    space = _solver.AnsatzSpace(doc.chart, args.max_degree,
                                denominator=denominator)
    solutions = _solver.lm_solve(doc.volume(args.volume),
                                 doc.multivector(args.name), space)
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


def _cmd_casimir(args, doc: Document) -> int:
    solutions = _solver.casimir_solve(
        require_poisson(doc.multivector(args.name)),
        _solver.AnsatzSpace(doc.chart, args.max_degree))
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


def _cmd_cohomology(args, doc: Document) -> int:
    report = _cohomology.truncated_exact_cohomology(
        doc.volume(args.volume), doc.multivector(args.name), args.k,
        args.max_degree)
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


def _cmd_identities(args, _doc) -> int:
    # --seed defaults to None, so that building the parser runs no identities
    seed = _identities.DEFAULT_SEED if args.seed is None else args.seed
    results = _identities.run_identity_suite(seed, args.cases)
    if args.json:
        print(json.dumps({"seed": seed, "cases": args.cases,
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


class _Command:
    """A subcommand: its help line, its arguments as ``{name or flag:
    add_argument keywords}``, and the handler that runs it on the parsed
    arguments and the document (None if it reads none) to an exit code.
    A plain class: a ``NamedTuple`` takes about 0.2 ms to create at import
    (Python 3.11)."""
    __slots__ = ("help", "arguments", "run", "reads_document")

    def __init__(self, help: str, arguments: Dict[str, dict], run: Callable,
                 reads_document: bool = True):
        self.help, self.arguments = help, arguments
        self.run, self.reads_document = run, reads_document


_NAME: Dict[str, dict] = {"name": {}}
_INT = {"type": int, "required": True}
_MAX_DEGREE = {**_NAME, "--max-degree": _INT}

# every subcommand, in the order that ``--help`` lists them
_COMMANDS: Dict[str, _Command] = {
    "curl": _Command("curl of a multivector binding", _NAME, _value(
        lambda a, d: curl(d.volume(a.volume), d.multivector(a.name)))),
    "div": _Command("divergence of a vector field binding", _NAME, _value(
        lambda a, d: divergence(d.volume(a.volume), d.multivector(a.name)))),
    "schouten": _Command("Schouten bracket of two multivector bindings", {
        "left": {}, "right": {}}, _value(lambda a, d: schouten(
            d.multivector(a.left), d.multivector(a.right)))),
    "lm-check": _Command("test a function as a last multiplier",
                         {"multiplier": {}, **_NAME}, _cmd_lm_check),
    "lm-solve": _Command("basis of last multipliers in an ansatz", {
        **_MAX_DEGREE, "--denominator": {
            "metavar": "NAME",
            "help": "func binding used as a fixed denominator"}},
        _cmd_lm_solve),
    "jacobi": _Command("Schouten self-bracket of a bivector", _NAME,
                       _cmd_jacobi),
    # the bivector is proved Poisson before the volume binding is looked up
    "modular": _Command("modular vector field of a Poisson bivector", _NAME,
                        _value(lambda a, d: modular_field(
                            pi=require_poisson(d.multivector(a.name)),
                            volume=d.volume(a.volume)))),
    "hamiltonian": _Command("Hamiltonian vector field of a function", {
        **_NAME, "function": {}}, _value(lambda a, d: hamiltonian_field(
            d.multivector(a.name), d.scalar(a.function)))),
    "casimir": _Command("bracket-central functions in an ansatz", _MAX_DEGREE,
                        _cmd_casimir),
    "unimodular": _Command("search for a Hamiltonian potential of the "
                           "modular field", _MAX_DEGREE, _cmd_unimodular),
    "lie-poisson": _Command("linear bivector of a lie binding", _NAME,
                            _value(lambda a, d: d.lie(a.name))),
    "cohomology": _Command("truncated curl-free complex report", {
        **_NAME, "--k": _INT, "--max-degree": _INT}, _cmd_cohomology),
    "identities": _Command("randomized algebraic identity suite", {
        "--seed": {"type": int},
        "--cases": {"type": int, "default": 50}},
        _cmd_identities, reads_document=False),
    "print": _Command("canonical form of the input document", {}, _cmd_print),
}


@functools.cache
def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser for ``command``, built from ``_COMMANDS`` on the
    first call for that command and shared after it.

    For a command, it holds only that subcommand, but lists every command in
    its usage line, so its help, usage and errors read as the full parser's.
    For None it is the full parser.  Parsing reads but never changes a
    parser: each ``parse_args`` call returns a fresh namespace, and help and
    usage text read ``COLUMNS`` when printed.
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
    # the full parser keeps argparse's own metavar: one would rename
    # "argument command" in its invalid-choice and missing-command errors
    listed = ({} if command is None
              else {"metavar": "{%s}" % ",".join(_COMMANDS)})
    sub = parser.add_subparsers(dest="command", required=True, **listed)
    for name in _COMMANDS if command is None else (command,):
        entry = _COMMANDS[name]
        p = sub.add_parser(name, parents=[common], help=entry.help)
        for argument, keywords in entry.arguments.items():
            p.add_argument(argument, **keywords)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.

    Repeated calls of one command in one process share its argument parser,
    built on the first of them; every call starts with an empty
    quotient-rule memo and no bivector taken as proved Poisson.
    """
    clear_quotient_memo()
    clear_poisson_memo()
    if argv is None:
        argv = sys.argv[1:]
    named = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = _build_parser(named).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        command = _COMMANDS[args.command]
        doc = _load_document(args) if command.reads_document else None
        return command.run(args, doc)
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
    except (DslError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
