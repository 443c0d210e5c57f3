"""A CLI call builds and imports only what its command runs.

The parser of one command must print what the full parser prints; a
curl, print or lm-check call must leave ``fractions`` and the solver,
cohomology and identities modules unrun; and the printers, which render
coefficients from ints, must write what ``str(Fraction)`` writes.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mvcurl import cli
from mvcurl.dsl import _poly_to_json
from mvcurl.ring import Polynomial, grlex_key

ROOT = Path(__file__).resolve().parents[1]


def _parse(capsys, parser, argv):
    try:
        args = parser.parse_args(argv)
        code = 0
    except SystemExit as exc:
        args, code = None, exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, args


def _parser_cases():
    for name in cli._COMMANDS:
        yield [name, "--help"]
        yield [name]  # the first positional is missing, if there is one
        yield [name, "P"]  # --max-degree is missing, if it is required
        yield [name, "P", "--bogus"]
    yield ["identities", "--cases", "x"]


@pytest.mark.parametrize("columns", ["44", "72", "80"])
def test_one_command_parser_prints_what_the_full_parser_prints(
        columns, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", columns)
    full = cli._build_parser(None)
    for argv in _parser_cases():
        assert _parse(capsys, cli._build_parser(argv[0]), argv) == \
            _parse(capsys, full, argv), argv


def test_the_full_parser_names_the_command_argument(capsys):
    # a metavar on the full parser would rename it in these two errors
    for argv, message in (
            ([], "error: the following arguments are required: command\n"),
            (["bogus"], "error: argument command: invalid choice: 'bogus'")):
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["curl", "print", "lm-check"])
def test_a_call_leaves_fractions_and_the_command_modules_unrun(command):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "startup_imports.py"), command],
        capture_output=True, text=True, env=env, stdin=subprocess.DEVNULL,
        timeout=60)
    assert (probe.returncode, probe.stdout, probe.stderr) == (0, "[]\n", "")


def _fraction_text(p: Polynomial, names) -> str:
    """``Polynomial.to_string`` of a non-zero ``p``, written with
    ``str(Fraction)``."""
    pieces = []
    for exps, coeff in sorted(p.terms.items(), key=lambda t: grlex_key(t[0]),
                              reverse=True):
        factors = [names[i] if e == 1 else f"{names[i]}^{e}"
                   for i, e in enumerate(exps) if e]
        mag = abs(coeff)
        body = "*".join(factors if mag == 1 and factors
                        else [str(mag)] + factors)
        pieces.append(("-" if coeff < 0 else "+", body))
    out = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
    return out + "".join(f" {sign} {body}" for sign, body in pieces[1:])


def _fraction_json(p: Polynomial) -> list:
    return [{"exps": list(exps), "coeff": str(coeff)}
            for exps, coeff in sorted(p.terms.items(),
                                      key=lambda t: grlex_key(t[0]),
                                      reverse=True)]


# negative, unit, non-integer and constant-only coefficients
COEFFICIENTS = [-1, 1, -3, 7, Fraction(1, 2), Fraction(-5, 6), Fraction(12, 8),
                Fraction(-1, 3), 10 ** 30, Fraction(-(10 ** 20), 7)]


@pytest.mark.parametrize("seed", range(20))
def test_int_renderer_writes_what_str_fraction_writes(seed):
    rng = random.Random(seed)
    names = ["x", "y", "z"]
    polys = [Polynomial(3, {(0, 0, 0): c}) for c in COEFFICIENTS]
    for _ in range(10):
        polys.append(Polynomial(3, {
            tuple(rng.randrange(3) for _ in names): rng.choice(COEFFICIENTS)
            for _ in range(rng.randrange(1, 6))}))
    for p in polys:
        assert p.to_string(names) == _fraction_text(p, names)
        assert _poly_to_json(p) == _fraction_json(p)
