"""Golden corpus: canonical output of each document is frozen byte for byte.

Regenerating an .out file is a deliberate act; any drift in printing,
parsing, or normalization shows up here first.  The ``*.solvers.out`` files
freeze the solver commands on the three Lie-Poisson documents the same way,
the ``*.lm.out`` files the last-multiplier commands on every document with
an ``mv`` binding, and the ``*.curl.out`` files the curl, divergence and
modular-field commands on every document with an ``mv`` or ``lie`` binding.
"""

import importlib.util
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mvcurl import cli
from mvcurl.dsl import document_from_json, document_to_json, parse, print_canonical

GOLDEN_DIR = Path(__file__).parent / "golden"
SOURCES = sorted(GOLDEN_DIR.glob("*.mv"))


def test_corpus_is_large_enough() -> None:
    assert len(SOURCES) >= 15


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.stem)
def test_canonical_output_matches_frozen(source: Path) -> None:
    doc = parse(source.read_text())
    expected = source.with_suffix(".out").read_text()
    assert print_canonical(doc) == expected


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.stem)
def test_canonical_output_round_trips(source: Path) -> None:
    doc = parse(source.read_text())
    canonical = print_canonical(doc)
    reparsed = parse(canonical)
    assert reparsed == doc
    # printing is idempotent on its own output
    assert print_canonical(reparsed) == canonical


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.stem)
def test_json_round_trips(source: Path) -> None:
    doc = parse(source.read_text())
    payload = document_to_json(doc)
    assert document_from_json(payload) == doc


# Each ``$ mvcurl <args>`` line in a solvers file is followed by the stdout
# of ``mvcurl <args> --input <name>.mv``; CI replays the same lines with cmp.
SOLVER_DOCUMENTS = ["so3", "sl2", "heisenberg"]
SOLVER_COMMANDS = [
    f"{command} g --max-degree {d}{json}"
    for command in ("casimir", "lm-solve", "unimodular")
    for d in range(1, 5) for json in ("", " --json")
] + [
    f"cohomology g --k {k} --max-degree {d}{json}"
    for k in range(4) for d in range(1, 4) for json in ("", " --json")
] + [
    # the largest ansatz each solver accepts: 1,771 functions, 1,680
    # grade-1 or grade-2 multivectors (MAX_ANSATZ_SIZE is 2,000)
    f"{command} g --max-degree 20"
    for command in ("casimir", "lm-solve", "unimodular")
] + [
    f"cohomology g --k {k} --max-degree {d}" for k, d in ((0, 20), (1, 13), (2, 13))
]


@pytest.mark.parametrize("name", SOLVER_DOCUMENTS)
def test_solver_outputs_match_frozen(name: str, capsys) -> None:
    source = GOLDEN_DIR / f"{name}.mv"
    out = []
    for command in SOLVER_COMMANDS:
        code = cli.main(command.split() + ["--input", str(source)])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, ""), command
        out.append(f"$ mvcurl {command}\n{captured.out}")
    assert "".join(out) == (GOLDEN_DIR / f"{name}.solvers.out").read_text()


# documents whose lm-solve of P also runs over an ansatz denominator: the
# func binding named here, x, x^2 + y^2 + 1, x and y in turn
LM_DENOMINATORS = {"hrecip_x": "h", "hrecip_poly": "h", "case2": "q",
                   "case3": "q"}


def lm_commands(source: Path) -> list:
    """``lm-check f A`` for each func f and mv A, then ``lm-solve A
    --max-degree 2`` for each mv A, then ``lm-solve P --max-degree 2
    --denominator h`` where ``LM_DENOMINATORS`` names h, each as text and
    JSON."""
    bindings = parse(source.read_text()).bindings
    funcs = [b.name for b in bindings if b.kind == "func"]
    fields = [b.name for b in bindings if b.kind == "mv"]
    solves = [f"lm-solve {a} --max-degree 2" for a in fields]
    if source.stem in LM_DENOMINATORS:
        solves.append("lm-solve P --max-degree 2 --denominator "
                      + LM_DENOMINATORS[source.stem])
    return [f"lm-check {f} {a}{json}" for f in funcs for a in fields
            for json in ("", " --json")] + [
        f"{solve}{json}" for solve in solves for json in ("", " --json")]


# taken from the frozen file names, so that collecting this module parses
# no document: a parse that hangs fails its own test instead
LM_SOURCES = [GOLDEN_DIR / p.name.replace(".lm.out", ".mv")
              for p in sorted(GOLDEN_DIR.glob("*.lm.out"))]


def test_every_lm_golden_has_a_document() -> None:
    assert LM_SOURCES == [s for s in SOURCES if lm_commands(s)]
    assert sum(len(lm_commands(s)) for s in LM_SOURCES) == 86


def test_collecting_this_module_parses_no_document(monkeypatch) -> None:
    def refuse(text):
        raise AssertionError("a golden document was parsed at import")

    monkeypatch.setattr("mvcurl.dsl.parse", refuse)
    spec = importlib.util.spec_from_file_location("golden_again", __file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.LM_SOURCES == LM_SOURCES
    assert module.CURL_SOURCES == CURL_SOURCES


@pytest.mark.parametrize("source", LM_SOURCES, ids=lambda p: p.stem)
def test_lm_outputs_match_frozen(source: Path, capsys) -> None:
    out = []
    for command in lm_commands(source):
        code = cli.main(command.split() + ["--input", str(source)])
        captured = capsys.readouterr()
        assert code in (0, 1) and captured.err == "", command
        out.append(f"$ mvcurl {command}\n{captured.out}")
    assert "".join(out) == source.with_suffix(".lm.out").read_text()


def curl_commands(source: Path) -> list:
    """``curl A`` for each mv or lie binding A, ``div A`` for the grade-1
    ones and ``modular A`` for the lie ones, each first with the default
    volume and then with ``--volume V`` for each volume binding V, each as
    text and JSON."""
    bindings = parse(source.read_text()).bindings
    volumes = [""] + [f" --volume {b.name}" for b in bindings
                      if b.kind == "volume"]
    commands = []
    for b in bindings:
        if b.kind in ("mv", "lie"):
            commands.append(f"curl {b.name}")
            if b.value.grade == 1:
                commands.append(f"div {b.name}")
            if b.kind == "lie":
                commands.append(f"modular {b.name}")
    return [command + volume + json for command in commands
            for volume in volumes for json in ("", " --json")]


CURL_SOURCES = [GOLDEN_DIR / p.name.replace(".curl.out", ".mv")
                for p in sorted(GOLDEN_DIR.glob("*.curl.out"))]


def test_every_curl_golden_has_a_document() -> None:
    assert CURL_SOURCES == [s for s in SOURCES if curl_commands(s)]
    assert sum(len(curl_commands(s)) for s in CURL_SOURCES) == 92


@pytest.mark.parametrize("source", CURL_SOURCES, ids=lambda p: p.stem)
def test_curl_outputs_match_frozen(source: Path, capsys) -> None:
    out = []
    for command in curl_commands(source):
        code = cli.main(command.split() + ["--input", str(source)])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, ""), command
        out.append(f"$ mvcurl {command}\n{captured.out}")
    assert "".join(out) == source.with_suffix(".curl.out").read_text()


# pairs on which GCDHEU gives up, so that interpolation finds the gcd: two
# coprime pairs, and three that share a factor, one with 300-digit
# coefficients.  Each once took from 15 s to over a minute; the bound
# catches a gcd cliff that returns.
@pytest.mark.parametrize("name", ["gcd_cliff_3var", "gcd_cliff_4var",
                                  "gcd_shared_3var", "gcd_shared_4var",
                                  "gcd_shared_300digit"])
def test_gcd_cliff_documents_print_within_the_wall_bound(name: str) -> None:
    source = GOLDEN_DIR / f"{name}.mv"
    env = dict(os.environ,
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    start = time.perf_counter()
    fresh = subprocess.run(
        [sys.executable, "-m", "mvcurl.cli", "print", "--input", str(source)],
        capture_output=True, text=True, env=env, stdin=subprocess.DEVNULL,
        timeout=5)
    assert time.perf_counter() - start < 5.0
    assert (fresh.returncode, fresh.stderr) == (0, "")
    assert fresh.stdout == source.with_suffix(".out").read_text()
