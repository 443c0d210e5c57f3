"""Grammar fuzzer for the document language.

Seeded random documents, with every budget's edge among them, go through
``mvcurl print`` and ``mvcurl print --json`` in process.  Each must end in a
documented exit code (0, 2 or 3) within a wall bound, with no exception
escaping ``main``; a printed document must parse back to the document it
was printed from, as text and as JSON.  Each also goes through ``mvcurl
curl`` of its first ``mv`` binding, which evaluates only the bindings that
one reads: where the whole document evaluates, it must print what it
prints on the document evaluated whole.
"""

import contextlib
import io
import json
import random
import re
import sys
import time

from mvcurl import cli
from mvcurl.dsl import MAX_NESTING, MAX_POWER_DIGITS, document_from_json, parse
from mvcurl.ring import MAX_DEGREE

SEED = "dsl-fuzz"
DOCUMENTS = 240
# seconds for one document through both commands; the slowest edge takes
# about 0.1 s
WALL_BOUND_S = 3.0

COORDS = ("x", "y", "z", "w")
# so(3), sl(2) and the Heisenberg algebra on a 3-D chart, and one bracket
# that fails the Jacobi identity
LIE_BODIES = ("{2} e1^^e2 + {0} e2^^e3 + {1} e3^^e1",
              "{2} e1^^e2 - {0} e2^^e3 + {1} e3^^e1",
              "{2} e1^^e2",
              "{2} e1^^e2 + {0} e1^^e3")
# characters that are neither blanks nor line ends
STRAY = ("\u00a0", "\u0085", "\u2028", "\x1c", "!", ".")


def _edges(a, b):
    """Binding lines at each budget's edge, on coordinates a and b: the
    first of each pair is accepted, the second refused."""
    deep, deeper = MAX_NESTING, MAX_NESTING + 1
    long_literal = "9" * MAX_POWER_DIGITS
    return [
        [f"func f = {'(' * deep}{a}{')' * deep}"],
        [f"func f = {'(' * deeper}{a}{')' * deeper}"],
        [f"mv P = {'-' * deep}{a} e1"],
        [f"mv P = {'-' * deeper}{a} e1"],
        [f"func f = ({a}+{b}+1)^43"],  # 990 terms
        [f"func f = ({a}+{b}+1)^44"],  # 1035 terms
        [f"func f = ({a}+{b}-1)^-43"],
        [f"func f = {long_literal}"],
        [f"func f = {long_literal}9"],
        [f"func f = {long_literal} {a} + 1"],
        [f"func f = {long_literal} * {long_literal}"],
        [f"func f = {a}^{MAX_DEGREE}"],
        [f"func f = {a}^{MAX_DEGREE + 1}"],
        [f"func f = {a}^{MAX_DEGREE // 2} * {b}^{MAX_DEGREE // 2 + 2}"],
        [f"func f = 1e3 {a}"],
        [f"func f = {a} + 2E5"],
        [f"func f = {a}\u00a0+ {b}"],
        [f"func f = {a} + {b}\u0085"],
        [f"func f = {a}\u2028func g = {b}"],
        ["func f = 1/0"],
        [f"func f = {a}/({b} - {b})"],
        ["func n = 0", f"func f = {a}/n"],
        [f"func n = {a} - {a}", "mv P = e1/n"],
        [f"func n = {a} - {a}", "func f = 1/n", "func g = ("],
    ]


def _atom(rng, names, dim):
    """A number, a name, a basis symbol (one past the chart at times) when
    dim > 0, or a name that is unknown, a keyword or a volume."""
    roll = rng.random()
    if roll < 0.25:
        return str(rng.randint(0, 12))
    if roll < 0.65 or (roll < 0.9 and not dim):
        return rng.choice(names)
    if roll < 0.9:
        return f"{rng.choice('ed')}{rng.randint(1, dim + 1)}"
    return rng.choice(("q", "chart", "V"))


def _expr(rng, names, dim, depth):
    if depth == 0 or rng.random() < 0.3:
        return _atom(rng, names, dim)
    roll = rng.random()
    inner = _expr(rng, names, dim, depth - 1)
    if roll < 0.1:
        return f"-{inner}"
    if roll < 0.2:
        return f"({inner})^{rng.choice((-2, -1, 0, 1, 2, 3))}"
    if roll < 0.3:
        return f"({inner})"
    op = rng.choice(("+", "-", "*", "/", "^^", " ", " + ", " - "))
    return f"{inner}{op}{_expr(rng, names, dim, depth - 1)}"


def _scalar(rng, coords, funcs):
    return _expr(rng, list(coords) + funcs, 0, rng.randint(0, 3))


def _blades(rng, coords, funcs, basis, grade):
    """A sum of blades on ``basis``; one symbol in ten is of the other kind."""
    other = "d" if basis == "e" else "e"
    terms = []
    for _ in range(rng.randint(1, 3)):
        blade = "^^".join(f"{basis if rng.random() < 0.9 else other}{i}"
                          for i in sorted(rng.sample(range(1, len(coords) + 1),
                                                     grade)))
        terms.append(f"({_scalar(rng, coords, funcs)}) {blade}")
    return " + ".join(terms)


def _binding(rng, coords, funcs, index):
    """One binding line, of a kind and shape that often evaluates."""
    dim = len(coords)
    kind = rng.choice(("func", "func", "mv", "mv", "form", "volume", "lie", "raw"))
    name = f"{kind[0]}{index}"
    if kind == "func":
        funcs.append(name)
        return f"func {name} = {_scalar(rng, coords, funcs[:-1])}"
    if kind in ("mv", "form"):
        grade = rng.randint(1, dim)
        basis = "e" if kind == "mv" else "d"
        return f"{kind} {name} = {_blades(rng, coords, funcs, basis, grade)}"
    if kind == "volume":
        return f"volume {name} = {_scalar(rng, coords, funcs)}"
    if kind == "lie":
        body = rng.choice(LIE_BODIES).format(*(coords * 3))
        return f"lie {name} = {body}" if dim == 3 else f"lie {name} = {coords[0]} e1"
    names = list(coords) + funcs
    return (f"{rng.choice(('func', 'mv', 'form'))} {name} = "
            f"{_expr(rng, names, dim, rng.randint(0, 4))}")


def _mutate(rng, text):
    """Break the text at one random place: drop, insert or repeat a char."""
    at = rng.randrange(len(text))
    roll = rng.random()
    if roll < 0.4:
        return text[:at] + text[at + 1:]
    if roll < 0.8:
        return text[:at] + rng.choice(STRAY + tuple("()+-*/^=#\n\r")) + text[at:]
    return text[:at] + text[at] * 2 + text[at:]


def corpus(seed=SEED, count=DOCUMENTS):
    """``count`` documents.  Each of the first holds one budget edge and then
    random bindings; the rest hold random bindings, one in five followed by
    an edge, and one in four of them is mutated."""
    rng = random.Random(seed)
    docs = []
    for i in range(count):
        coords = COORDS[:rng.choice((1, 2, 3, 3, 4))]
        a, b = coords[0], coords[-1]
        funcs = []
        lines = ["chart " + " ".join(coords)]
        edges = _edges(a, b)
        if i < len(edges):
            lines += edges[i]
        lines += [_binding(rng, coords, funcs, j)
                  for j in range(rng.randint(0, 4))]
        if i >= len(edges) and rng.random() < 0.2:
            lines += rng.choice(edges)
        text = "\n".join(lines) + rng.choice(("\n", "", "\r\n", "\n# end\n"))
        if i >= len(edges) and rng.random() < 0.25:
            text = _mutate(rng, text)
        docs.append(text)
    return docs


def _run(argv, doc):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(doc)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _check(doc):
    """Run one document through both commands; returns the exit code."""
    start = time.perf_counter()
    code, out, err = _run(["print"], doc)
    json_code, json_out, json_err = _run(["print", "--json"], doc)
    assert time.perf_counter() - start < WALL_BOUND_S
    assert code in (0, 2, 3)
    assert (json_code, json_err) == (code, err)
    if code:
        assert out == json_out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        return code
    assert err == ""
    document = parse(doc)
    assert parse(out) == document
    assert document_from_json(json.loads(json_out)) == document
    return code


def test_every_document_ends_in_a_documented_exit():
    codes = []
    for doc in corpus():
        try:
            codes.append(_check(doc))
        except Exception as exc:  # a failed check, or one escaping main
            raise AssertionError(f"document {doc!r}") from exc
    # the corpus reaches every outcome: parsed, refused, and a zero divisor
    assert min(codes.count(0), codes.count(2)) > len(codes) // 5
    assert codes.count(3) >= 3


_FIRST_MV_RE = re.compile(r"^mv +([A-Za-z_][A-Za-z_0-9]*)", re.MULTILINE)


def _run_on_the_whole_document(argv, doc):
    """``_run`` with the command's document evaluated whole first."""
    deferred = cli.parse
    cli.parse = lambda text, **options: deferred(text)
    try:
        return _run(argv, doc)
    finally:
        cli.parse = deferred


def test_a_command_reading_one_binding_agrees_with_the_whole_document():
    compared = spared = 0
    for doc in corpus():
        first_mv = _FIRST_MV_RE.search(doc)
        argv = ["curl", first_mv.group(1)] if first_mv else ["print"]
        start = time.perf_counter()
        code, out, err = _run(argv, doc)
        assert time.perf_counter() - start < WALL_BOUND_S, doc
        assert code in (0, 1, 2, 3), doc
        assert "Traceback" not in err, doc
        try:
            parse(doc)
        except Exception:  # the whole document fails; the command may not
            spared += code == 0
            continue
        assert (code, out, err) == _run_on_the_whole_document(argv, doc), doc
        compared += first_mv is not None
    # the corpus reaches both sides: a curl on a document that evaluates
    # whole, and one that succeeds where the whole document fails
    assert min(compared, spared) >= 10
