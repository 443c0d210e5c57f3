"""Frozen error corpus: the exit code and stderr of ``mvcurl print`` on
broken and borderline documents, byte for byte.

``golden/dsl_errors.out`` holds one entry per document::

    $ mvcurl print < DOC
    <stderr of the command>
    exit <code>

DOC is the document in ``printf %b`` escapes: ``\\n``, ``\\r``, ``\\t``,
``\\\\`` and ``\\0ooo`` for each other byte of its UTF-8 outside printable
ASCII, so CI can replay the file through the CLI with a shell loop and
``cmp``.  The documents are the seeded fuzz corpus, each budget-edge line of
the fuzzer, and seeded one-character mutations of the golden ``*.mv``
documents.  The error text and its (line, column) are the contract of the
text front end; regenerating the file is a deliberate act::

    PYTHONPATH=src python tests/test_dsl_errors.py
"""

import contextlib
import io
import random
import re
import sys
from pathlib import Path

from mvcurl import cli

GOLDEN_DIR = Path(__file__).parent / "golden"
FROZEN = GOLDEN_DIR / "dsl_errors.out"
PROMPT = "$ mvcurl print < "
MUTATIONS_PER_DOCUMENT = 10
# golden documents added after the corpus was frozen: mutating them would
# shift every later seeded mutation, so the corpus leaves them out
NOT_MUTATED = {"gcd_cliff_3var", "gcd_cliff_4var", "gcd_shared_3var",
               "gcd_shared_4var", "gcd_shared_300digit", "lm_heavy_2d",
               "lm_heavy_3d"}
# what a mutation swaps in for one character
SWAPS = ("(", ")", "^", "^^", "-", "0", "7", "\u00a0", "\u2028", "!", ".")
_NAMED = {"\n": "\\n", "\r": "\\r", "\t": "\\t", "\\": "\\\\"}
_ESCAPE_RE = re.compile(rb"\\(0[0-7]{3}|[nrt\\])")
_BYTES = {b"n": b"\n", b"r": b"\r", b"t": b"\t", b"\\": b"\\"}


def encode(doc: str) -> str:
    out = []
    for ch in doc:
        if ch in _NAMED:
            out.append(_NAMED[ch])
        elif " " <= ch <= "~":
            out.append(ch)
        else:
            out.extend(f"\\0{b:03o}" for b in ch.encode("utf-8"))
    return "".join(out)


def decode(line: str) -> str:
    def byte(m):
        esc = m.group(1)
        return _BYTES.get(esc) or bytes([int(esc, 8)])
    return _ESCAPE_RE.sub(byte, line.encode("ascii")).decode("utf-8")


def _mutations(rng, text):
    """Delete, duplicate or swap out one character of the text."""
    for _ in range(MUTATIONS_PER_DOCUMENT):
        at = rng.randrange(len(text))
        roll = rng.random()
        if roll < 0.3:
            yield text[:at] + text[at + 1:]
        elif roll < 0.5:
            yield text[:at] + text[at] * 2 + text[at + 1:]
        else:
            yield text[:at] + rng.choice(SWAPS) + text[at + 1:]


def documents():
    """The fuzz corpus, one document per budget edge, then the mutations."""
    from test_dsl_fuzz import _edges, corpus
    docs = corpus()
    docs += ["chart x y\n" + "\n".join(lines) + "\n" for lines in _edges("x", "y")]
    rng = random.Random("dsl-errors")
    for source in sorted(GOLDEN_DIR.glob("*.mv")):
        if source.stem not in NOT_MUTATED:
            docs += _mutations(rng, source.read_text())
    return docs


def run(doc: str) -> str:
    """One entry: ``mvcurl print`` on the document as stdin, which reads it
    with universal newlines as the CLI's own stdin does."""
    err = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(doc, newline=None)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(["print"])
    finally:
        sys.stdin = saved
    return f"{PROMPT}{encode(doc)}\n{err.getvalue()}exit {code}\n"


def test_escapes_round_trip():
    doc = "chart x y\r\nfunc f = x\u00a0+ \\y\t\u2028\x1c'\n"
    assert decode(encode(doc)) == doc
    assert encode(doc).isascii()


def test_error_corpus_matches_frozen():
    frozen = FROZEN.read_text()
    docs = [decode(line[len(PROMPT):]) for line in frozen.splitlines()
            if line.startswith(PROMPT)]
    assert len(docs) > 400
    assert "".join(map(run, docs)) == frozen


def test_frozen_corpus_is_what_regeneration_writes():
    frozen = FROZEN.read_text().splitlines()
    assert documents() == [decode(line[len(PROMPT):]) for line in frozen
                           if line.startswith(PROMPT)]


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    FROZEN.write_text("".join(map(run, documents())))
