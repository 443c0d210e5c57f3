"""What one CLI call loads, checked in a fresh interpreter.

    PYTHONPATH=src python tests/startup_imports.py curl|print|lm-check

runs ``mvcurl.cli.main`` on the command, as text and then as JSON, on a
small planar document, prints the modules of ``WATCHED`` whose code has run
as a JSON list, and exits 1 if there are any (2 if a call fails).  It needs
no test dependency, so it runs on any Python the package supports.

The CLI puts ``mvcurl.solver``, ``mvcurl.cohomology`` and
``mvcurl.identities`` in ``sys.modules`` before they run: each stays an
``importlib.util`` lazy module, not a plain module, until its first use.
So a module counts as run when ``sys.modules`` holds it as a plain module.
"""

import contextlib
import io
import json
import sys
from types import ModuleType

WATCHED = ("fractions", "decimal", "mvcurl.solver", "mvcurl.cohomology",
           "mvcurl.identities")

DOCUMENT = """\
chart x y
volume V = 1
func h = x^2 + 3*y^2/4 - 1
func m = 1/h
mv P = h e1^^e2
"""

COMMANDS = {"curl": ["curl", "P"], "print": ["print"],
            "lm-check": ["lm-check", "m", "P"]}


def main(argv) -> int:
    from mvcurl.cli import main as cli_main
    for extra in ([], ["--json"]):
        sys.stdin = io.StringIO(DOCUMENT)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(COMMANDS[argv[0]] + extra)
        if code != 0:
            print(f"mvcurl {argv[0]} exited {code}", file=sys.stderr)
            return 2
    ran = [name for name in WATCHED
           if type(sys.modules.get(name)) is ModuleType]
    print(json.dumps(ran))
    return 1 if ran else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
