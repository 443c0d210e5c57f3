"""The runtime is stdlib-only: importing the CLI in a fresh interpreter loads
no top-level module from outside the standard library and ``mvcurl``, so no
optional accelerator (gmpy2, sympy, flint, ...) can creep into the kernel."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """\
import json, sys
before = set(sys.modules)
import mvcurl.cli
print(json.dumps(sorted({m.partition(".")[0] for m in set(sys.modules) - before})))
"""


def test_cli_import_loads_only_stdlib_and_mvcurl():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          text=True, env=env, check=True)
    loaded = json.loads(proc.stdout)
    assert "mvcurl" in loaded
    foreign = [m for m in loaded
               if m != "mvcurl" and m not in sys.stdlib_module_names]
    assert foreign == []
