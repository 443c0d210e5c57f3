"""One fresh process per measurement: imports mvcurl from the checkout's
``src`` and drives ``mvcurl.cli.main(argv)`` in process.

    python3 bench/worker.py setup          time import + one warm-up call
    python3 bench/worker.py run   < job    the same, then one round of the job
    python3 bench/worker.py trace < job    the same, one round untraced, traced, untraced

A job is JSON on stdin: ``{"ops": [[argv, doc], ...], "trace_file": path}``.
Each operation gets its document on stdin and its stdout captured, as a
shell pipeline would. The result is one JSON object on
stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WARMUP = (["curl", "P", "--json"], "chart x y\nmv P = x^2 y e1^^e2\n")


def call(argv, doc):
    """Run one CLI invocation; returns (exit code, seconds, stdout, stderr).

    An exception escaping ``main`` counts as a failed operation (code None).
    """
    import mvcurl.cli  # looked up per call, so a traced pass reaches the wrapper
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(doc or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = mvcurl.cli.main(argv)
            except Exception as exc:
                code = None
                err.write(f"{type(exc).__name__}: {exc}")
            elapsed = perf_counter() - t0
    finally:
        sys.stdin = saved
    return code, elapsed, out.getvalue(), err.getvalue()


def run_round(ops, tracer=None):
    records = []
    for i, (argv, doc) in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        records.append(call(argv, doc))
    return records


def main() -> int:
    mode = sys.argv[1]
    job = None if mode == "setup" else json.load(sys.stdin)
    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    import mvcurl.cli  # noqa: F401  (the import is part of what is timed)
    code = call(*WARMUP)[0]
    result = {"setup_s": perf_counter() - t0, "code": code}
    if mode == "setup":
        print(json.dumps(result))
        return 0
    ops = [tuple(op) for op in job["ops"]]
    result["records"] = run_round(ops)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if mode == "trace":
        # untraced, traced, untraced: the overhead ratio divides by the mean
        # of the two untraced rounds, which cancels a steady drift in speed
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        result["traced_records"] = run_round(ops, tracer)
        tracer.uninstall()
        result["records"] += run_round(ops)
        result["layers"] = tracer.layer_totals()
        result["counters"] = tracer.counters
        tracer.write(job["trace_file"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
