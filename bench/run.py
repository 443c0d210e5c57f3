"""mvcurl benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 bench/run.py --workload rational-curl --seed 1 --seconds 30 --trace 0

Builds the workload's operation list from the seed, runs it in fresh worker
processes (``worker.py``), checks every output against ``oracle`` after
timing, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--seconds`` sets how many whole rounds of the list a run executes, from a
nominal round time; the clock never cuts a round short. Each round runs in a
fresh worker, with set-up samples from further fresh processes between
rounds. The timing metrics take each operation's upper quartile over the
rounds. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` one round runs untraced, traced and untraced again in one
worker, and the metrics are per layer.
Result and trace files go to ``bench/out/``. Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, CheckError

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKER_TIMEOUT_S = 170
MIN_ROUNDS = 3
SETUP_PER_GAP = 3

# Nominal seconds of one round of every workload on the reference machine
# (see README.md).
ROUND_SECONDS = 6.0

UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
         "peak_rss_mb": "MB", "setup_s": "s"}

# layer -> the per-layer measurements reported for it
LAYER_METRICS = {
    "ring.poly_gcd": ("calls", "time_s"),
    "ring.RationalFunc.diff": ("calls", "time_s"),
    "ring.Polynomial.exact_div": ("calls", "time_s"),
    "ring.RationalFunc.add": ("calls", "time_s"),
    "ring.RationalFunc.mul": ("calls", "time_s"),
    "exterior.flat": ("calls", "time_s"),
    "exterior.sharp": ("calls", "time_s"),
    "exterior.exterior_derivative": ("calls", "time_s"),
    "exterior.wedge": ("calls", "time_s"),
    "exterior.interior_product": ("calls", "time_s"),
    "curl.curl": ("calls", "self_s"),
    "curl.schouten": ("calls", "time_s"),
    "curl.is_last_multiplier": ("calls", "self_s"),
    "poisson.require_poisson": ("calls", "time_s"),
    "poisson.unimodularity_check": ("time_s",),
    "solver.assembly": ("calls", "time_s"),
    "solver.elimination": ("calls", "time_s"),
    "cohomology.exact_basis": ("calls", "time_s"),
    "cohomology.truncated_exact_cohomology": ("self_s",),
    "dsl.parse": ("time_s",),
    "dsl.print": ("time_s",),
    "cli.main": ("self_s",),
}


def _worker(mode: str, job=None) -> dict:
    # mvcurl's bytecode is cached as for an installed package: the first
    # process of a fresh checkout writes src/mvcurl/__pycache__, later ones
    # import from it, whatever PYTHONDONTWRITEBYTECODE says
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), mode],
        input=None if job is None else json.dumps(job),
        capture_output=True, text=True, cwd=ROOT, timeout=WORKER_TIMEOUT_S,
        env={**env, "PYTHONHASHSEED": "0"})
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _verify(ops, records):
    """Count failed operations, and check the output of every other one."""
    failed, wrong, messages = 0, 0, []
    for i, (code, _, stdout, stderr) in enumerate(records):
        op = ops[i % len(ops)]
        if code != op.expect_code:
            failed += 1
            messages.append(f"{' '.join(op.argv)}: exit {code}: {stderr.strip()}")
            continue
        try:
            op.check(stdout)
        except (CheckError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            wrong += 1
            messages.append(f"{' '.join(op.argv)}: {type(exc).__name__}: {exc}")
    return failed, wrong, messages


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(rounds, setup_times) -> dict:
    """Timing metrics from each operation's upper quartile over the rounds.

    The host's noise is one-sided: the shared core runs at one steady speed
    most of the time and up to 1.8x faster in bursts of seconds. The upper
    quartile of an operation's times tracks the steady speed, where a median
    or a mean moves with the share of bursts in a run (see README.md).
    """
    per_op = [_percentile([r["records"][i][1] for r in rounds], 0.75)
              for i in range(len(rounds[0]["records"]))]
    values = {
        "ops_per_s": len(per_op) / sum(per_op),
        "latency_p50_ms": statistics.median(per_op) * 1e3,
        "latency_p90_ms": _percentile(per_op, 0.9) * 1e3,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
        "setup_s": statistics.median(setup_times),
    }
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}


def per_layer(result: dict) -> dict:
    layers, counters = result["layers"], result["counters"]
    out = {}
    for layer, kinds in LAYER_METRICS.items():
        for kind in kinds:
            unit = "count" if kind == "calls" else "s"
            out[f"{layer}.{kind}"] = {"value": layers[layer][kind], "unit": unit}
    gcd_calls = layers["ring.poly_gcd"]["calls"]
    out["ring.poly_gcd.nontrivial_ratio"] = {
        "value": counters["gcd_nontrivial"] / gcd_calls if gcd_calls else 0.0,
        "unit": "ratio"}
    for name in ("matrix_cells", "matrix_nnz", "rank_sum"):
        out[f"solver.{name}"] = {"value": counters[name], "unit": "count"}
    untraced = sum(r[1] for r in result["records"]) / 2
    traced = sum(r[1] for r in result["traced_records"])
    out["trace.overhead_ratio"] = {"value": traced / untraced, "unit": "ratio"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mvcurl" / "cli.py").is_file():
        print(f"error: no mvcurl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    ops = WORKLOADS[args.workload](args.seed)
    rounds = max(MIN_ROUNDS, round(args.seconds / ROUND_SECONDS))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    job = {"ops": [[op.argv, op.doc] for op in ops],
           "trace_file": str(OUT / f"{stem}.trace.json")}
    try:
        if args.trace:
            result = _worker("trace", job)
            records = result["records"] + result["traced_records"]
            metrics = per_layer(result)
        else:
            # set-up samples between the rounds and around them, so that
            # their median spans the run rather than one moment of it
            setup, results = [], []
            for _ in range(rounds):
                setup += [_worker("setup") for _ in range(SETUP_PER_GAP)]
                results.append(_worker("run", job))
            setup += [_worker("setup") for _ in range(SETUP_PER_GAP)]
            if any(s["code"] != 0 for s in setup + results):
                raise RuntimeError("warm-up call failed")
            records = [rec for r in results for rec in r["records"]]
            metrics = end_to_end(results, [s["setup_s"] for s in setup + results])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError,
            IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed, wrong, messages = _verify(ops, records)
    for line in messages[:20]:
        print(line, file=sys.stderr)
    summary = {"correct": wrong == 0, "attempted": len(records),
               "failed": failed, "metrics": metrics}
    with open(OUT / f"{stem}.result.json", "w", encoding="utf-8") as fh:
        json.dump({**summary, "workload": args.workload, "seed": args.seed,
                   "rounds": len(records) // len(ops),
                   "op_seconds": [r[1] for r in records]}, fh, indent=1)
    print(f"{args.workload}: attempted {len(records)}, failed {failed}, "
          f"correct {summary['correct']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
