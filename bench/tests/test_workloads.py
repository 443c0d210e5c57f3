"""Workload lists: seeded, whole, and checked; plus a smoke run of each."""

import json

import pytest

import run
from workloads import WORKLOADS, CheckError


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_lists_are_seeded_and_large_enough(name):
    build = WORKLOADS[name]
    a, b, c = build(3), build(3), build(4)
    assert [(o.argv, o.doc) for o in a] == [(o.argv, o.doc) for o in b]
    assert [(o.argv, o.doc) for o in a] != [(o.argv, o.doc) for o in c]
    # at least ten operations lie beyond the 90th percentile
    assert len(a) >= 100


@pytest.mark.parametrize("name,take", [("rational-curl", 5), ("identity-laws", 2),
                                       ("lie-poisson", 12)])
def test_smoke_run_passes_every_check(name, take):
    ops = WORKLOADS[name](0)[:take]
    result = run._worker("run", {"ops": [[o.argv, o.doc] for o in ops]})
    failed, wrong, messages = run._verify(ops, result["records"])
    assert (failed, wrong) == (0, 0), messages


def test_checks_reject_wrong_outputs():
    curl_op, _, good_verdict, bad_verdict, solve_op = WORKLOADS["rational-curl"](0)[:5]
    zero = json.dumps({"kind": "mv", "grade": 1, "terms": []})
    with pytest.raises(CheckError):
        curl_op.check(zero)
    with pytest.raises(CheckError):
        good_verdict.check(json.dumps({"last_multiplier": False, "routes": 3}))
    assert bad_verdict.expect_code == 1
    one = {"kind": "func", "value": {"num": [{"exps": [0, 0], "coeff": "1"}],
                                     "den": [{"exps": [0, 0], "coeff": "1"}]}}
    with pytest.raises(CheckError):
        solve_op.check(json.dumps({"solutions": [one]}))
    coh = [o for o in WORKLOADS["lie-poisson"](0) if o.argv[0] == "cohomology"][0]
    with pytest.raises(CheckError):
        coh.check(json.dumps({"k": 0, "domain_degree_bound": 1, "dim_exact_k": 3,
                              "dim_kernel": 1, "dim_image_from_km1": 0,
                              "truncated_h_dim": 1, "caveat": True}))


def test_traced_smoke_run_repeats_its_counts(tmp_path):
    ops = WORKLOADS["lie-poisson"](0)[:3]
    job = {"ops": [[o.argv, o.doc] for o in ops],
           "trace_file": str(tmp_path / "trace.json")}
    result = run._worker("trace", job)
    metrics = run.per_layer(result)
    assert metrics["cli.main.self_s"]["value"] > 0
    assert metrics["solver.elimination.calls"]["value"] > 0
    assert metrics["solver.rank_sum"]["value"] > 0
    again = run.per_layer(run._worker("trace", job))
    counts = [k for k, m in metrics.items() if m["unit"] == "count"]
    assert {k: metrics[k]["value"] for k in counts} == \
        {k: again[k]["value"] for k in counts}
    spans = json.loads((tmp_path / "trace.json").read_text())["spans"]
    assert len(spans["layer"]) == len(spans["parent"]) == len(spans["end_ns"])
