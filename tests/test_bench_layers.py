"""The benchmark's layer tracer names mvcurl functions by string; every name
must still resolve, or ``bench/run.py --trace 1`` breaks at install time.
Its solver counters read the matrices the solver eliminates, so they are
pinned here on one small command."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

import mvcurl.cli

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_layers():
    return load_spans().LAYERS


@pytest.mark.parametrize("module_name, path", [
    target for targets in load_layers().values() for target in targets])
def test_layer_function_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_traced_solver_counters_are_pinned(tmp_path, capsys):
    # values taken with dense matrix rows, before the rows became sparse
    path = tmp_path / "so3.mv"
    path.write_text("chart x y z\nlie g = z e1^^e2 - y e1^^e3 + x e2^^e3\n")
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        code = mvcurl.cli.main(["cohomology", "g", "--k", "2", "--max-degree",
                                "3", "--json", "--input", str(path)])
    finally:
        tracer.uninstall()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["truncated_h_dim"] == 2
    counters = tracer.counters
    assert (counters["matrix_cells"], counters["matrix_nnz"],
            counters["rank_sum"]) == (9540, 420, 104)
    layers = tracer.layer_totals()
    assert layers["solver.assembly"]["calls"] == 2
    assert layers["solver.elimination"]["calls"] == 4
