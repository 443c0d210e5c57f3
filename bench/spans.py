"""Spans around mvcurl's layer boundaries, recorded from outside the package.

``Tracer.install`` wraps the functions named in ``LAYERS`` and rebinds each
wrapper in every loaded ``mvcurl`` module that imported the original, and on
the class for methods. A span records its layer, start, end, parent span and
the operation it belongs to; spans stay in memory until ``write``. A call made
while a span of the same layer is open (recursion, or a layer reached again
through another one) runs unwrapped, so each layer's spans are its outermost
calls and their times never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

# layer name -> (module, attribute path) of every function that belongs to it
LAYERS: Dict[str, List[tuple]] = {
    "ring.poly_gcd": [("mvcurl.ring", "poly_gcd")],
    "ring.RationalFunc.diff": [("mvcurl.ring", "RationalFunc.diff")],
    "ring.Polynomial.exact_div": [("mvcurl.ring", "Polynomial.exact_div")],
    "ring.RationalFunc.add": [("mvcurl.ring", "RationalFunc.__add__")],
    "ring.RationalFunc.mul": [("mvcurl.ring", "RationalFunc.__mul__")],
    "exterior.flat": [("mvcurl.exterior", "flat")],
    "exterior.sharp": [("mvcurl.exterior", "sharp")],
    "exterior.exterior_derivative": [("mvcurl.exterior", "exterior_derivative")],
    "exterior.wedge": [("mvcurl.exterior", "wedge"),
                       ("mvcurl.exterior", "_BladeSum.wedge")],
    "exterior.interior_product": [("mvcurl.exterior", "interior_product_form"),
                                  ("mvcurl.exterior", "interior_product_vector")],
    "curl.curl": [("mvcurl.curl", "curl")],
    "curl.schouten": [("mvcurl.curl", "schouten")],
    "curl.is_last_multiplier": [("mvcurl.curl", "is_last_multiplier")],
    "poisson.require_poisson": [("mvcurl.poisson", "require_poisson")],
    "poisson.unimodularity_check": [("mvcurl.poisson", "unimodularity_check")],
    "solver.assembly": [("mvcurl.solver", "collect_linear_system"),
                        ("mvcurl.solver", "collect_affine_system")],
    "solver.elimination": [("mvcurl.solver", "ExactMatrix.rank"),
                           ("mvcurl.solver", "ExactMatrix.nullspace"),
                           ("mvcurl.solver", "ExactMatrix.solve")],
    "cohomology.exact_basis": [("mvcurl.cohomology", "exact_basis")],
    "cohomology.truncated_exact_cohomology": [
        ("mvcurl.cohomology", "truncated_exact_cohomology")],
    "dsl.parse": [("mvcurl.dsl", "parse")],
    "dsl.print": [("mvcurl.dsl", "print_canonical"),
                  ("mvcurl.dsl", "value_to_json")],
    "cli.main": [("mvcurl.cli", "main")],
}


class Tracer:
    def __init__(self):
        self.layers = list(LAYERS)
        self.op = -1
        self.span_layer: List[int] = []
        self.span_parent: List[int] = []
        self.span_op: List[int] = []
        self.span_start: List[int] = []
        self.span_end: List[int] = []
        self.counters: Dict[str, int] = {"gcd_nontrivial": 0, "matrix_cells": 0,
                                         "matrix_nnz": 0, "rank_sum": 0}
        self._open = [False] * len(self.layers)
        self._stack = [-1]
        self._rebound: List[tuple] = []

    def _wrap(self, layer: int, fn: Callable,
              on_result: Optional[Callable] = None) -> Callable:
        is_open, stack = self._open, self._stack
        layer_of, parent_of, op_of = self.span_layer, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_open[layer]:
                return fn(*args, **kwargs)
            idx = len(layer_of)
            layer_of.append(layer)
            parent_of.append(stack[-1])
            op_of.append(self.op)
            ends.append(0)
            is_open[layer] = True
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
                is_open[layer] = False
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_gcd(self, g) -> None:
        if not g.is_constant():
            self.counters["gcd_nontrivial"] += 1

    def _count_rref(self, fn: Callable) -> Callable:
        counters = self.counters

        @functools.wraps(fn)
        def counted(matrix):
            reduced, pivots = fn(matrix)
            counters["matrix_cells"] += matrix.rows * matrix.cols
            counters["matrix_nnz"] += sum(1 for row in matrix.data for v in row if v)
            counters["rank_sum"] += len(pivots)
            return reduced, pivots

        return counted

    def install(self) -> None:
        """Wrap every layer function; mvcurl must already be imported."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "mvcurl" or name.startswith("mvcurl.")]
        for layer, name in enumerate(self.layers):
            hook = self._count_gcd if name == "ring.poly_gcd" else None
            for module_name, path in LAYERS[name]:
                owner = sys.modules[module_name]
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapper = self._wrap(layer, original, hook)
                if cls_path:
                    self._rebind(owner, attr, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, key, wrapper)
        matrix = sys.modules["mvcurl.solver"].ExactMatrix
        self._rebind(matrix, "_rref", self._count_rref(matrix._rref))

    def _rebind(self, owner, attr: str, value) -> None:
        self._rebound.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._rebound:
            owner, attr, original = self._rebound.pop()
            setattr(owner, attr, original)

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: outermost calls, inclusive seconds and self seconds."""
        n = len(self.layers)
        calls = [0] * n
        total = [0] * n
        child = [0] * len(self.span_layer)
        for idx, layer in enumerate(self.span_layer):
            dur = self.span_end[idx] - self.span_start[idx]
            calls[layer] += 1
            total[layer] += dur
            parent = self.span_parent[idx]
            if parent >= 0:
                child[parent] += dur
        own = [0] * n
        for idx, layer in enumerate(self.span_layer):
            own[layer] += self.span_end[idx] - self.span_start[idx] - child[idx]
        return {name: {"calls": calls[i], "time_s": total[i] / 1e9,
                       "self_s": own[i] / 1e9}
                for i, name in enumerate(self.layers)}

    def write(self, path) -> None:
        t0 = min(self.span_start, default=0)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"layers": self.layers, "counters": self.counters,
                       "spans": {"layer": self.span_layer,
                                 "parent": self.span_parent,
                                 "op": self.span_op,
                                 "start_ns": [s - t0 for s in self.span_start],
                                 "end_ns": [e - t0 for e in self.span_end]}}, fh)
