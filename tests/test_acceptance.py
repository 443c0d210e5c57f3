"""Acceptance suite: one test per release criterion, all exact (zero tolerance).

Each test prints a single "criterion NN: PASS" line on success; under
``pytest -v`` the test names themselves give the per-criterion verdict.
Random data uses one frozen seed so failures reproduce byte for byte.
"""

import json
import random
import time
from pathlib import Path

from mvcurl.cli import main
from mvcurl.cohomology import (exact_basis, lichnerowicz_delta,
                               truncated_exact_cohomology)
from mvcurl.curl import (curl, divergence, first_integral_check, is_exact,
                         is_last_multiplier, last_multiplier_residual,
                         schouten, vector_apply)
from mvcurl.dsl import parse, print_canonical
from mvcurl.exterior import Chart, Multivector, VolumeForm, wedge
from mvcurl.identities import (DEFAULT_SEED, random_chart, random_multiplier,
                               random_multivector, random_polynomial,
                               random_volume, run_identity_suite)
from mvcurl.poisson import (StructureConstants, hamiltonian_field, lie_poisson,
                            lm_system_residuals, modular_field)
from mvcurl.ring import Polynomial, RationalFunc
from mvcurl.solver import (AnsatzSpace, ExactMatrix, MonomialSpace,
                           casimir_solve, function_span_contains,
                           function_spans_equal, lm_solve,
                           vector_span_contains)

ACCEPT_SEED = 20260823
GOLDEN_DIR = Path(__file__).parent / "golden"


def _var(n: int, i: int) -> RationalFunc:
    return RationalFunc(Polynomial.variable(n, i))


def _const(n: int, c) -> RationalFunc:
    return RationalFunc.constant(n, c)


def _unit_volume(chart: Chart) -> VolumeForm:
    return VolumeForm(chart, chart.one_rf())


def _planar_symplectic():
    chart = Chart(["x", "y"])
    return chart, Multivector(chart, 2, {0b11: chart.one_rf()})


def _so3_bivector():
    constants = StructureConstants(
        3, {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1})
    return lie_poisson(constants)


ZOO = [
    StructureConstants(2, {}),
    StructureConstants(2, {(0, 1, 1): 1}),
    StructureConstants(3, {(0, 1, 2): 1}),
    StructureConstants(3, {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1}),
    StructureConstants(3, {(0, 1, 1): 2, (0, 2, 2): -2, (1, 2, 0): 1}),
    StructureConstants(3, {(0, 1, 2): 1, (0, 2, 1): 1}),
]


def test_criterion_01_exact_identity_suite():
    names = ["scaled-curl-compatibility", "curl-wedge-vs-schouten",
             "curl-derivation-law", "curl-squared-zero", "d-squared-zero",
             "contraction-duality"]
    start = time.monotonic()
    results = run_identity_suite(seed=DEFAULT_SEED, cases=200, names=names)
    elapsed = time.monotonic() - start
    assert [r.name for r in results] == names
    for r in results:
        assert r.cases == 200 and r.failures == 0, r
    assert elapsed < 60.0, f"identity suite took {elapsed:.1f}s"
    print(f"criterion 01: PASS (6 identities x 200 cases, {elapsed:.1f}s)")


def test_criterion_02_three_route_multiplier_agreement():
    # is_last_multiplier raises if its three routes ever disagree, so every
    # completed verdict below is a unanimity witness
    rng = random.Random(ACCEPT_SEED)
    verdicts = []

    for _ in range(25):  # reciprocal of the coefficient, always a multiplier
        chart = Chart(["x", "y"])
        vol = _unit_volume(chart)
        h = RationalFunc(random_polynomial(rng, 2, allow_zero=False))
        a = Multivector(chart, 2, {0b11: h})
        assert is_last_multiplier(vol, h.inverse(), a)
        verdicts.append(True)

    count = 0
    while count < 25:  # image of the rescaled curl, multiplier by design
        chart = random_chart(rng)
        vol = random_volume(rng, chart)
        m = random_multiplier(rng, chart.dim)
        c = random_multivector(rng, chart, rng.randint(1, min(3, chart.dim)))
        a = curl(vol.scaled(m), c)
        if a.is_zero():
            continue
        assert is_last_multiplier(vol, m, a)
        verdicts.append(True)
        count += 1

    count = 0
    while count < 25:  # function of the energy along its own flow
        chart, pi = _planar_symplectic()
        vol = _unit_volume(chart)
        h = RationalFunc(random_polynomial(rng, 2, allow_zero=False))
        x = hamiltonian_field(pi, h)
        if x.is_zero():
            continue
        m = h * h + _const(2, 1)
        assert is_last_multiplier(vol, m, x)
        verdicts.append(True)
        count += 1

    for _ in range(25):  # unstructured draws, almost always rejected
        chart = random_chart(rng)
        vol = random_volume(rng, chart)
        m = random_multiplier(rng, chart.dim)
        a = random_multivector(rng, chart, rng.randint(1, min(3, chart.dim)))
        verdicts.append(is_last_multiplier(vol, m, a))

    assert len(verdicts) == 100
    rejected = verdicts.count(False)
    assert rejected >= 15, f"only {rejected} negative verdicts"
    print(f"criterion 02: PASS (100 triples, {rejected} negative, "
          "3/3 routes unanimous)")


def test_criterion_03_planar_reciprocal_family():
    chart = Chart(["x", "y"])
    vol = _unit_volume(chart)
    x, y = _var(2, 0), _var(2, 1)
    one = chart.one_rf()
    samples = [x * x + y * y + one, x, x * x + one, x + y + one, x * y]
    constant_bivector = Multivector(chart, 2, {0b11: one})
    for h in samples:
        pi = Multivector(chart, 2, {0b11: h})
        m = h.inverse()
        res = lm_system_residuals(vol, m, pi)
        assert all(r.is_zero() for r in res), h
        assert pi.scale(m) == constant_bivector
        space = AnsatzSpace(chart, 0, denominator=h.num)
        sols = lm_solve(vol, pi, space)
        assert len(sols) == 1
        assert function_spans_equal(sols, [m])
    print("criterion 03: PASS (5 reciprocal multipliers, "
          "each solution space 1-dimensional)")


def test_criterion_04_linear_planar_case_analysis():
    chart = Chart(["x", "y"])
    vol = _unit_volume(chart)
    x, y = _var(2, 0), _var(2, 1)

    for c1 in (1, 2):  # second constant zero: multiples of 1/x
        pi = Multivector(chart, 2, {0b11: x * _const(2, c1)})
        sols = lm_solve(vol, pi, AnsatzSpace(
            chart, 1, denominator=Polynomial.variable(2, 0)))
        assert function_spans_equal(sols, [x.inverse()]), c1

    for c2 in (1, 2):  # first constant zero: multiples of 1/y
        pi = Multivector(chart, 2, {0b11: y * _const(2, c2)})
        sols = lm_solve(vol, pi, AnsatzSpace(
            chart, 1, denominator=Polynomial.variable(2, 1)))
        assert function_spans_equal(sols, [y.inverse()]), c2

    for c1 in (1, 2):  # both non-zero: no polynomial multiplier at all
        for c2 in (1, 2):
            coeff = x * _const(2, c1) + y * _const(2, c2)
            pi = Multivector(chart, 2, {0b11: coeff})
            assert lm_solve(vol, pi, AnsatzSpace(chart, 3)) == []
    print("criterion 04: PASS (span{1/x}, span{1/y}, "
          "zero-only polynomial case)")


def test_criterion_05_linear_residual_formulas():
    chart = Chart(["x", "y"])
    vol = _unit_volume(chart)
    x, y = _var(2, 0), _var(2, 1)
    m_pool = [x, y, x + y, x * x, x * y + _const(2, 1), x + _const(2, 2),
              (x + _const(2, 1)).inverse(), x / (y + _const(2, 2)),
              (x + y) / (x * y + _const(2, 3)), y * y / (x + _const(2, 1))]
    c_pool = [(1, 1), (1, 2), (2, 1), (2, 3), (3, 1),
              (1, 3), (2, 2), (5, 2), (1, 4), (3, 3)]
    for m, (c1, c2) in zip(m_pool, c_pool):
        coeff = x * _const(2, c1) + y * _const(2, c2)
        pi = Multivector(chart, 2, {0b11: coeff})
        r0, r1 = lm_system_residuals(vol, m, pi)
        assert r0 == m * _const(2, c2) + m.diff(1) * coeff
        assert r1 == _const(2, -1) * (m * _const(2, c1) + m.diff(0) * coeff)
    print("criterion 05: PASS (10 symbolic residual pairs match)")


def _coordinate_modular(pi: Multivector) -> Multivector:
    """Divergence-of-rows formula, valid for the standard volume."""
    chart = pi.chart
    n = chart.dim
    comps = {}
    zero = _const(n, 0)
    for mask, c in pi.sorted_terms():
        i = (mask & -mask).bit_length() - 1
        j = mask.bit_length() - 1
        comps[i] = comps.get(i, zero) + c.diff(j)
        comps[j] = comps.get(j, zero) - c.diff(i)
    terms = {1 << i: v for i, v in comps.items() if not v.is_zero()}
    return Multivector(chart, 1, terms)


def _random_poisson(rng: random.Random, k: int) -> Multivector:
    if k % 2 == 0:
        chart = Chart(["x", "y"])
        h = RationalFunc(random_polynomial(rng, 2, allow_zero=False))
        return Multivector(chart, 2, {0b11: h})
    constants = ZOO[k % len(ZOO)]
    pi = lie_poisson(constants)
    return pi.scale(_const(pi.chart.dim, rng.randint(1, 3)))


def test_criterion_06_modular_dual_route_and_divergence():
    rng = random.Random(ACCEPT_SEED + 6)
    for k in range(50):
        pi = _random_poisson(rng, k)
        vol = _unit_volume(pi.chart)
        assert modular_field(vol, pi) == _coordinate_modular(pi), k

    for k in range(50):
        pi = _random_poisson(rng, k)
        chart = pi.chart
        if k % 5 == 0:  # exercise a non-flat volume as well
            density = _var(chart.dim, 0) ** 2 + chart.one_rf()
            vol = VolumeForm(chart, density)
        else:
            vol = _unit_volume(chart)
        f = RationalFunc(random_polynomial(rng, chart.dim, allow_zero=False))
        lhs = divergence(vol, hamiltonian_field(pi, f))
        rhs = vector_apply(modular_field(vol, pi), f)
        assert lhs == rhs, k
    print("criterion 06: PASS (50 dual-route + 50 divergence identities)")


def test_criterion_07_closure_laws():
    rng = random.Random(ACCEPT_SEED + 7)

    nonzero_brackets = 0
    for k in range(36):  # bracket of two m-multiplier multivectors
        chart = Chart(["x", "y"] if k % 2 else ["x", "y", "z"])
        vol = random_volume(rng, chart)
        m = random_multiplier(rng, chart.dim)
        scaled = vol.scaled(m)
        a = curl(scaled, random_multivector(
            rng, chart, rng.randint(1, min(3, chart.dim))))
        b = curl(scaled, random_multivector(
            rng, chart, rng.randint(1, min(3, chart.dim))))
        bracket = schouten(a, b)
        assert last_multiplier_residual(vol, m, bracket).is_zero(), k
        if not bracket.is_zero():
            nonzero_brackets += 1
    assert nonzero_brackets >= 10

    both = {True: 0, False: 0}
    for k in range(36):  # wedge of exact factors exact iff they commute
        chart = random_chart(rng)
        vol = random_volume(rng, chart)
        a = curl(vol, random_multivector(
            rng, chart, rng.randint(1, min(3, chart.dim))))
        b = curl(vol, random_multivector(
            rng, chart, rng.randint(1, min(3, chart.dim))))
        verdict = is_exact(vol, wedge(a, b))
        assert verdict == schouten(a, b).is_zero(), k
        both[verdict] += 1
    assert both[True] >= 5 and both[False] >= 5, both

    both = {True: 0, False: 0}
    for k in range(36):  # f * (exact A) exact iff the bracket with f dies
        chart = random_chart(rng)
        vol = random_volume(rng, chart)
        a = curl(vol, random_multivector(
            rng, chart, rng.randint(2, min(3, chart.dim))))
        if k % 3 == 0:
            f = _const(chart.dim, rng.randint(1, 4))
        else:
            f = RationalFunc(random_polynomial(
                rng, chart.dim, allow_zero=False))
        verdict = is_exact(vol, a.scale(f))
        assert verdict == schouten(a, Multivector.scalar(chart, f)).is_zero()
        both[verdict] += 1
    assert both[True] >= 5 and both[False] >= 5, both

    chart, pi = _planar_symplectic()
    vol = _unit_volume(chart)
    done = 0
    while done < 30:  # multiplier ratios and first-integral products
        h = RationalFunc(random_polynomial(rng, 2, allow_zero=False))
        x_field = hamiltonian_field(pi, h)
        if x_field.is_zero():
            continue
        m1 = h * h + _const(2, 1)
        m2 = h * h * h * h + h * h + _const(2, 3)
        assert is_last_multiplier(vol, m1, x_field)
        assert is_last_multiplier(vol, m2, x_field)
        assert first_integral_check(x_field, m1 / m2)
        g = h * h * h * h + _const(2, 2)
        assert first_integral_check(x_field, g)
        assert is_last_multiplier(vol, g * m1, x_field)
        done += 1
    print("criterion 07: PASS (4 closure laws, >=30 instances each)")


def test_criterion_08_reciprocal_top_multivector():
    for names in (["x", "y"], ["x", "y", "z"]):
        chart = Chart(names)
        n = chart.dim
        one = chart.one_rf()
        x, y = _var(n, 0), _var(n, 1)
        for f in (one, one + x * x, one + x * x + y * y):
            vol = VolumeForm(chart, f)
            full = (1 << n) - 1
            a = Multivector(chart, n, {full: f.inverse()})
            assert curl(vol, a).is_zero(), (names, f)
            assert is_exact(vol, a)
    print("criterion 08: PASS (6 reciprocal top multivectors, zero curl)")


def test_criterion_09_rotation_algebra_battery():
    rng = random.Random(ACCEPT_SEED + 9)
    pi = _so3_bivector()
    chart = pi.chart
    vol = _unit_volume(chart)

    assert schouten(pi, pi).is_zero()
    assert modular_field(vol, pi).is_zero()

    sols = casimir_solve(pi, AnsatzSpace(chart, 2))
    assert len(sols) == 2
    radius_sq = sum((_var(3, i) ** 2 for i in range(3)), _const(3, 0))
    assert function_span_contains(sols, radius_sq)

    report = truncated_exact_cohomology(vol, pi, 0, 2)
    assert report.dim_kernel == 2

    for _ in range(12):
        a = random_multivector(rng, chart, rng.randint(0, 3))
        once = lichnerowicz_delta(pi, a)
        assert lichnerowicz_delta(pi, once).is_zero()
    print("criterion 09: PASS (rotation algebra: Jacobi, modular, "
          "Casimirs, kernel dim, delta^2)")


def _kernel_vectors(pi, vol, k, d):
    """Kernel of delta on the curl-free part and on the whole ansatz."""
    chart = vol.chart
    ambient = MonomialSpace(chart, k, d)
    exact_els = exact_basis(vol, k, d)
    if k + 1 > chart.dim:
        for e in ambient.basis + exact_els:
            assert lichnerowicz_delta(pi, e).is_zero()
        full_null = ExactMatrix(ambient.dimension, []).nullspace()
        return list(exact_els), full_null, ambient
    deg_pi = max((c.num.total_degree() for c in pi.terms.values()), default=0)
    target = MonomialSpace(chart, k + 1, d + max(deg_pi - 1, 0) + 2)

    def column(e):
        coords = target.coordinates(lichnerowicz_delta(pi, e))
        return {i: v for i, v in enumerate(coords) if v}

    full_null = ExactMatrix.from_columns(
        [column(e) for e in ambient.basis]).nullspace()
    exact_null = (ExactMatrix.from_columns(
        [column(e) for e in exact_els]).nullspace() if exact_els else [])
    exact_kernel = []
    for coeffs in exact_null:
        el = None
        for c, e in zip(coeffs, exact_els):
            term = e.scale(_const(chart.dim, c))
            el = term if el is None else el + term
        exact_kernel.append(el)
    return exact_kernel, full_null, ambient


def test_criterion_10_truncated_cohomology_sanity():
    chart, pi = _planar_symplectic()
    vol = _unit_volume(chart)
    report = truncated_exact_cohomology(vol, pi, 0, 3)
    assert report.truncated_h_dim == 1
    assert report.caveat is True

    so3 = _so3_bivector()
    vol3 = _unit_volume(so3.chart)
    configs = [(pi, vol, 0, 3), (pi, vol, 1, 2), (pi, vol, 2, 2),
               (so3, vol3, 0, 2), (so3, vol3, 1, 1), (so3, vol3, 2, 1)]
    checked = 0
    for pi_, vol_, k, d in configs:
        exact_kernel, full_null, ambient = _kernel_vectors(pi_, vol_, k, d)
        for el in exact_kernel:
            assert vector_span_contains(full_null, ambient.coordinates(el))
            checked += 1
    assert checked >= 20
    print(f"criterion 10: PASS (H^0 dim 1 at degree 3; "
          f"{checked} kernel containment checks)")


def test_criterion_11_corpus_and_cli_matrix(tmp_path, capsys):
    sources = sorted(GOLDEN_DIR.glob("*.mv"))
    assert len(sources) >= 15
    for source in sources:
        doc = parse(source.read_text())
        canonical = print_canonical(doc)
        assert canonical == source.with_suffix(".out").read_text(), source.name
        assert parse(canonical) == doc, source.name
        assert print_canonical(parse(canonical)) == canonical, source.name

    so3_doc = str(GOLDEN_DIR / "so3.mv")
    recip = str(GOLDEN_DIR / "hrecip_poly.mv")
    nonjac = str(GOLDEN_DIR / "nonjacobi.mv")
    bad = tmp_path / "bad.mv"
    bad.write_text("chart x y\nmv P = e1 ^^\n")
    zero_div = tmp_path / "zerodiv.mv"
    zero_div.write_text("chart x y\nfunc g = 1/(x - x)\n")

    matrix = [
        (["lm-check", "m", "P", "--input", recip], 0),
        (["casimir", "g", "--input", so3_doc, "--max-degree", "2"], 0),
        (["jacobi", "Q", "--input", nonjac], 1),
        (["lm-solve", "P", "--input", recip, "--max-degree", "2"], 1),
        (["print", "--input", str(bad)], 2),
        (["curl", "missing", "--input", so3_doc], 2),
        (["modular", "Q", "--input", nonjac], 3),
        (["print", "--input", str(zero_div)], 3),
    ]
    for argv, expected in matrix:
        assert main(argv) == expected, argv
    out = capsys.readouterr().out
    assert "last multiplier: true (3/3 routes)" in out
    print(f"criterion 11: PASS ({len(sources)} golden documents, "
          "exit codes 0/1/2/3 verified)")
