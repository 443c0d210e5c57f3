"""Curl operator, Schouten bracket, and last-multiplier predicates."""

import random
from pathlib import Path

import pytest

from mvcurl import curl as curl_module
from mvcurl import exterior, ring
from mvcurl.curl import (
    curl,
    divergence,
    first_integral_check,
    is_exact,
    is_last_multiplier,
    last_multiplier_residual,
    schouten,
    vector_apply,
)
from mvcurl.dsl import parse
from mvcurl.exterior import (
    Chart,
    DifferentialForm,
    Multivector,
    VolumeForm,
    _BladeSum,
    exterior_derivative,
    flat,
)
from mvcurl.identities import (
    random_chart,
    random_multiplier,
    random_multivector,
    random_polynomial,
    random_volume,
    run_identity_suite,
)
from mvcurl.ring import Polynomial, RationalFunc
from curl_cases import curl_cases, curl_densities
from oracles import composed_curl
from witten_cases import (CASES_PER_DIMENSION, CURL_QUOTIENT_DRAWS,
                          curl_quotient_cases, route_b_cases, witten_sum_vanishes)

CH = Chart(("x", "y"))
X = CH.coordinate(0)
Y = CH.coordinate(1)
E1 = Multivector.basis_vector(CH, 0)
E2 = Multivector.basis_vector(CH, 1)
VOL = VolumeForm.unit(CH)

LINE = Chart(("x",))
LVOL = VolumeForm.unit(LINE)


def bivector(h):
    return E1.wedge(E2).scale(h)


def test_curl_of_planar_bivector():
    h = X * X + Y * Y + CH.one_rf()
    out = curl(VOL, bivector(h))
    assert out == E1.scale(h.diff(1)) - E2.scale(h.diff(0))


def test_curl_constant_top_multivector():
    chart = Chart(("x", "y", "z"))
    top = Multivector.blade(chart, (0, 1, 2))
    assert curl(VolumeForm.unit(chart), top).is_zero()


def test_curl_scalar_is_typed_zero():
    out = curl(VOL, Multivector.scalar(CH, X))
    assert out.is_zero()


def test_nambu_top_multivector_is_exact():
    for names in (("x", "y"), ("x", "y", "z")):
        chart = Chart(names)
        x = chart.coordinate(0)
        f = x * x + chart.one_rf()
        vol = VolumeForm(chart, f)
        nambu = Multivector.blade(chart, tuple(range(chart.dim))).scale(f.inverse())
        assert is_exact(vol, nambu)


@pytest.mark.parametrize("dim", range(1, 7))
def test_curl_equals_sharp_d_flat_on_seeded_cases(dim):
    chart = Chart(("x", "y", "z", "w", "u", "v")[:dim])
    cases = list(curl_cases(dim, 4))
    assert len(cases) == len(curl_densities(chart)) * (dim + 1) * 4
    assert len({v.density for v, _ in cases}) == len(curl_densities(chart))
    assert {a.grade for _, a in cases} == set(range(dim + 1))
    assert any(not c.den.is_one() for _, a in cases for c in a.terms.values())
    results = [curl(vol, a) for vol, a in cases]
    graded = [r for (_, a), r in zip(cases, results) if a.grade]
    assert sum(not r.is_zero() for r in graded) > len(graded) // 2
    for (vol, a), result in zip(cases, results):
        assert result == composed_curl(vol, a), (vol, a)
        assert result.grade == max(a.grade - 1, 0)


def test_curl_runs_no_flat_sharp_or_exterior_derivative(monkeypatch):
    cases = [case for dim in (2, 3) for case in curl_cases(dim, 1)]
    expected = [composed_curl(vol, a) for vol, a in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("curl called a refused function")

    for name in ("flat", "sharp", "exterior_derivative", "_complement"):
        monkeypatch.setattr(exterior, name, refuse)
        monkeypatch.setattr(curl_module, name, refuse, raising=False)
    assert [curl(vol, a) for vol, a in cases] == expected


def test_curl_of_a_unit_density_multiplies_nothing(monkeypatch):
    a = E1.scale(X * Y) + E2.scale(X * X + Y)
    expected = curl(VOL, a)

    def refuse(*args, **kwargs):
        raise AssertionError("a product under the unit density")

    monkeypatch.setattr(RationalFunc, "__mul__", refuse)
    assert curl(VOL, a) == expected
    assert curl(VolumeForm(CH, X), Multivector.scalar(CH, Y)).is_zero()


def test_divergence():
    assert divergence(VOL, E1).is_zero()
    out = divergence(VOL, E1.scale(X) + E2.scale(Y * Y))
    assert out == CH.one_rf() + Y.scale(2)
    with pytest.raises(ValueError):
        divergence(VOL, E1.wedge(E2))


def test_divergence_derivation_rule():
    rng = random.Random(21)
    for _ in range(25):
        chart = random_chart(rng)
        vol = random_volume(rng, chart)
        f = random_multiplier(rng, chart.dim)
        x = random_multivector(rng, chart, 1)
        lhs = divergence(vol, x.scale(f))
        assert lhs == vector_apply(x, f) + f * divergence(vol, x)


def test_schouten_lie_bracket():
    assert schouten(E1, E2.scale(X)) == E2
    # [X, f] = X(f)
    out = schouten(E1.scale(X), Multivector.scalar(CH, X))
    assert out.scalar_value() == X
    # [f, X] = -X(f)
    out = schouten(Multivector.scalar(CH, X), E1.scale(X))
    assert out.scalar_value() == -X


def test_schouten_bivector_function():
    f = X * Y
    out = schouten(E1.wedge(E2), Multivector.scalar(CH, f))
    assert out == E1.scale(f.diff(1)) - E2.scale(f.diff(0))


def test_schouten_graded_antisymmetry():
    rng = random.Random(22)
    for _ in range(25):
        chart = random_chart(rng)
        ga = rng.randint(0, min(3, chart.dim))
        gb = rng.randint(0, min(3, chart.dim))
        a = random_multivector(rng, chart, ga)
        b = random_multivector(rng, chart, gb)
        sign = -1 if ((ga - 1) * (gb - 1)) % 2 == 0 else 1
        assert schouten(a, b) == schouten(b, a).scale(sign)


def test_schouten_graded_jacobi():
    # [A,[B,C]] = [[A,B],C] + (-1)^((a-1)(b-1)) [B,[A,C]]
    rng = random.Random(23)
    for _ in range(12):
        chart = Chart(("x", "y", "z"))
        ga, gb, gc = (rng.randint(1, 2) for _ in range(3))
        a = random_multivector(rng, chart, ga, max_blades=1)
        b = random_multivector(rng, chart, gb, max_blades=1)
        c = random_multivector(rng, chart, gc, max_blades=1)
        sign = 1 if ((ga - 1) * (gb - 1)) % 2 == 0 else -1
        lhs = schouten(a, schouten(b, c))
        rhs = schouten(schouten(a, b), c) + schouten(b, schouten(a, c)).scale(sign)
        assert lhs == rhs


def test_schouten_leibniz_in_second_slot():
    # [A, B ^ C] = [A,B] ^ C + (-1)^((a-1) b) B ^ [A,C]
    rng = random.Random(24)
    for _ in range(12):
        chart = Chart(("x", "y", "z"))
        ga = rng.randint(1, 2)
        gb, gc = rng.randint(0, 2), rng.randint(0, 2)
        a = random_multivector(rng, chart, ga, max_blades=1)
        b = random_multivector(rng, chart, gb, max_blades=1)
        c = random_multivector(rng, chart, gc, max_blades=1)
        sign = 1 if ((ga - 1) * gb) % 2 == 0 else -1
        lhs = schouten(a, b.wedge(c))
        rhs = schouten(a, b).wedge(c) + b.wedge(schouten(a, c)).scale(sign)
        assert lhs == rhs


def test_last_multiplier_residual_on_line():
    a = Multivector.basis_vector(LINE, 0).scale(LINE.coordinate(0))
    res = last_multiplier_residual(LVOL, LINE.one_rf(), a)
    assert res.scalar_value().is_one()
    res = last_multiplier_residual(LVOL, LINE.coordinate(0).inverse(), a)
    assert res.is_zero()


def test_is_last_multiplier():
    h = X * X + Y * Y + CH.one_rf()
    assert is_last_multiplier(VOL, h.inverse(), bivector(h))
    assert not is_last_multiplier(VOL, X, E1)
    with pytest.raises(ZeroDivisionError):
        is_last_multiplier(VOL, RationalFunc.zero(CH.dim), E1)


def test_first_integral_multipliers_of_divergence_free_field():
    # Hamiltonian-style field: divergence-free, H is a first integral
    h = X * X + Y * Y
    field = E2.scale(h.diff(0)) - E1.scale(h.diff(1))
    assert divergence(VOL, field).is_zero()
    assert first_integral_check(field, h)
    assert is_last_multiplier(VOL, h + CH.one_rf(), field)


def test_curl_scaled():
    # the curl against the rescaled volume m*V
    h = X * X + Y * Y + CH.one_rf()
    assert curl(VOL.scaled(CH.one_rf()), bivector(h)) == curl(VOL, bivector(h))
    assert curl(VOL.scaled(h.inverse()), bivector(h)).is_zero()
    with pytest.raises(ZeroDivisionError):
        curl(VOL.scaled(RationalFunc.zero(CH.dim)), E1)


def test_curl_scaled_compatibility_random():
    rng = random.Random(25)
    for _ in range(20):
        chart = random_chart(rng)
        vol = random_volume(rng, chart)
        m = random_multiplier(rng, chart.dim)
        a = random_multivector(rng, chart, rng.randint(1, min(3, chart.dim)))
        assert curl(vol, a.scale(m)) == curl(vol.scaled(m), a).scale(m)


def test_log_bracket():
    # the bracket [A, log m] is the difference of two curls, curl_{mV} - curl_V
    def log_bracket(vol, a, m):
        return curl(vol.scaled(m), a) - curl(vol, a)

    assert log_bracket(VOL, bivector(X), CH.constant(5)).is_zero()
    # grade 1: [X, log m] = X(m)/m
    x = LINE.coordinate(0)
    a = Multivector.basis_vector(LINE, 0).scale(x)
    out = log_bracket(LVOL, a, x)
    assert out.scalar_value() == vector_apply(a, x) / x
    # when m is a last multiplier, curl(A) = -[A, log m]
    h = X * X + Y * Y + CH.one_rf()
    assert curl(VOL, bivector(h)) == -log_bracket(VOL, bivector(h), h.inverse())


def test_is_exact():
    assert is_exact(VOL, E1.wedge(E2))
    assert not is_exact(VOL, bivector(X))


def test_inverse_multiplier_check():
    # 1/h is a last multiplier of X exactly when X(h) = div(X) h: so for
    # h = x, of x d/dx, and not of d/dx
    x = LINE.coordinate(0)
    field = Multivector.basis_vector(LINE, 0).scale(x)
    assert is_last_multiplier(LVOL, x.inverse(), field)
    assert not is_last_multiplier(LVOL, x.inverse(),
                                  Multivector.basis_vector(LINE, 0))
    with pytest.raises(ZeroDivisionError):
        RationalFunc.zero(LINE.dim).inverse()


def test_first_integral_check():
    assert first_integral_check(E1, CH.constant(7))
    assert first_integral_check(E1, Y)
    assert not first_integral_check(E1, X)


def test_bracket_closure_of_multiplier_kernel():
    # common multiplier m for A and B implies m multiplies [A, B]
    rng = random.Random(26)
    for _ in range(10):
        chart = Chart(("x", "y", "z"))
        vol = VolumeForm(chart, chart.constant(rng.choice((1, 2))))
        m = RationalFunc(random_polynomial(rng, chart.dim, max_degree=1,
                                           allow_zero=False))
        a = curl(vol.scaled(m), random_multivector(rng, chart, 2,
                                                   max_blades=1, max_degree=1))
        b = curl(vol.scaled(m), random_multivector(rng, chart, 3,
                                                   max_blades=1, max_degree=1))
        if a.is_zero() or b.is_zero():
            continue
        assert last_multiplier_residual(vol, m, a).is_zero()
        assert last_multiplier_residual(vol, m, b).is_zero()
        assert last_multiplier_residual(vol, m, schouten(a, b)).is_zero()


def test_identity_suite_smoke():
    results = run_identity_suite(seed=1, cases=5)
    assert all(r.passed for r in results), [(r.name, r.failures) for r in results]


# -- route (b): cleared numerators against the summed Witten form ----------


@pytest.mark.parametrize("dim", range(1, 5))
def test_witten_route_agrees_with_the_summed_witten_form(dim):
    verdicts = []
    for vol, m, a in route_b_cases(dim):
        omega = flat(vol, a)
        verdict = curl_module._in_witten_kernel(m, omega)
        assert verdict == witten_sum_vanishes(m, omega), (vol, m, a)
        verdicts.append(verdict)
    assert len(verdicts) >= CASES_PER_DIMENSION
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("dim", range(2, 5))
def test_witten_route_finds_every_curl_quotient_a_multiplier(dim):
    cases = list(curl_quotient_cases(dim))
    assert len(cases) == 4 * CURL_QUOTIENT_DRAWS
    for vol, m, a in cases:
        omega = flat(vol, a)
        assert curl_module._in_witten_kernel(m, omega), (vol, m, a)
        assert witten_sum_vanishes(m, omega), (vol, m, a)


def slipped_blade_sums(blades, zero, p, q, d, numerators):
    """``curl._blade_sums`` with one sign slip: the W_J d_i D term is added,
    not subtracted, on the pairs of negative sign."""
    (p, dp), (q, dq), (d, dd) = p, q, d
    pq = p * q
    slopes = [q * a - p * b for a, b in zip(dp, dq)]
    for terms in blades.values():
        inner = outer = zero
        for sign, i, j in terms:
            w, dw = numerators[j]
            part_in, part_out = w * slopes[i] + pq * dw[i], w * dd[i]
            if sign < 0:
                inner, outer = inner - part_in, outer + part_out
            else:
                inner, outer = inner + part_in, outer + part_out
        yield d * inner - pq * outer


def test_a_sign_slip_in_the_witten_blade_sums_is_caught(monkeypatch):
    # the slipped term is zero wherever D is constant once gcd(p, D) is
    # divided out; a curl quotient keeps q of B in D
    vol, m, a = next(curl_quotient_cases(2))
    omega = flat(vol, a)
    assert witten_sum_vanishes(m, omega)
    assert curl_module._in_witten_kernel(m, omega)
    monkeypatch.setattr(curl_module, "_blade_sums", slipped_blade_sums)
    assert not curl_module._in_witten_kernel(m, omega)


def test_route_b_case_count_and_verdicts():
    cases = [case for dim in range(1, 5) for case in route_b_cases(dim)]
    assert len(cases) >= 1000
    verdicts = [is_last_multiplier(*case) for case in cases[::7]]
    assert any(verdicts) and not all(verdicts)


def test_a_sign_slip_in_flat_makes_the_routes_disagree(monkeypatch):
    # route (a) is the coordinate curl, which calls no flat: a flat that
    # negates the dx2 blade misleads routes (b) and (c) only
    def slipped(volume, a):
        omega = flat(volume, a)
        return DifferentialForm(omega.chart, omega.grade, {
            mask: -c if mask == 0b10 else c for mask, c in omega.terms.items()})

    monkeypatch.setattr(curl_module, "flat", slipped)
    doc = parse("chart x y\nmv A = x e1 - y e2\n")
    with pytest.raises(RuntimeError, match="multiplier routes disagree"):
        is_last_multiplier(VolumeForm.unit(doc.chart), doc.chart.one_rf(),
                           doc.multivector("A"))


def test_disagreeing_witten_route_raises(monkeypatch):
    h = X * X + Y * Y + CH.one_rf()
    witten = curl_module._in_witten_kernel
    monkeypatch.setattr(curl_module, "_in_witten_kernel",
                        lambda m, omega: not witten(m, omega))
    for m, a in ((h.inverse(), bivector(h)), (X, E1)):
        with pytest.raises(RuntimeError, match="routes disagree"):
            is_last_multiplier(VOL, m, a)


GOLDEN = Path(__file__).parent / "golden"


def bindings(text):
    """The chart of a document and its bindings' values by name."""
    doc = parse(text)
    return doc.chart, {b.name: b.value for b in doc.bindings}


def witten_verdict(m, omega):
    """Route (b) on (m, omega), checked against the summed Witten form."""
    verdict = curl_module._in_witten_kernel(m, omega)
    assert verdict == witten_sum_vanishes(m, omega), (m, omega)
    return verdict


# (coefficient f, multiplier m, verdict) on R^3 with A = f e1^^e2, where
# flat(A) = f d3: m is a last multiplier exactly when m f depends on z alone.
# The ids say whether p (m = p/q) shares a factor with the denominator of f,
# q with its numerator, both or neither
SHARED_FACTORS = {
    "both": ("(x+y+z+1)^2/(x-y+z+2)^3", "(x-y+z+2)^3/(x+y+z+1)^2", True),
    "both-times-z": ("(x+y+z+1)^2/(x-y+z+2)^3",
                     "(z+5)*(x-y+z+2)^3/(x+y+z+1)^2", True),
    "both-false": ("(x+y+z+1)^2/(x-y+z+2)^3", "(x-y+z+2)^3/(x+y+z+1)", False),
    "p-only": ("1/(x-y+z+2)^3", "(z+5)*(x-y+z+2)^3", True),
    "p-only-false": ("(x^2+1)/(x-y+z+2)^3", "(x-y+z+2)^2/(y+3)", False),
    "q-only": ("(x+y+z+1)^2", "(z+5)/(x+y+z+1)^2", True),
    "q-only-false": ("(x+y+z+1)^2/(y^2+2)", "(x+y)/(x+y+z+1)^2", False),
    "neither": ("1", "(z^2+1)/(z+3)", True),
    "neither-false": ("(x+y+z+1)^2/(x-y+z+2)^3", "(z+5)/(x^2+y+1)", False),
}


@pytest.mark.parametrize("case", SHARED_FACTORS)
def test_witten_route_with_factors_shared_by_m_and_omega(case):
    f, m, expected = SHARED_FACTORS[case]
    chart, v = bindings(f"chart x y z\nfunc f = {f}\nfunc m = {m}\n"
                        "mv A = f e1^^e2\n")
    assert witten_verdict(v["m"], flat(VolumeForm.unit(chart), v["A"])) is expected


def test_witten_route_with_blade_numerators_sharing_a_factor_with_q():
    # g divides q and every blade numerator of w2 and w3; m w3 = d(x y z^2)
    chart, v = bindings(
        "chart x y z\n"
        "func g = (x+2*y+1)*(z+3)\n"
        "func m = 1/g\n"
        "func m2 = (x+1)/g\n"
        "func m3 = 1/(x+2*y+1)\n"
        "form w2 = (x+2*y+1)*x/(x-z+2) d1 + (x+2*y+1)*y/(x-z+2) d2\n"
        "form w3 = g*y*z^2 d1 + g*x*z^2 d2 + g*2*x*y*z d3\n")
    assert witten_verdict(v["m"], v["w3"])
    assert not witten_verdict(v["m2"], v["w3"])
    assert not witten_verdict(v["m3"], v["w2"])
    assert not witten_verdict(v["m"], v["w2"])


def test_witten_route_on_zero_and_top_degree_forms_and_constant_multipliers():
    chart, v = bindings("chart x y z\nfunc m = (x^2+y)/(z-1)\n"
                        "form top = (x*y)/(y+z) d1^^d2^^d3\n"
                        "form closed = y d1 + x d2\nform open = y d1\n")
    m, three = v["m"], chart.constant(3)
    for degree in range(4):
        assert witten_verdict(m, DifferentialForm.zero(chart, degree))
    assert witten_verdict(m, v["top"])
    assert witten_verdict(three, v["closed"])
    assert not witten_verdict(three, v["open"])


def test_witten_route_with_rational_coefficients_in_m():
    chart, v = bindings(
        "chart x y\nfunc m = (x + 1/3)/(y - 2/5)\n"
        "form eta = (y - 2/5)*2*x*y/(x + 1/3) d1"
        " + (y - 2/5)*x^2/(x + 1/3) d2\n"
        "form other = (y - 2/5) d1 + 1/7*x d2\n")
    assert witten_verdict(v["m"], v["eta"])  # m eta = d(x^2 y)
    assert not witten_verdict(v["m"], v["other"])


def test_routes_agree_on_a_multiplier_and_density_with_rational_coefficients():
    # in normal form m = (2/3 x + 1/3)/(y + 2/3) and the density's
    # denominator is x^2 + 3/5: neither p, q nor it is integral, and
    # (y^2 + 1)^2 stays in D once gcd(p, D) is divided out
    chart, v = bindings(
        "chart x y\nvolume V = 1/(5*x^2 + 3)\n"
        "func m = (2*x + 1)/(3*y + 2)\n"
        "func g = (5*x^2 + 3)*(3*y + 2)/(2*x + 1)\n"
        "mv A = -2*x*y*g/(y^2 + 1)^2 e1 - g/(y^2 + 1) e2\n"
        "mv B = y*g/(y^2 + 1) e1 - g/(y^2 + 1) e2\n")
    vol, m = v["V"], v["m"]
    assert (m.num.den, m.den.den, vol.density.den.den) == (3, 3, 5)
    # m A = (5 x^2 + 3)(h_y e1 - h_x e2) with h = x/(y^2 + 1)
    assert is_last_multiplier(vol, m, v["A"])
    assert not is_last_multiplier(vol, m, v["B"])
    assert witten_verdict(m, flat(vol, v["A"]))
    assert not witten_verdict(m, flat(vol, v["B"]))


def test_witten_route_when_the_first_point_is_a_zero_of_the_denominator():
    chart, v = bindings((GOLDEN / "lm_heavy_2d.mv").read_text())
    omega = flat(VolumeForm.unit(chart), v["A"])
    # x - y + 2 divides the denominator of omega and vanishes at (3, 5)
    assert omega.terms[0].den.evaluate((3, 5)) == 0
    assert [witten_verdict(v[m], omega) for m in ("f", "m", "mb")] == [
        False, True, False]


def test_witten_route_expands_when_the_point_cannot_refute(monkeypatch):
    # d(m w) = 2 (x - 3) d1^^d2 for m = x - 3 and w = (x - 3) d2, which is
    # zero at (3, 5), the refutation point on the plane
    chart, v = bindings("chart x y\nfunc m = x - 3\nfunc m4 = x - 4\n"
                        "form w = (x - 3) d2\n")
    assert not witten_sum_vanishes(v["m"], v["w"])
    assert not witten_sum_vanishes(v["m4"], v["w"])
    diffs = []
    diff = Polynomial.diff

    def counted(p, index):
        diffs.append(index)
        return diff(p, index)

    monkeypatch.setattr(Polynomial, "diff", counted)
    assert not curl_module._in_witten_kernel(v["m4"], v["w"])
    assert diffs == []  # refuted at the point: nothing expanded
    assert not curl_module._in_witten_kernel(v["m"], v["w"])
    assert diffs


def test_witten_route_runs_no_exterior_calculus_and_no_normal_form(monkeypatch):
    cases = [(m, flat(vol, a)) for dim in (2, 3)
             for vol, m, a in list(route_b_cases(dim))[::4]]
    assert any(not c.den.is_one() for _, w in cases for c in w.terms.values())
    expected = [witten_sum_vanishes(m, w) for m, w in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("route (b) called a refused function")

    for owner, name in ((RationalFunc, "diff"), (RationalFunc, "__add__"),
                        (RationalFunc, "__mul__"), (_BladeSum, "wedge"),
                        (DifferentialForm, "differential"),
                        (exterior, "exterior_derivative"),
                        (curl_module, "exterior_derivative"),
                        (curl_module, "curl")):
        monkeypatch.setattr(owner, name, refuse)
    assert [curl_module._in_witten_kernel(m, w) for m, w in cases] == expected


def test_witten_route_gcd_count(monkeypatch):
    gcd = ring.poly_gcd
    calls = depth = 0

    def counted(a, b):
        # outermost calls only, as the tracer counts them
        nonlocal calls, depth
        calls += depth == 0
        depth += 1
        try:
            return gcd(a, b)
        finally:
            depth -= 1

    monkeypatch.setattr(ring, "poly_gcd", counted)
    monkeypatch.setattr(curl_module, "poly_gcd", counted)
    for dim in range(1, 5):
        for vol, m, a in route_b_cases(dim):
            omega = flat(vol, a)
            dens = {c.den for c in omega.terms.values() if not c.den.is_one()}
            calls = 0
            curl_module._in_witten_kernel(m, omega)
            assert calls <= len(dens) + len(omega.terms) + 1, (m, omega)


def test_witten_route_multiplies_only_constants_when_m_cancels_omega(monkeypatch):
    # m = 1/f and omega = f d3 with f = (x+y+z+1)^6/(x-y+z+2)^6: with g1 and
    # g2 divided out, p, q, D and W are constants; without, the largest
    # product would be about 364 x 455 term pairs
    chart, v = bindings((GOLDEN / "lm_heavy_3d.mv").read_text())
    omega = flat(VolumeForm.unit(chart), v["A"])
    products = []
    mul = Polynomial.__mul__

    def counted(a, b):
        products.append((len(a.nums) * len(b.nums),
                         a.is_constant() or b.is_constant()))
        return mul(a, b)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    assert curl_module._in_witten_kernel(v["m"], omega)
    assert max(pairs for pairs, _ in products) <= 10_000
    assert all(constant for _, constant in products)


def test_vector_apply_differentiates_only_along_the_field(monkeypatch):
    chart = Chart(("x", "y", "z", "w"))
    x, y, w = (chart.coordinate(i) for i in (0, 1, 3))
    calls = []
    diff = RationalFunc.diff

    def counted(f, index):
        calls.append(index)
        return diff(f, index)

    monkeypatch.setattr(RationalFunc, "diff", counted)
    e1 = Multivector.basis_vector(chart, 0)
    assert vector_apply(e1, x * y + w) == y
    assert calls == [0]
    with pytest.raises(ValueError, match="coefficient dimension"):
        vector_apply(e1, X)
