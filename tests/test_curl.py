"""Curl operator, Schouten bracket, and last-multiplier predicates."""

import random

import pytest

from mvcurl import curl as curl_module
from mvcurl.curl import (
    curl,
    curl_scaled,
    divergence,
    first_integral_check,
    inverse_multiplier_check,
    is_exact,
    is_last_multiplier,
    last_multiplier_residual,
    log_bracket,
    schouten,
    vector_apply,
)
from mvcurl.exterior import (
    Chart,
    DifferentialForm,
    Multivector,
    VolumeForm,
    exterior_derivative,
    flat,
    sharp,
    witten_derivative,
)
from mvcurl.identities import (
    density_pool,
    random_chart,
    random_form,
    random_multiplier,
    random_multivector,
    random_polynomial,
    random_volume,
    run_identity_suite,
)
from mvcurl.ring import RationalFunc

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
        is_last_multiplier(VOL, CH.zero_rf(), E1)


def test_first_integral_multipliers_of_divergence_free_field():
    # Hamiltonian-style field: divergence-free, H is a first integral
    h = X * X + Y * Y
    field = E2.scale(h.diff(0)) - E1.scale(h.diff(1))
    assert divergence(VOL, field).is_zero()
    assert first_integral_check(field, h)
    assert is_last_multiplier(VOL, h + CH.one_rf(), field)


def test_curl_scaled():
    h = X * X + Y * Y + CH.one_rf()
    assert curl_scaled(VOL, CH.one_rf(), bivector(h)) == curl(VOL, bivector(h))
    assert curl_scaled(VOL, h.inverse(), bivector(h)).is_zero()
    with pytest.raises(ZeroDivisionError):
        curl_scaled(VOL, CH.zero_rf(), E1)


def test_curl_scaled_compatibility_random():
    rng = random.Random(25)
    for _ in range(20):
        chart = random_chart(rng)
        vol = random_volume(rng, chart)
        m = random_multiplier(rng, chart.dim)
        a = random_multivector(rng, chart, rng.randint(1, min(3, chart.dim)))
        assert curl(vol, a.scale(m)) == curl_scaled(vol, m, a).scale(m)


def test_log_bracket():
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
    x = LINE.coordinate(0)
    field = Multivector.basis_vector(LINE, 0).scale(x)
    assert inverse_multiplier_check(LVOL, x, field)
    assert is_last_multiplier(LVOL, x.inverse(), field)
    assert not inverse_multiplier_check(LVOL, x, Multivector.basis_vector(LINE, 0))
    with pytest.raises(ZeroDivisionError):
        inverse_multiplier_check(LVOL, LINE.zero_rf(), field)


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
        a = curl_scaled(vol, m, random_multivector(rng, chart, 2,
                                                   max_blades=1, max_degree=1))
        b = curl_scaled(vol, m, random_multivector(rng, chart, 3,
                                                   max_blades=1, max_degree=1))
        if a.is_zero() or b.is_zero():
            continue
        assert last_multiplier_residual(vol, m, a).is_zero()
        assert last_multiplier_residual(vol, m, b).is_zero()
        assert last_multiplier_residual(vol, m, schouten(a, b)).is_zero()


def test_identity_suite_smoke():
    results = run_identity_suite(seed=1, cases=5)
    assert all(r.passed for r in results), [(r.name, r.failures) for r in results]


# -- route (b): dm ^ omega == -m d(omega) against the summed Witten form ----


def witten_sum_vanishes(m, omega):
    """Route (b) as the paper writes it: (d_m + (m-1)d) omega == 0, with the
    Witten differential at t = 1 and the sum normalised."""
    one = RationalFunc.constant(m.nvars, 1)
    return (witten_derivative(1, m, omega)
            + exterior_derivative(omega).scale(m - one)).is_zero()


CASES_PER_DIMENSION = 260


def route_b_cases(dim):
    """At least CASES_PER_DIMENSION seeded (volume, multiplier, multivector)
    cases in one dimension: every grade and every pool density, random
    multipliers, and multipliers that are last multipliers by construction."""
    chart = Chart(("x", "y", "z", "w")[:dim])
    rng = random.Random(f"route-b:{dim}")
    pool = density_pool(chart)
    per_pass = len(pool) * ((dim + 1) * 6 + 2)
    passes = -(-CASES_PER_DIMENSION // per_pass)
    for density in pool * passes:
        vol = VolumeForm(chart, density)
        for grade in range(dim + 1):
            for _ in range(4):
                a = random_multivector(rng, chart, grade, max_degree=1)
                yield vol, random_multiplier(rng, dim), a
            # m (sharp of a closed form) / m: curl(m A) = sharp(d closed) = 0
            for _ in range(2):
                m = random_multiplier(rng, dim)
                if grade < dim:
                    closed = exterior_derivative(random_form(
                        rng, chart, dim - grade - 1, max_degree=2))
                else:
                    closed = DifferentialForm.scalar(
                        chart, chart.constant(rng.choice((-2, 1, 3))))
                yield vol, m, sharp(vol, closed).scale(m.inverse())
        # 1/(c f) for the top-degree c e_top against density f
        for _ in range(2):
            c = RationalFunc(random_polynomial(rng, dim, allow_zero=False))
            top = Multivector.blade(chart, range(dim), c)
            yield vol, (c * density).inverse(), top


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


def test_route_b_case_count_and_verdicts():
    cases = [case for dim in range(1, 5) for case in route_b_cases(dim)]
    assert len(cases) >= 1000
    verdicts = [is_last_multiplier(*case) for case in cases[::7]]
    assert any(verdicts) and not all(verdicts)


def test_disagreeing_witten_route_raises(monkeypatch):
    h = X * X + Y * Y + CH.one_rf()
    witten = curl_module._in_witten_kernel
    monkeypatch.setattr(curl_module, "_in_witten_kernel",
                        lambda m, omega: not witten(m, omega))
    for m, a in ((h.inverse(), bivector(h)), (X, E1)):
        with pytest.raises(RuntimeError, match="routes disagree"):
            is_last_multiplier(VOL, m, a)


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
