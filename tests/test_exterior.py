"""Blade algebra: wedge, pairing, contractions, musical maps, differentials."""

import random

import pytest

from mvcurl.exterior import (
    Chart,
    DifferentialForm,
    Multivector,
    VolumeForm,
    exterior_derivative,
    flat,
    interior_product_form,
    interior_product_vector,
    marsden_derivative,
    merge_sign,
    pairing,
    sharp,
    witten_derivative,
    wedge,
)
from mvcurl.identities import (
    random_chart,
    random_form,
    random_multiplier,
    random_multivector,
    random_volume,
)
from mvcurl.ring import RationalFunc

CH = Chart(("x", "y"))
X = CH.coordinate(0)
Y = CH.coordinate(1)
E1 = Multivector.basis_vector(CH, 0)
E2 = Multivector.basis_vector(CH, 1)
D1 = DifferentialForm.basis_form(CH, 0)
D2 = DifferentialForm.basis_form(CH, 1)
VOL = VolumeForm.unit(CH)


def test_chart_validation():
    with pytest.raises(ValueError):
        Chart(("x",) * 2)
    with pytest.raises(ValueError):
        Chart(tuple(f"c{i}" for i in range(17)))
    with pytest.raises(ValueError):
        Chart(("x", "not a name"))


def test_merge_sign():
    assert merge_sign(0b001, 0b010) == 1
    assert merge_sign(0b010, 0b001) == -1
    assert merge_sign(0b101, 0b010) == -1
    assert merge_sign(0, 0b111) == 1


def test_wedge_basis():
    b = E1.wedge(E2)
    assert b.grade == 2 and b.coefficient(0b11).is_one()
    assert E2.wedge(E1) == -b
    assert E1.scale(X).wedge(E1.scale(Y)).is_zero()


def test_wedge_kind_and_chart_guards():
    with pytest.raises(TypeError):
        wedge(E1, D1)
    other = Chart(("x", "y", "z"))
    with pytest.raises(ValueError):
        wedge(E1, Multivector.basis_vector(other, 0))


def test_add_grade_guard():
    with pytest.raises(ValueError):
        E1 + E1.wedge(E2)
    # typed zeros are absorbing regardless of nominal grade
    assert E1 + Multivector.zero(CH, 2) == E1


def test_zero_equality_ignores_nominal_grade():
    assert Multivector.zero(CH, 0) == Multivector.zero(CH, 2)
    assert DifferentialForm(CH, 5, {}) == DifferentialForm.zero(CH, 0)


def test_pairing():
    assert pairing(D1.wedge(D2), E1.wedge(E2)).is_one()
    assert pairing(D1.wedge(D2), E2.wedge(E1)) == CH.constant(-1)
    assert pairing(D1, E1.scale(X * X) + E2) == X * X
    assert pairing(D1, E1.wedge(E2)).is_zero()
    # a lower grade contracts into a non-zero form, but pairs to 0
    assert pairing(D1.wedge(D2), E1).is_zero()
    assert pairing(DifferentialForm.scalar(CH, X), Multivector.scalar(CH, Y)) == X * Y


def test_interior_product_form():
    dxdy = D1.wedge(D2)
    assert interior_product_form(E1, dxdy) == D2
    assert interior_product_form(E2, dxdy) == -D1
    full = interior_product_form(E1.wedge(E2), dxdy)
    assert full.grade == 0 and full.scalar_value().is_one()
    assert interior_product_form(E1.wedge(E2), D1).is_zero()


def test_interior_product_vector():
    e12 = E1.wedge(E2)
    assert interior_product_vector(D1, e12) == E2
    assert interior_product_vector(D2, e12) == -E1
    assert interior_product_vector(D1, E2).is_zero()


def test_flat():
    assert flat(VOL, E1) == D2
    assert flat(VOL, E2) == -D1
    top = flat(VOL, E1.wedge(E2))
    assert top.grade == 0 and top.scalar_value().is_one()
    h = X * X + Y
    assert flat(VOL, E1.wedge(E2).scale(h)).scalar_value() == h


def test_sharp():
    assert sharp(VOL, D2) == E1
    assert sharp(VOL, D1) == -E2
    # gradient-like form: h_x dx + h_y dy maps to h_y dx-dual minus h_x
    h = X * X * Y
    form = D1.scale(h.diff(0)) + D2.scale(h.diff(1))
    assert sharp(VOL, form) == E1.scale(h.diff(1)) - E2.scale(h.diff(0))


def test_flat_sharp_roundtrip_random():
    rng = random.Random(7)
    for _ in range(30):
        chart = random_chart(rng)
        vol = random_volume(rng, chart)
        a = random_multivector(rng, chart, rng.randint(0, chart.dim))
        assert sharp(vol, flat(vol, a)) == a
        w = random_form(rng, chart, rng.randint(0, chart.dim))
        assert flat(vol, sharp(vol, w)) == w


def test_flat_linearity_over_functions():
    rng = random.Random(8)
    for _ in range(20):
        chart = random_chart(rng)
        vol = random_volume(rng, chart)
        m = random_multiplier(rng, chart.dim)
        a = random_multivector(rng, chart, rng.randint(1, chart.dim))
        assert flat(vol, a.scale(m)) == flat(vol, a).scale(m)


def test_duality_defines_interior_product():
    rng = random.Random(9)
    for _ in range(40):
        chart = random_chart(rng)
        ga = rng.randint(0, 2)
        gb = rng.randint(0, 2)
        a = random_multivector(rng, chart, min(ga, chart.dim))
        b = random_multivector(rng, chart, min(gb, chart.dim))
        w = random_form(rng, chart, min(ga + gb, chart.dim))
        assert pairing(interior_product_form(a, w), b) == pairing(w, a.wedge(b))


def test_wedge_antisymmetry_random():
    rng = random.Random(10)
    for _ in range(30):
        chart = random_chart(rng)
        ga = rng.randint(0, 2)
        gb = rng.randint(0, 2)
        a = random_multivector(rng, chart, ga)
        b = random_multivector(rng, chart, gb)
        sign = -1 if (ga * gb) % 2 else 1
        assert a.wedge(b) == b.wedge(a).scale(sign)


def test_exterior_derivative():
    assert exterior_derivative(D2.scale(X)) == D1.wedge(D2)
    assert exterior_derivative(D1).is_zero()
    f = DifferentialForm.scalar(CH, X * X + Y)
    df = exterior_derivative(f)
    assert df == D1.scale(X.scale(2)) + D2


def test_d_squared_zero_random():
    rng = random.Random(11)
    for _ in range(30):
        chart = random_chart(rng)
        w = random_form(rng, chart, rng.randint(0, chart.dim))
        assert exterior_derivative(exterior_derivative(w)).is_zero()


def test_leibniz_rule_random():
    rng = random.Random(12)
    for _ in range(20):
        chart = random_chart(rng)
        f = random_multiplier(rng, chart.dim)
        w = random_form(rng, chart, rng.randint(0, chart.dim - 1))
        df = DifferentialForm.differential(chart, f)
        lhs = exterior_derivative(w.scale(f))
        assert lhs == df.wedge(w) + exterior_derivative(w).scale(f)


def test_witten_derivative():
    assert witten_derivative(0, X, D2.scale(Y)) == exterior_derivative(D2.scale(Y))
    assert witten_derivative(1, X, D2) == D1.wedge(D2)


def test_marsden_derivative():
    rng = random.Random(13)
    for _ in range(10):
        chart = random_chart(rng)
        w = random_form(rng, chart, rng.randint(0, chart.dim - 1))
        assert marsden_derivative(chart.one_rf(), w) == exterior_derivative(w)
    out = marsden_derivative(RationalFunc(X.num), D2)
    assert out.coefficient(0b11) == RationalFunc(CH.one_rf().num, X.num)
    with pytest.raises(ZeroDivisionError):
        marsden_derivative(CH.zero_rf(), D2)


def test_volume_guards():
    with pytest.raises(ValueError):
        VolumeForm(CH, CH.zero_rf())
    with pytest.raises(ZeroDivisionError):
        VOL.scaled(CH.zero_rf())
    assert VOL.scaled(X).density == X


def test_to_string():
    assert Multivector.zero(CH, 1).to_string() == "0"
    b = E1.wedge(E2).scale(X * X + Y) + Multivector.zero(CH, 2)
    assert b.to_string() == "(x^2 + y) e1^^e2"
    mixed = E1.scale(X) + E2.scale(CH.constant(-1))
    assert mixed.to_string() == "(x) e1 + (-1) e2"
    assert Multivector.scalar(CH, X).to_string() == "x"
