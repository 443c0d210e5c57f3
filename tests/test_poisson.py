"""Poisson bivectors: Jacobi checks, Hamiltonian/modular fields, linear
structures from Lie algebra constants, and unimodularity witnesses."""

import random
import re
from fractions import Fraction

import pytest

from mvcurl.curl import (
    curl,
    curl_scaled,
    divergence,
    is_last_multiplier,
    last_multiplier_residual,
    schouten,
    vector_apply,
)
from mvcurl.exterior import Chart, Multivector, VolumeForm, wedge
from mvcurl.identities import random_polynomial
from mvcurl.poisson import (
    NonPoissonError,
    StructureConstants,
    hamiltonian_field,
    jacobi_residual,
    lie_poisson,
    lm_system_residuals,
    modular_field,
    two_dim_multiplier,
    unimodularity_check,
)
from mvcurl.ring import Polynomial, RationalFunc

F = Fraction


def var(nvars: int, i: int) -> RationalFunc:
    return RationalFunc(Polynomial.variable(nvars, i))


def plane():
    chart = Chart(["x", "y"])
    return chart, VolumeForm(chart, chart.one_rf())


def so3_setup():
    constants = StructureConstants(3, {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1})
    chart = Chart(["x", "y", "z"])
    return constants, chart, lie_poisson(constants, chart)


# -- Jacobi -----------------------------------------------------------------


def test_every_planar_bivector_is_poisson():
    chart, _ = plane()
    rng = random.Random(20)
    for _ in range(10):
        h = RationalFunc(random_polynomial(rng, 2, max_degree=3, max_terms=3))
        pi = Multivector(chart, 2, {0b11: h})
        assert jacobi_residual(pi).is_zero()


def test_so3_is_poisson():
    _, _, pi = so3_setup()
    assert jacobi_residual(pi).is_zero()


def test_contact_dual_bivector_is_not_poisson():
    # dual to dz + x dy, which fails the Frobenius condition
    chart = Chart(["x", "y", "z"])
    x = var(3, 0)
    pi = Multivector(chart, 2, {0b011: chart.one_rf(), 0b101: -x})
    assert not jacobi_residual(pi).is_zero()
    with pytest.raises(NonPoissonError):
        hamiltonian_field(pi, var(3, 0))


def test_jacobi_residual_rejects_wrong_grade():
    chart, _ = plane()
    with pytest.raises(ValueError):
        jacobi_residual(Multivector.basis_vector(chart, 0))


# -- Hamiltonian fields -----------------------------------------------------


def test_hamiltonian_field_orientation():
    chart, _ = plane()
    pi = Multivector(chart, 2, {0b11: chart.one_rf()})
    assert hamiltonian_field(pi, var(2, 0)) == Multivector.basis_vector(chart, 1)
    assert hamiltonian_field(pi, var(2, 1)) == Multivector.basis_vector(chart, 0).scale(-1)


def test_hamiltonian_preserves_its_own_hamiltonian():
    _, chart, pi = so3_setup()
    x, y, z = (var(3, i) for i in range(3))
    casimir = x * x + y * y + z * z
    for f in (x, y * z, x + z):
        field = hamiltonian_field(pi, f)
        assert vector_apply(field, f).is_zero()
        assert vector_apply(field, casimir).is_zero()


# -- modular fields ---------------------------------------------------------


def test_modular_field_planar_formula():
    chart, vol = plane()
    h = var(2, 0) ** 2 + var(2, 1) ** 2 + RationalFunc.constant(2, 1)
    pi = Multivector(chart, 2, {0b11: h})
    # components are (dh/dy, -dh/dx)
    assert modular_field(vol, pi) == Multivector(
        chart, 1, {0b01: h.diff(1), 0b10: -h.diff(0)})


def test_modular_vanishes_for_so3():
    _, chart, pi = so3_setup()
    vol = VolumeForm(chart, chart.one_rf())
    assert modular_field(vol, pi).is_zero()


def test_modular_of_solvable_algebra_is_constant():
    # [e0, e1] = e1 gives the affine structure pi = y d/dx ^ d/dy
    constants = StructureConstants(2, {(0, 1, 1): 1})
    chart, vol = plane()
    pi = lie_poisson(constants, chart)
    assert pi == Multivector(chart, 2, {0b11: var(2, 1)})
    # trace of ad_{e0} shows up as the constant component
    assert modular_field(vol, pi) == Multivector.basis_vector(chart, 0)


def test_modular_generates_divergence_of_hamiltonian_fields():
    chart, vol = plane()
    rng = random.Random(21)
    for _ in range(10):
        h = RationalFunc(random_polynomial(rng, 2, max_degree=2, max_terms=3))
        pi = Multivector(chart, 2, {0b11: h})
        field = modular_field(vol, pi)
        f = RationalFunc(random_polynomial(rng, 2, max_degree=2, max_terms=2))
        assert divergence(vol, hamiltonian_field(pi, f)) == vector_apply(field, f)


def test_modular_with_scaled_volume_differs_by_log_term():
    chart, _ = plane()
    pi = Multivector(chart, 2, {0b11: chart.one_rf()})
    density = var(2, 0) ** 2 + RationalFunc.constant(2, 1)
    vol = VolumeForm(chart, density)
    field = modular_field(vol, pi)
    # curl against f * leb subtracts the Hamiltonian field of log f
    expected = hamiltonian_field(pi, density).scale(density.inverse()).scale(-1)
    assert field == expected


# -- component residual system ----------------------------------------------


def test_lm_system_matches_curl_residual():
    chart, vol = plane()
    rng = random.Random(22)
    for _ in range(10):
        h = RationalFunc(random_polynomial(rng, 2, max_degree=2, max_terms=3))
        m = RationalFunc(random_polynomial(rng, 2, max_degree=2, max_terms=2))
        pi = Multivector(chart, 2, {0b11: h})
        parts = lm_system_residuals(vol, m, pi)
        direct = last_multiplier_residual(vol, m, pi)
        assert direct == Multivector(
            chart, 1, {1 << i: c for i, c in enumerate(parts) if not c.is_zero()})


def test_lm_system_planar_form():
    chart, vol = plane()
    h = var(2, 0) * var(2, 1)
    m = var(2, 0) + RationalFunc.constant(2, 2)
    pi = Multivector(chart, 2, {0b11: h})
    parts = lm_system_residuals(vol, m, pi)
    mh = m * h
    assert parts == [mh.diff(1), -mh.diff(0)]


def test_lm_system_requires_unit_density():
    chart = Chart(["x", "y"])
    vol = VolumeForm(chart, var(2, 0) ** 2 + RationalFunc.constant(2, 1))
    pi = Multivector(chart, 2, {0b11: chart.one_rf()})
    with pytest.raises(ValueError):
        lm_system_residuals(vol, chart.one_rf(), pi)


# -- structure constants ----------------------------------------------------


def test_structure_constant_accessors():
    c = StructureConstants(3, {(0, 1, 2): F(1, 2)})
    assert c.get(0, 1, 2) == F(1, 2)
    assert c.get(1, 0, 2) == F(-1, 2)
    assert c.get(0, 0, 2) == 0
    assert c.get(0, 2, 1) == 0


def test_structure_constant_validation():
    with pytest.raises(ValueError, match="Jacobi"):
        StructureConstants(3, {(0, 1, 1): 1, (0, 2, 2): 1, (1, 2, 0): 1})
    with pytest.raises(ValueError, match="out of range"):
        StructureConstants(2, {(0, 2, 1): 1})
    with pytest.raises(ValueError, match="diagonal"):
        StructureConstants(2, {(0, 0, 1): 1})
    with pytest.raises(ValueError, match="conflicting"):
        StructureConstants(3, {(0, 1, 2): 1, (1, 0, 2): 1})
    # same value stated both ways is fine
    c = StructureConstants(3, {(0, 1, 2): 1, (1, 0, 2): -1})
    assert c.get(0, 1, 2) == 1


def brute_force_jacobi(n, entries):
    """The first index triple i < j < k, in lexicographic order, whose Jacobi
    sum is non-zero for some output index, or None."""
    def c(i, j, k):
        if i == j:
            return 0
        return entries.get((i, j, k), 0) if i < j else -entries.get((j, i, k), 0)

    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(n):
                    if sum(c(i, j, m) * c(m, k, l) + c(j, k, m) * c(m, i, l)
                           + c(k, i, m) * c(m, j, l) for m in range(n)):
                        return (i, j, k)
    return None


@pytest.mark.parametrize("seed", range(40))
def test_jacobi_check_names_the_brute_force_triple(seed):
    # the bivector route ([pi, pi] = 0) accepts exactly the constants the
    # index-triple brute force accepts, and names the same first triple
    rng = random.Random(f"jacobi:{seed}")
    n = rng.choice([2, 3, 4, 5])
    entries = {}
    for _ in range(rng.randint(1, 5)):
        i, j = sorted(rng.sample(range(n), 2))
        entries[(i, j, rng.randrange(n))] = rng.choice([-2, -1, F(1, 2), 1, 2])
    triple = brute_force_jacobi(n, entries)
    if triple is None:
        assert StructureConstants(n, entries).c == {
            k: F(v) for k, v in entries.items()}
    else:
        message = f"Jacobi identity fails on triple {triple}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            StructureConstants(n, entries)


def test_jacobi_check_on_a_direct_sum():
    # so(3) + so(3) passes; breaking one constant of the second summand
    # names its triple
    so3 = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1}
    both = {**so3, (3, 4, 5): 1, (4, 5, 3): 1, (5, 3, 4): 1}
    assert len(StructureConstants(6, both).c) == 6
    with pytest.raises(ValueError, match=r"triple \(3, 4, 5\)"):
        StructureConstants(6, {**both, (3, 4, 3): 1})


def test_lie_poisson_requires_matching_chart():
    constants, _, _ = so3_setup()
    with pytest.raises(ValueError):
        lie_poisson(constants, Chart(["x", "y"]))


def test_heisenberg_lie_poisson():
    # [e0, e1] = e2 central: pi = z d/dx ^ d/dy, always Poisson, modular zero
    constants = StructureConstants(3, {(0, 1, 2): 1})
    chart = Chart(["x", "y", "z"])
    pi = lie_poisson(constants, chart)
    assert pi == Multivector(chart, 2, {0b011: var(3, 2)})
    vol = VolumeForm(chart, chart.one_rf())
    assert modular_field(vol, pi).is_zero()


def test_multiplier_iff_scaled_volume_curl_vanishes():
    # m is a multiplier exactly when the bivector is curl-free for m * vol
    chart, vol = plane()
    rng = random.Random(24)
    for _ in range(10):
        h = RationalFunc(random_polynomial(rng, 2, max_degree=2, max_terms=2,
                                           allow_zero=False))
        pi = Multivector(chart, 2, {0b11: h})
        for m in (two_dim_multiplier(h),
                  RationalFunc(random_polynomial(rng, 2, max_degree=1,
                                                 max_terms=2, allow_zero=False))):
            assert is_last_multiplier(vol, m, pi) == curl_scaled(vol, m, pi).is_zero()


def test_commuting_divergence_free_wedge_is_exact():
    chart = Chart(["x", "y", "z"])
    vol = VolumeForm(chart, chart.one_rf())
    y = var(3, 1)
    # X = y^2 d/dx and Y = (y+1) d/dz commute and are divergence-free
    big_x = Multivector(chart, 1, {0b001: y * y})
    big_y = Multivector(chart, 1, {0b100: y + RationalFunc.constant(3, 1)})
    assert schouten(big_x, big_y).is_zero()
    assert divergence(vol, big_x).is_zero()
    assert divergence(vol, big_y).is_zero()
    product = wedge(big_x, big_y)
    assert jacobi_residual(product).is_zero()
    assert curl(vol, product).is_zero()


def algebra_zoo():
    yield StructureConstants(2, {})
    yield StructureConstants(2, {(0, 1, 1): 1})
    yield StructureConstants(3, {(0, 1, 2): 1})
    yield StructureConstants(3, {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1})
    yield StructureConstants(3, {(0, 1, 1): 2, (0, 2, 2): -2, (1, 2, 0): 1})
    yield StructureConstants(3, {(0, 1, 1): 1})
    yield StructureConstants(4, {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1})
    yield StructureConstants(4, {(0, 1, 1): 1, (2, 3, 3): 1})


def test_lie_poisson_modular_is_adjoint_trace():
    # against the unit volume the modular field is constant with the i-th
    # component equal to the trace sum_j c_ij^j
    for constants in algebra_zoo():
        pi = lie_poisson(constants)
        chart = pi.chart
        vol = VolumeForm(chart, chart.one_rf())
        n = constants.dim
        expected_terms = {}
        for i in range(n):
            trace = sum(constants.get(i, j, j) for j in range(n))
            if trace:
                expected_terms[1 << i] = RationalFunc.constant(n, trace)
        assert modular_field(vol, pi) == Multivector(chart, 1, expected_terms)


def test_lie_poisson_default_chart_names():
    constants = StructureConstants(2, {(0, 1, 1): 1})
    pi = lie_poisson(constants)
    assert pi.chart.names == ("x1", "x2")


# -- unimodularity witnesses ------------------------------------------------


def test_unimodularity_witness_for_unimodular_structures():
    _, chart, pi = so3_setup()
    vol = VolumeForm(chart, chart.one_rf())
    rho = unimodularity_check(vol, pi, 2)
    assert rho is not None
    assert hamiltonian_field(pi, rho) == modular_field(vol, pi)


def test_unimodularity_witness_absent_for_affine_structure():
    chart, vol = plane()
    pi = Multivector(chart, 2, {0b11: var(2, 0)})
    # would need x * d(rho)/dx = -1, impossible for polynomial rho
    assert unimodularity_check(vol, pi, 4) is None


def test_unimodularity_witness_solvable_algebra():
    constants = StructureConstants(2, {(0, 1, 1): 1})
    chart, vol = plane()
    pi = lie_poisson(constants, chart)
    assert unimodularity_check(vol, pi, 3) is None


# -- planar reciprocal multipliers ------------------------------------------


def test_two_dim_multiplier_cancels_curl():
    chart, vol = plane()
    rng = random.Random(23)
    for _ in range(8):
        h = RationalFunc(random_polynomial(rng, 2, max_degree=2, max_terms=3,
                                           allow_zero=False))
        pi = Multivector(chart, 2, {0b11: h})
        m = two_dim_multiplier(h)
        assert curl(vol, pi.scale(m)).is_zero()
        assert lm_system_residuals(vol, m, pi) == [m.zero(2), m.zero(2)]


def test_two_dim_multiplier_rejects_zero():
    with pytest.raises(ZeroDivisionError):
        two_dim_multiplier(RationalFunc.zero(2))
