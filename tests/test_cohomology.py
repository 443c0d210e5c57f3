"""Truncated cohomology of the curl-free complex: kernels, images, reports."""

import functools
import random
from fractions import Fraction

import pytest

import mvcurl.cohomology as cohomology
from mvcurl.cohomology import (
    NonExactError,
    TruncatedComplexReport,
    exact_basis,
    lichnerowicz_delta,
    truncated_exact_cohomology,
)
from mvcurl.curl import curl, schouten
from mvcurl.exterior import Chart, Multivector, VolumeForm
from mvcurl.identities import random_polynomial
from mvcurl.poisson import NonPoissonError, StructureConstants, lie_poisson
from mvcurl.ring import Polynomial, RationalFunc
from mvcurl.solver import (
    ExactMatrix,
    MonomialSpace,
    collect_linear_system,
    vector_span_contains,
)

from oracles import direct_columns

F = Fraction


def plane():
    chart = Chart(["x", "y"])
    return chart, VolumeForm(chart, chart.one_rf())


def so3_setup():
    chart = Chart(["x", "y", "z"])
    constants = StructureConstants(3, {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1})
    return chart, VolumeForm(chart, chart.one_rf()), lie_poisson(constants, chart)


# -- bases ------------------------------------------------------------------


def test_multivector_basis_enumeration():
    chart, _ = plane()
    mb = MonomialSpace(chart, 1, 1)
    # two blades, three monomials each, blade-major order
    assert mb.dimension == 6
    assert mb.basis[0] == Multivector.basis_vector(chart, 0)
    assert mb.basis[3] == Multivector.basis_vector(chart, 1)
    with pytest.raises(ValueError):
        MonomialSpace(chart, 3, 1)


def test_coordinates_roundtrip_and_rejection():
    chart, _ = plane()
    mb = MonomialSpace(chart, 1, 2)
    rng = random.Random(7)
    coeffs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(mb.dimension)]
    assert mb.coordinates(mb.combine(coeffs)) == coeffs
    cubic = Multivector(chart, 1, {0b01: RationalFunc(Polynomial.monomial(2, (3, 0)))})
    with pytest.raises(ValueError, match="degree bound"):
        mb.coordinates(cubic)
    with pytest.raises(ValueError, match="polynomial"):
        mb.coordinates(Multivector(
            chart, 1, {0b01: RationalFunc(Polynomial.constant(2, 1),
                                          Polynomial.variable(2, 0))}))


def test_coordinates_refuse_another_chart():
    # the same blade on (u, v) is not a member, as + already says
    chart, _ = plane()
    mb = MonomialSpace(chart, 1, 1)
    other = Multivector.basis_vector(Chart(["u", "v"]), 0)
    with pytest.raises(ValueError, match="chart mismatch"):
        mb.basis[0] + other
    with pytest.raises(ValueError, match="chart mismatch"):
        mb.coordinates(other)


def test_exact_basis_dimensions():
    chart, vol = plane()
    # divergence is one linear condition on six affine coefficients
    assert len(exact_basis(vol, 1, 1)) == 5
    top = exact_basis(vol, 2, 0)
    assert len(top) == 1
    assert top[0] == Multivector(chart, 2, {0b11: chart.one_rf()})
    for field in exact_basis(vol, 1, 2):
        assert curl(vol, field).is_zero()


def test_exact_basis_grade_zero_is_everything():
    chart, vol = plane()
    assert len(exact_basis(vol, 0, 2)) == 6


def test_basis_past_the_ansatz_budget_is_refused():
    chart = Chart([f"x{i}" for i in range(1, 17)])
    # C(16, 8) = 12870 blades of grade 8, before any monomial is enumerated
    with pytest.raises(ValueError, match="ansatz too large: 12870 "):
        MonomialSpace(chart, 8, 0)


# -- the differential -------------------------------------------------------


def test_delta_squares_to_zero():
    chart, vol, pi = so3_setup()
    rng = random.Random(8)
    for _ in range(6):
        terms = {}
        for mask in (0b001, 0b010, 0b100):
            p = random_polynomial(rng, 3, max_degree=2, max_terms=2)
            if not p.is_zero():
                terms[mask] = RationalFunc(p)
        a = Multivector(chart, 1, terms)
        assert lichnerowicz_delta(pi, lichnerowicz_delta(pi, a)).is_zero()


def test_delta_requires_poisson():
    chart = Chart(["x", "y", "z"])
    x = RationalFunc(Polynomial.variable(3, 0))
    bad = Multivector(chart, 2, {0b011: chart.one_rf(), 0b101: -x})
    with pytest.raises(NonPoissonError):
        lichnerowicz_delta(bad, Multivector.basis_vector(chart, 0))


def test_delta_preserves_curl_free_subspace():
    chart, vol, pi = so3_setup()
    for a in exact_basis(vol, 1, 2):
        assert curl(vol, lichnerowicz_delta(pi, a)).is_zero()


# -- truncated reports ------------------------------------------------------


def test_symplectic_plane_slot_zero():
    chart, vol = plane()
    pi = Multivector(chart, 2, {0b11: chart.one_rf()})
    report = truncated_exact_cohomology(vol, pi, 0, 3)
    assert report == TruncatedComplexReport(
        k=0, domain_degree_bound=3, dim_exact_k=10, dim_kernel=1,
        dim_image_from_km1=0, truncated_h_dim=1)
    assert report.caveat


def test_symplectic_plane_higher_slots():
    chart, vol = plane()
    pi = Multivector(chart, 2, {0b11: chart.one_rf()})
    mid = truncated_exact_cohomology(vol, pi, 1, 2)
    assert (mid.dim_kernel, mid.dim_image_from_km1, mid.truncated_h_dim) == (9, 9, 0)
    top = truncated_exact_cohomology(vol, pi, 2, 2)
    assert (top.dim_kernel, top.dim_image_from_km1, top.truncated_h_dim) == (1, 0, 1)


def test_so3_slot_zero_counts_casimirs():
    chart, vol, pi = so3_setup()
    report = truncated_exact_cohomology(vol, pi, 0, 2)
    assert report.dim_kernel == 2
    assert report.truncated_h_dim == 2


def test_slot_zero_kernel_matches_casimir_solve():
    from mvcurl.solver import AnsatzSpace, casimir_solve

    chart, vol, pi = so3_setup()
    report = truncated_exact_cohomology(vol, pi, 0, 2)
    assert report.dim_kernel == len(casimir_solve(pi, AnsatzSpace(chart, 2)))
    plane_chart, plane_vol = plane()
    sympl = Multivector(plane_chart, 2, {0b11: plane_chart.one_rf()})
    report = truncated_exact_cohomology(plane_vol, sympl, 0, 3)
    assert report.dim_kernel == len(casimir_solve(sympl, AnsatzSpace(plane_chart, 3)))


def test_delta_of_function_is_minus_hamiltonian_field():
    from mvcurl.poisson import hamiltonian_field

    chart, _ = plane()
    pi = Multivector(chart, 2, {0b11: chart.one_rf()})
    x = RationalFunc(Polynomial.variable(2, 0))
    y = RationalFunc(Polynomial.variable(2, 1))
    for f in (x, x * y + y):
        delta_f = lichnerowicz_delta(pi, Multivector.scalar(chart, f))
        assert delta_f == hamiltonian_field(pi, f).scale(-1)
    assert lichnerowicz_delta(pi, pi).is_zero()


def test_rejects_non_unimodular_and_non_polynomial():
    chart, vol = plane()
    x = RationalFunc(Polynomial.variable(2, 0))
    with pytest.raises(NonExactError):
        truncated_exact_cohomology(vol, Multivector(chart, 2, {0b11: x}), 0, 2)
    with pytest.raises(ValueError, match="polynomial"):
        truncated_exact_cohomology(
            vol, Multivector(chart, 2, {0b11: x.inverse()}), 0, 2)
    with pytest.raises(ValueError, match="grade"):
        truncated_exact_cohomology(vol, Multivector.basis_vector(chart, 0), 0, 2)


def test_exact_kernel_embeds_in_full_kernel():
    # kernel vectors computed on the curl-free subcomplex must lie inside the
    # kernel computed on the full polynomial complex
    chart, vol, pi = so3_setup()
    delta = lambda a: lichnerowicz_delta(pi, a)
    ambient = MonomialSpace(chart, 1, 1)
    full_kernel = collect_linear_system(delta, ambient).nullspace()

    exact = exact_basis(vol, 1, 1)
    sub_delta = ExactMatrix.from_columns(direct_columns(delta, exact, chart.dim))
    for v in sub_delta.nullspace():
        member = None
        for c, b in zip(v, exact):
            if c:
                member = b.scale(c) if member is None else member + b.scale(c)
        assert member is not None
        assert vector_span_contains(full_kernel, ambient.coordinates(member))


# -- stacked ranks against the basis route and the graded closed forms -------

LIE_ALGEBRAS = {
    "so3": {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1},
    "sl2": {(0, 1, 1): 2, (0, 2, 2): -2, (1, 2, 0): 1},
    "heisenberg": {(0, 1, 2): 1},
}
LIE_CHART = Chart(["x", "y", "z"])
LIE_VOLUME = VolumeForm(LIE_CHART, LIE_CHART.one_rf())


def lie_bivector(name):
    return lie_poisson(StructureConstants(3, LIE_ALGEBRAS[name]), LIE_CHART)


@functools.lru_cache(maxsize=None)
def lie_report(name, k, max_degree):
    return truncated_exact_cohomology(LIE_VOLUME, lie_bivector(name), k,
                                      max_degree)


@functools.lru_cache(maxsize=None)
def lie_exact_basis(grade, max_degree):
    return exact_basis(LIE_VOLUME, grade, max_degree)


def basis_route(pi, k, max_degree):
    """(dim exact, dim kernel, dim image) the long way: explicit curl-free
    bases from a nullspace, then the rank of [pi, .] on each of them."""
    def delta_rank(elements):
        return ExactMatrix.from_columns(direct_columns(
            lambda a: schouten(pi, a), elements, LIE_CHART.dim)).rank()

    domain = lie_exact_basis(k, max_degree)
    lower = max_degree - max(c.num.total_degree() for c in pi.terms.values()) + 1
    image = delta_rank(lie_exact_basis(k - 1, lower)) if k > 0 and lower >= 0 else 0
    return len(domain), len(domain) - delta_rank(domain), image


@pytest.mark.parametrize("name", sorted(LIE_ALGEBRAS))
def test_stacked_ranks_match_the_basis_route(name):
    pi = lie_bivector(name)
    for k in range(4):
        for d in range(5):
            r = lie_report(name, k, d)
            assert (r.dim_exact_k, r.dim_kernel, r.dim_image_from_km1) \
                == basis_route(pi, k, d), (k, d)


def graded_h_dim(name, k, degree):
    """Dimension of the degree-d piece of H^k for a linear pi with unit
    density, where [pi, .] keeps degrees and the curl lowers them by one."""
    if k == 3:
        return int(degree == 0)
    if name == "heisenberg":
        return 1 if k == 0 else degree + 2
    if k == 1:
        return 0
    return int(degree % 2 == k // 2)  # so(3), sl(2): H^0 even, H^2 odd degrees


@pytest.mark.parametrize("name", sorted(LIE_ALGEBRAS))
def test_truncated_dimensions_grow_by_the_graded_closed_forms(name):
    for k in range(4):
        h = [lie_report(name, k, d).truncated_h_dim for d in range(6)]
        steps = [b - a for a, b in zip([0] + h, h)]
        assert steps == [graded_h_dim(name, k, d) for d in range(6)], k


def test_report_takes_ranks_without_a_curl_free_basis(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the report must not build curl-free bases")

    calls = {"curl": 0, "schouten": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(cohomology, "exact_basis", forbidden)
    monkeypatch.setattr(cohomology, "kernel_basis", forbidden)
    monkeypatch.setattr(ExactMatrix, "nullspace", forbidden)
    monkeypatch.setattr(MonomialSpace, "combine", forbidden)
    monkeypatch.setattr(cohomology, "curl", counted("curl", curl))
    monkeypatch.setattr(cohomology, "schouten", counted("schouten", schouten))
    chart, vol, pi = so3_setup()
    report = truncated_exact_cohomology(vol, pi, 1, 2)
    assert (report.dim_exact_k, report.dim_kernel,
            report.dim_image_from_km1) == (26, 8, 8)
    # each operator once per seed blade (3 of grade 1, 1 of grade 0) and
    # once per seed blade times each of x, y, z, once more per blade on its
    # last element (the first-order check), plus the two linearity
    # spot checks per assembly; the curl once more on pi itself
    per_grade = (3 * (1 + 3 + 1) + 2) + (1 * (1 + 3 + 1) + 2)
    assert per_grade == 24 < (MonomialSpace(chart, 1, 2).dimension + 2
                              + MonomialSpace(chart, 0, 2).dimension + 2)
    assert calls == {"curl": per_grade + 1, "schouten": per_grade}
