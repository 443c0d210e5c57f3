"""Exact linear algebra and ansatz-search tests with hand-computed oracles."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, seed, settings, strategies as st

from mvcurl import cli, solver
from mvcurl.cohomology import _exact_and_kernel_dims, exact_basis
from mvcurl.curl import curl, schouten
from mvcurl.exterior import Chart, DifferentialForm, Multivector, VolumeForm
from mvcurl.identities import (density_pool, denominator_pool, random_multiplier,
                               random_multivector, random_polynomial)
from mvcurl.poisson import unimodularity_check
from mvcurl.ring import Polynomial, RationalFunc
from mvcurl.solver import (
    MAX_ANSATZ_SIZE,
    AnsatzSpace,
    ExactMatrix,
    MonomialSpace,
    casimir_solve,
    collect_affine_system,
    collect_linear_system,
    function_span_contains,
    function_spans_equal,
    kernel_basis,
    lm_solve,
    monomial_exponents,
    vector_span_contains,
)

from oracles import combined_by_elements, direct_columns, monomial_element

F = Fraction


def grlex_key(exponents):
    """Sort key for the graded lexicographic order (total degree first)."""
    return (sum(exponents), exponents)


def rf(poly: Polynomial) -> RationalFunc:
    return RationalFunc(poly)


def var(nvars: int, i: int) -> RationalFunc:
    return RationalFunc(Polynomial.variable(nvars, i))


# -- monomial enumeration ---------------------------------------------------


def test_monomial_exponents_order_and_count():
    exps = monomial_exponents(2, 2)
    assert exps == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    # dimension of degree <= d in n variables is C(n + d, n)
    assert len(monomial_exponents(3, 3)) == 20
    # the enumeration is already in grlex order, with no sort
    for n in range(1, 6):
        for d in range(7):
            exps = monomial_exponents(n, d)
            assert exps == sorted(exps, key=grlex_key)
            assert len(set(exps)) == comb(n + d, n)


def test_ansatz_budget_counts_before_enumerating():
    # so(3) casimir at degree 20 stays accepted; degree 21 has 2,024 monomials
    assert len(monomial_exponents(3, 20)) == 1771 <= MAX_ANSATZ_SIZE
    with pytest.raises(ValueError, match="ansatz too large: 2024 "):
        monomial_exponents(3, 21)
    # a grade-8 multivector in 16 dimensions is over budget at degree 0
    with pytest.raises(ValueError, match="ansatz too large: 12870 "):
        monomial_exponents(16, 0, blades=12870)
    with pytest.raises(ValueError, match="ansatz too large"):
        AnsatzSpace(Chart(["x", "y", "z"]), 10 ** 9)
    with pytest.raises(ValueError, match="non-negative"):
        monomial_exponents(2, -1)


def test_ansatz_space_polynomial_basis():
    space = AnsatzSpace(Chart(["x", "y"]), 1)
    assert space.dimension == 3
    assert [b.to_string(("x", "y")) for b in space.basis] == ["1", "y", "x"]
    combined = space.combine([F(1), F(0), F(-2)])
    assert combined.to_string(("x", "y")) == "-2*x + 1"


def test_ansatz_space_fixed_denominator():
    chart = Chart(["x"])
    q = Polynomial.variable(1, 0)
    space = AnsatzSpace(chart, 1, denominator=q)
    assert [b.to_string(("x",)) for b in space.basis] == ["(1)/(x)", "1"]
    with pytest.raises(ZeroDivisionError):
        AnsatzSpace(chart, 1, denominator=Polynomial.zero(1))


def test_ansatz_coordinates_over_a_denominator():
    chart = Chart(["x", "y"])
    q = Polynomial(2, {(2, 0): 3, (0, 0): 1})  # 3x^2 + 1, not monic
    space = AnsatzSpace(chart, 1, denominator=q)
    coeffs = [F(2), F(0), F(-1, 3)]
    member = space.combine(coeffs)
    assert member == (RationalFunc.constant(2, 2) - var(2, 0).scale(F(1, 3))) \
        / RationalFunc(q)
    assert space.coordinates(member) == coeffs
    with pytest.raises(ValueError, match="degree bound"):
        space.coordinates(var(2, 0) * var(2, 0) / RationalFunc(q))
    with pytest.raises(ValueError, match="polynomial"):
        space.coordinates(var(2, 0).inverse())


def test_function_space_coordinates_refuse_another_dimension():
    # a constant in three variables packs to the key of the constant here,
    # and x in one variable to a key past the degree bound
    space = AnsatzSpace(Chart(["x", "y"]), 1)
    for member in (RationalFunc.constant(3, 5), var(1, 0),
                   RationalFunc.zero(3)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            space.coordinates(member)
    assert space.coordinates(RationalFunc.constant(2, 5)) == [5, 0, 0]


def test_multivector_space_coordinates_refuse_a_form():
    # dx would read as e1 were its kind not checked
    chart = Chart(["x", "y"])
    with pytest.raises(ValueError, match="member is a DifferentialForm, "
                                         "not a Multivector"):
        MonomialSpace(chart, 1, 1).coordinates(
            DifferentialForm.basis_form(chart, 0))


def test_function_space_coordinates_refuse_a_multivector():
    chart = Chart(["x", "y"])
    with pytest.raises(ValueError, match="member is a Multivector, "
                                         "not a RationalFunc"):
        AnsatzSpace(chart, 1).coordinates(
            Multivector.scalar(chart, RationalFunc.constant(2, 1)))


@st.composite
def spaces_and_vectors(draw):
    """A function space with or without a denominator, or a grade-0..n
    multivector space, and a coefficient vector for it."""
    n = draw(st.integers(1, 3))
    chart = Chart(["x", "y", "z"][:n])
    grade = draw(st.one_of(st.none(), st.integers(0, n)))
    x, one = Polynomial.variable(n, 0), Polynomial.constant(n, 1)
    den = None if grade is not None else draw(st.sampled_from(
        [None, x, (x * x).scale(3) + one, x * x + x]))
    space = MonomialSpace(chart, grade, draw(st.integers(0, 2)), den)
    coeffs = draw(st.lists(entries, min_size=space.dimension,
                           max_size=space.dimension))
    return space, den, coeffs


@seed(23)
@settings(max_examples=150, deadline=None)
@given(spaces_and_vectors())
def test_combine_is_the_sum_of_scaled_elements(drawn):
    space, den, coeffs = drawn
    member = space.combine(coeffs)
    assert member == combined_by_elements(space, coeffs)
    assert space.coordinates(member) == coeffs
    basis = space.basis
    assert len(basis) == space.dimension
    for j, element in enumerate(basis):
        assert space.element(j) == element == monomial_element(space, j, den)


def test_assembly_builds_only_the_probed_elements(monkeypatch):
    # no space keeps an element; one assembly builds each blade's elements
    # of degree <= 1 and its check element, plus two for the spot check
    assert MonomialSpace.__slots__ == ("chart", "grade", "exponents",
                                       "blades", "_den")
    built = []
    element = MonomialSpace.element

    def counted(space, j):
        built.append(j)
        return element(space, j)

    monkeypatch.setattr(MonomialSpace, "element", counted)
    chart, pi = so3_bivector()
    vol = VolumeForm(chart, chart.one_rf())
    casimirs = casimir_solve(pi, AnsatzSpace(chart, 6))
    assert len(casimirs) == 4  # 1, |x|^2, |x|^4, |x|^6
    assert len(built) <= 1 * (3 + 2) + 2
    built.clear()
    # a grade-1 cohomology space: 3 blades of 84 monomials
    _exact_and_kernel_dims(vol, pi, 1, 6)
    assert len(built) <= 3 * (3 + 2) + 2 < MonomialSpace(chart, 1, 6).dimension


# -- exact matrices ---------------------------------------------------------


def times(m, v):
    """M v, exactly, from the stored rows."""
    return [sum((x * v[j] for j, x in row.items()), F(0)) for row in m.entries]


def from_dense(cols, data):
    """The matrix whose sparse rows hold the non-zeros of dense ``data``."""
    return ExactMatrix(cols, [{j: v for j, v in enumerate(r) if v} for r in data])


def test_rank_and_nullspace_oracle():
    m = ExactMatrix(2, [{0: F(1), 1: F(1)}, {0: F(2), 1: F(2)}])
    assert m.rank() == 1
    null = m.nullspace()
    assert len(null) == 1
    assert times(m, null[0]) == [F(0), F(0)]
    # free column is the second one, pivot solved as its negative
    assert null[0] == [F(-1), F(1)]


def test_solve_consistent_and_inconsistent():
    m = ExactMatrix(2, [{0: F(1)}, {1: F(2)}])
    assert m.solve([F(3), F(5)]) == [F(3), F(5, 2)]
    singular = ExactMatrix(2, [{0: F(1), 1: F(1)}, {0: F(2), 1: F(2)}])
    assert singular.solve([F(1), F(2)]) == [F(1), F(0)]
    assert singular.solve([F(1), F(3)]) is None


def test_from_columns_sparse_assembly():
    m = ExactMatrix.from_columns([{("a", 1): F(2)}, {("b", 0): F(1), ("a", 1): F(3)}])
    assert (m.rows, m.cols) == (2, 2)
    assert m.rank() == 2


def test_matrix_shares_and_keeps_the_rows_it_is_given():
    rows = [{0: 2, 2: F(-1, 3)}, {}, {1: 4, 2: 6}, {0: -4, 2: F(2, 3)}]
    given_rows, contents = list(rows), [dict(row) for row in rows]
    m = ExactMatrix(3, rows)
    assert (m.rows, m.cols, m.labels) == (4, 3, None)
    assert m.rank() == 2
    assert len(m.nullspace()) == 1
    assert m.solve([1, 0, 2, -2]) == [F(1, 2), F(1, 2), 0]
    assert m.solve([1, 0, 2, 0]) is None
    assert all(m.entries[i] is row for i, row in enumerate(given_rows))
    assert m.entries == contents


# -- exact matrices against a dense reference -------------------------------


def dense_rref(data, cols):
    """Textbook dense Gauss-Jordan: the non-zero RREF rows and the pivots."""
    m = [row[:] for row in data]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


# mostly zeros, like the solver's systems
entries = st.one_of(st.just(F(0)), st.just(F(0)),
                    st.builds(F, st.integers(-4, 4), st.integers(1, 3)))


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    data = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return from_dense(cols, data)


@st.composite
def matrices_and_vectors(draw):
    m = draw(matrices())
    return m, draw(st.lists(entries, min_size=m.cols, max_size=m.cols))


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_matches_dense_reference(m):
    reduced, pivots = m._rref()
    ref_rows, ref_pivots = dense_rref(m.data, m.cols)
    assert pivots == ref_pivots
    assert [[row.get(j, F(0)) for j in range(m.cols)] for row in reduced] == ref_rows
    assert all(v for row in reduced for v in row.values())  # only non-zeros


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rank_plus_nullity_and_kernel(m):
    null = m.nullspace()
    assert m.rank() + len(null) == m.cols
    for v in null:
        assert times(m, v) == [F(0)] * m.rows
    ref_rows, ref_pivots = dense_rref(m.data, m.cols)
    free = [j for j in range(m.cols) if j not in ref_pivots]
    assert [v[j] for v in null for j in free] == [
        F(int(j == k)) for k in free for j in free]
    assert [[v[c] for c in ref_pivots] for v in null] == [
        [-row[k] for row in ref_rows] for k in free]


@settings(max_examples=200, deadline=None)
@given(matrices_and_vectors())
def test_solve_finds_a_solution_of_a_reachable_target(pair):
    m, x = pair
    b = times(m, x)
    y = m.solve(b)
    assert y is not None
    assert times(m, y) == b


@settings(max_examples=200, deadline=None)
@given(matrices_and_vectors(), st.data())
def test_solve_refuses_an_inconsistent_target(pair, data):
    m, x = pair
    # a row combining the others, asked for one more than that combination
    weights = data.draw(st.lists(entries, min_size=m.rows, max_size=m.rows))
    combo = [sum((w * row[j] for w, row in zip(weights, m.data)), F(0))
             for j in range(m.cols)]
    b = times(m, x)
    extended = from_dense(m.cols, m.data + [combo])
    target = b + [sum((w * bi for w, bi in zip(weights, b)), F(0)) + 1]
    assert extended.solve(target) is None


# mixed int and Fraction entries, explicit zeros of both kinds among them
mixed_entries = st.one_of(st.just(0), st.just(F(0)), st.integers(-4, 4),
                          st.builds(F, st.integers(-4, 4), st.integers(1, 3)))


@st.composite
def mixed_systems(draw):
    """Dense rows, the matrix ``from_columns`` makes of them with every zero
    kept in its column, and a vector to build a reachable target from."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    data = draw(st.lists(st.lists(mixed_entries, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    columns = [{i: data[i][j] for i in range(rows)} for j in range(cols)]
    x = draw(st.lists(mixed_entries, min_size=cols, max_size=cols))
    return data, ExactMatrix.from_columns(columns), x


def only_exact_ints(values):
    """int wherever a value is an integer, a Fraction only where it is not."""
    return all(type(v) is int or v.denominator != 1 for v in values)


@settings(max_examples=200, deadline=None)
@given(mixed_systems())
def test_mixed_entries_and_explicit_zeros_match_dense_reference(system):
    data, m, x = system
    assert (m.rows, m.cols) == (len(data), len(x))
    assert m.entries == [{j: v for j, v in enumerate(r) if v} for r in data]
    assert m.data == data
    stored = [dict(row) for row in m.entries]
    reduced, pivots = m._rref()
    ref_rows, ref_pivots = dense_rref([[F(v) for v in r] for r in data], m.cols)
    assert pivots == ref_pivots
    assert [[row.get(j, 0) for j in range(m.cols)] for row in reduced] == ref_rows
    assert only_exact_ints(v for row in reduced for v in row.values())
    assert not any(r is s for r in reduced for s in m.entries)
    null = m.nullspace()
    free = [j for j in range(m.cols) if j not in ref_pivots]
    assert [[v[c] for c in ref_pivots] for v in null] == [
        [-row[k] for row in ref_rows] for k in free]
    assert only_exact_ints(c for v in null for c in v)
    b = times(m, x)
    y = m.solve(b)
    assert times(m, y) == b
    assert only_exact_ints(y)
    # free unknowns are zero and pivots read off the augmented RREF
    aug_rows, aug_pivots = dense_rref(
        [[F(v) for v in r] + [bi] for r, bi in zip(data, b)], m.cols + 1)
    expect = [F(0)] * m.cols
    for row, c in zip(aug_rows, aug_pivots):
        expect[c] = row[-1]
    assert y == expect
    # elimination never changes the stored rows
    assert m.entries == stored


def test_rref_normalises_pivots_without_fractions():
    m = ExactMatrix(3, [{0: -1, 1: 2}, {1: -1, 2: F(-3)}])
    reduced, pivots = m._rref()
    assert pivots == [0, 1]
    assert reduced == [{0: 1, 2: 6}, {1: 1, 2: 3}]
    assert all(type(v) is int for row in reduced for v in row.values())
    assert ExactMatrix(2, [{0: 2, 1: 1}])._rref()[0] == [{0: 1, 1: F(1, 2)}]


# -- residual collection ----------------------------------------------------


def line_setup():
    chart = Chart(["x"])
    vol = VolumeForm(chart, chart.one_rf())
    field = Multivector(chart, 1, {0b1: var(1, 0)})  # x d/dx
    return chart, vol, field


def test_divergence_residual_matrix():
    chart, vol, field = line_setup()
    space = AnsatzSpace(chart, 1)
    matrix = collect_linear_system(lambda m: curl(vol, field.scale(m)), space)
    # div(m x d/dx): m=1 -> 1, m=x -> 2x; rows are the two monomial slots
    assert matrix.data == [[F(1), F(0)], [F(0), F(2)]]
    assert matrix.nullspace() == []


def test_systems_from_integer_polynomials_hold_ints():
    chart, pi = so3_bivector()
    bracket = lambda f: schouten(pi, Multivector.scalar(chart, f))
    matrix = collect_linear_system(bracket, AnsatzSpace(chart, 3))
    values = [v for row in matrix.entries for v in row.values()]
    assert values and all(type(v) is int for v in values)
    line, vol, field = line_setup()
    matrix, b = collect_affine_system(lambda m: curl(vol, field.scale(m)),
                                      AnsatzSpace(line, 2),
                                      Multivector(line, 0, {0: var(1, 0)}))
    assert all(type(v) is int for row in matrix.entries for v in row.values())
    assert all(type(v) is int for v in b)
    # a coefficient that is not an integer is scaled away: the system of
    # the halved map holds ints and has the same rank and nullspace
    whole = collect_linear_system(bracket, AnsatzSpace(chart, 1))
    halved = collect_linear_system(lambda f: bracket(f).scale(F(1, 2)),
                                   AnsatzSpace(chart, 1))
    values = [v for row in halved.entries for v in row.values()]
    assert values and all(type(v) is int for v in values)
    assert halved.rank() == whole.rank()
    assert halved.nullspace() == whole.nullspace()


def test_each_system_is_cleared_in_one_call(monkeypatch):
    # the probes, the first-order check elements and the target share one
    # common denominator
    calls = []
    clear = solver.common_denominator
    monkeypatch.setattr(solver, "common_denominator",
                        lambda nvars, coeffs: calls.append(nvars)
                        or clear(nvars, coeffs))
    chart, vol, field = line_setup()
    space = AnsatzSpace(chart, 3, denominator=Polynomial.variable(1, 0))
    residual = lambda m: curl(vol, field.scale(m))
    collect_linear_system(residual, space)
    assert calls == [1]
    collect_affine_system(residual, space, Multivector.scalar(chart, var(1, 0)))
    assert calls == [1, 1]


def test_rational_denominator_system_holds_ints():
    # f = 1/q1 + 2/q2 with non-monic linear q1, q2, A = (1/f) e1^e2: the
    # system over the ansatz with denominator q1 q2 was all Fractions
    # (every value over 49) before clearing with integer numerators
    chart = Chart(["x", "y"])
    q1 = Polynomial(2, {(1, 0): 3, (0, 1): 2, (0, 0): 1})
    q2 = Polynomial(2, {(1, 0): 1, (0, 1): -3, (0, 0): 2})
    f = (RationalFunc(Polynomial.constant(2, 1), q1)
         + RationalFunc(Polynomial.constant(2, 2), q2))
    a = Multivector.blade(chart, (0, 1), f.inverse())
    vol = VolumeForm.unit(chart)
    space = AnsatzSpace(chart, 2, denominator=q1 * q2)
    matrix = collect_linear_system(lambda m: curl(vol, a.scale(m)), space)
    values = [v for row in matrix.entries for v in row.values()]
    assert len(values) == 20 and all(type(v) is int for v in values)
    assert matrix.rank() == 5
    (m,) = lm_solve(vol, a, space)
    assert curl(vol, a.scale(m)).is_zero()


def test_solver_commands_never_build_dense_rows(tmp_path, capsys, monkeypatch):
    path = tmp_path / "so3.mv"
    path.write_text("chart x y z\nlie g = z e1^^e2 - y e1^^e3 + x e2^^e3\n")
    commands = [["cohomology", "g", "--k", "1", "--max-degree", "2"],
                ["casimir", "g", "--max-degree", "2"],
                ["lm-solve", "g", "--max-degree", "1"],
                ["unimodular", "g", "--max-degree", "1"]]
    expected = []
    for argv in commands:
        expected.append((cli.main(argv + ["--input", str(path)]),
                         capsys.readouterr()))

    def dense(matrix):
        raise AssertionError("a solver path built dense rows")

    monkeypatch.setattr(ExactMatrix, "data", property(dense))
    for argv, (code, captured) in zip(commands, expected):
        assert code == 0
        assert (cli.main(argv + ["--input", str(path)]),
                capsys.readouterr()) == (code, captured)


def test_lm_solve_needs_reciprocal_denominator():
    chart, vol, field = line_setup()
    assert lm_solve(vol, field, AnsatzSpace(chart, 3)) == []
    q = Polynomial.variable(1, 0)
    sols = lm_solve(vol, field, AnsatzSpace(chart, 1, denominator=q))
    assert len(sols) == 1
    assert sols[0] == var(1, 0).inverse()
    assert curl(vol, field.scale(sols[0])).is_zero()


def test_linearity_guard_rejects_nonlinear_map():
    chart, vol, field = line_setup()
    with pytest.raises(ValueError, match="not linear"):
        collect_linear_system(lambda m: m * m, AnsatzSpace(chart, 1))
    with pytest.raises(ValueError, match="not linear"):
        collect_linear_system(lambda m: m * m, AnsatzSpace(chart, 2))


def test_first_order_guard_rejects_a_second_order_map():
    chart, vol, field = line_setup()
    second = lambda f: f.diff(0).diff(0)
    # linear, so the spot check passes; x^2 is where the stencil misses it
    assert collect_linear_system(second, AnsatzSpace(chart, 1)).rows == 0
    with pytest.raises(ValueError, match="not a first-order"):
        collect_linear_system(second, AnsatzSpace(chart, 2))
    with pytest.raises(ValueError, match="not a first-order"):
        kernel_basis(second, AnsatzSpace(Chart(["x", "y"]), 2))


@pytest.mark.parametrize("value", [0.5, "1/2", F(1, 2), 0.0])
def test_combine_takes_exact_coefficients_only(value):
    chart = Chart(["x", "y"])
    space = MonomialSpace(chart, 1, 0)
    if isinstance(value, float):
        # a float zero is refused too, on function and multivector spaces
        with pytest.raises(TypeError, match="inexact coefficient"):
            space.combine([value, 0])
        with pytest.raises(TypeError, match="inexact coefficient"):
            AnsatzSpace(chart, 1).combine([value, 1, 0])
    else:
        assert space.combine([value, 0]) == Multivector.basis_vector(
            chart, 0).scale(F(1, 2))


def test_first_order_probe_checks_only_the_last_element():
    # the probe is each blade's last element, x^2 here, so a second
    # derivative in y passes it: the stencil predicts zero columns where
    # the map run on every element gives rank 1 (on y^2)
    space = AnsatzSpace(Chart(["x", "y"]), 2)
    second = lambda f: f.diff(1).diff(1)
    assert collect_linear_system(second, space).rank() == 0
    direct = direct_columns(second, space.basis, 2)
    assert ExactMatrix.from_columns(direct).rank() == 1


def test_kernel_basis_certifies_each_vector():
    # the probe passes d^2/dy^2 and its system has rank 0, so all six
    # monomials come back as kernel vectors; y^2, sent to 2, is refused
    space = AnsatzSpace(Chart(["x", "y"]), 2)
    with pytest.raises(RuntimeError, match="kernel vector"):
        kernel_basis(lambda f: f.diff(1).diff(1), space)


# -- stencil assembly against direct evaluation ------------------------------


@pytest.fixture
def checked_assembly(monkeypatch):
    """Every system assembled while the fixture is active is assembled the
    direct way too: the columns must agree exactly, ints wherever a value is
    an integer.  The operator runs once per element of degree <= 1, once
    more per blade from degree 2 (the first-order check) and once per
    linearity spot check.  Returns the spaces assembled."""
    stencil = solver._system_columns
    spaces = []

    def checked(residual_map, space, extra):
        calls = 0

        def counted(element):
            nonlocal calls
            calls += 1
            return residual_map(element)

        columns = stencil(counted, space, extra)
        assert columns == direct_columns(residual_map, space.basis,
                                         space.chart.dim, extra)
        assert only_exact_ints(v for col in columns for v in col.values())
        n, degree = space.chart.dim, sum(space.exponents[-1])
        spot_checks = min(space.dimension, 2)
        assert calls == (len(space.blades)
                         * (1 + n * (degree >= 1) + (degree >= 2))
                         + spot_checks)
        spaces.append(space)
        return columns

    monkeypatch.setattr(solver, "_system_columns", checked)
    return spaces


CHARTS = [Chart(["x"]), Chart(["x", "y"]), Chart(["x", "y", "z"]),
          Chart(["x", "y", "z", "w"])]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("chart", CHARTS, ids=lambda c: f"dim{c.dim}")
def test_stencil_columns_match_direct_on_every_named_map(chart, seed,
                                                         checked_assembly):
    rng = random.Random(f"stencil:{chart.dim}:{seed}")
    n = chart.dim
    densities = density_pool(chart)  # 1, 2, then polynomial densities
    vol = VolumeForm(chart, densities[seed % len(densities)])
    degree = 2 if n < 4 else 1 + seed % 2
    # multipliers of a field or multivector with rational coefficients
    a = random_multivector(rng, chart, rng.randint(1, n))
    a = Multivector(chart, a.grade, {m: c * random_multiplier(rng, n)
                                     for m, c in a.terms.items()})
    lm_solve(vol, a, AnsatzSpace(chart, degree))
    # a denominator whose leading coefficient is not 1: the monic
    # denominator carries it into each element's numerator
    q = rng.choice(denominator_pool(n)).scale(rng.choice([1, 3]))
    lm_solve(vol, a, AnsatzSpace(chart, 1, q))
    # a Poisson bivector h e1^e2 for Casimirs and unimodularity
    h = RationalFunc(random_polynomial(rng, n, allow_zero=False))
    pi = Multivector(chart, 2, {0b11: h}) if n > 1 else Multivector.zero(chart, 2)
    casimir_solve(pi, AnsatzSpace(chart, degree))
    unimodularity_check(vol, pi, degree)
    # every grade for the curl-free spaces and the stacked cohomology system
    bracket = random_multivector(rng, chart, 2) if n > 1 else pi
    for grade in range(n + 1):
        exact_basis(vol, grade, degree)
        _exact_and_kernel_dims(vol, bracket, grade, degree)
    kinds = {type(space) for space in checked_assembly}
    assert kinds == {MonomialSpace}
    assert any(space.dimension > n + 1 for space in checked_assembly)


def test_stencil_on_an_ansatz_that_reduces_to_two_seeds(checked_assembly):
    chart, vol, field = line_setup()
    # 1/x and x/x = 1: an element that reduces is still x^beta times the
    # one seed 1/x
    space = AnsatzSpace(chart, 1, denominator=Polynomial.variable(1, 0))
    assert [b.to_string(("x",)) for b in space.basis] == ["(1)/(x)", "1"]
    assert lm_solve(vol, field, space) == [var(1, 0).inverse()]
    # and x^2/x = x, the check element of the seed 1/x
    space = AnsatzSpace(chart, 2, denominator=Polynomial.variable(1, 0))
    assert [b.to_string(("x",)) for b in space.basis] == ["(1)/(x)", "1", "x"]
    assert lm_solve(vol, field, space) == [var(1, 0).inverse()]
    x_plus = Polynomial.variable(1, 0) + Polynomial.constant(1, 1)
    sols = lm_solve(vol, field.scale(var(1, 0) + chart.one_rf()),
                    AnsatzSpace(chart, 3, denominator=x_plus * x_plus))
    assert all(curl(vol, field.scale(var(1, 0) + chart.one_rf()).scale(m)).is_zero()
               for m in sols)
    assert len(checked_assembly) == 3


def test_affine_solve_recovers_witness():
    chart, vol, field = line_setup()
    space = AnsatzSpace(chart, 1)
    residual = lambda m: curl(vol, field.scale(m))
    target = Multivector(chart, 0, {0: var(1, 0).scale(3)})  # the scalar 3x
    matrix, b = collect_affine_system(residual, space, target)
    sol = matrix.solve(b)
    assert sol is not None
    witness = space.combine(sol)
    assert residual(witness) == target
    # 3x/2 * x has derivative 3x
    assert witness == var(1, 0).scale(F(3, 2))


def test_affine_solve_unreachable_target():
    chart, vol, field = line_setup()
    space = AnsatzSpace(chart, 1)
    residual = lambda m: curl(vol, field.scale(m))
    x = var(1, 0)
    target = Multivector(chart, 0, {0: x * x})
    matrix, b = collect_affine_system(residual, space, target)
    assert matrix.solve(b) is None


# -- span membership --------------------------------------------------------


def test_vector_span_contains():
    v1 = [F(1), F(0), F(2)]
    v2 = [F(0), F(1), F(0)]
    assert vector_span_contains([v1, v2], [F(2), F(-3), F(4)])
    assert not vector_span_contains([v1, v2], [F(0), F(0), F(1)])
    assert vector_span_contains([], [F(0), F(0)])
    assert not vector_span_contains([], [F(1), F(0)])


@seed(548)
@settings(max_examples=200, deadline=None)
@given(matrices_and_vectors(), st.data())
def test_span_membership_matches_two_ranks(pair, data):
    m, x = pair
    columns = [{i: row[j] for i, row in enumerate(m.data)}
               for j in range(m.cols)]
    reachable = times(m, x)
    other = data.draw(st.lists(entries, min_size=m.rows, max_size=m.rows))
    for target in (reachable, other):
        candidate = dict(enumerate(target))
        two_ranks = (ExactMatrix.from_columns(columns).rank()
                     == ExactMatrix.from_columns(columns + [candidate]).rank())
        assert solver._span_contains(columns, candidate) == two_ranks
    assert solver._span_contains(columns, dict(enumerate(reachable)))


def test_function_span_contains():
    x, y = var(2, 0), var(2, 1)
    assert function_span_contains([x, x * x], x.scale(2) - (x * x).scale(3))
    assert not function_span_contains([x, x * x], y)
    assert not function_span_contains([x], x.inverse())
    assert function_span_contains([x.inverse()], x.inverse().scale(F(5, 7)))


def test_function_spans_equal_is_order_and_scale_free():
    x, y = var(2, 0), var(2, 1)
    assert function_spans_equal([x, y], [y.scale(3), x + y])
    assert not function_spans_equal([x, y], [x])


# -- named solvers ----------------------------------------------------------


def test_constant_symplectic_multipliers_are_constants():
    chart = Chart(["x", "y"])
    vol = VolumeForm(chart, chart.one_rf())
    pi = Multivector(chart, 2, {0b11: chart.one_rf()})
    sols = lm_solve(vol, pi, AnsatzSpace(chart, 3))
    assert len(sols) == 1
    assert sols[0] == chart.one_rf()


def so3_bivector():
    chart = Chart(["x", "y", "z"])
    x, y, z = (var(3, i) for i in range(3))
    return chart, Multivector(chart, 2, {0b011: z, 0b101: -y, 0b110: x})


def test_so3_casimirs_degree_two():
    chart, pi = so3_bivector()
    sols = casimir_solve(pi, AnsatzSpace(chart, 2))
    assert len(sols) == 2
    x, y, z = (var(3, i) for i in range(3))
    assert function_span_contains(sols, chart.one_rf())
    assert function_span_contains(sols, x * x + y * y + z * z)
    assert not function_span_contains(sols, x)
    for f in sols:
        assert schouten(pi, Multivector.scalar(chart, f)).is_zero()


def test_zero_bivector_casimirs_fill_ansatz():
    chart = Chart(["x", "y"])
    pi = Multivector.zero(chart, 2)
    space = AnsatzSpace(chart, 1)
    sols = casimir_solve(pi, space)
    assert function_spans_equal(sols, space.basis)
