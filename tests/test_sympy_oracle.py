"""sympy as an independent oracle for the hard kernels: multiplication, exact
division, the gcd, the rational normal form and the quotient rule of the
ring, the rank, reduced row echelon form and nullspace of the exact solver,
and the Witten route of the last-multiplier check.

sympy is used by these tests only; the package itself stays stdlib-only, and
the module is skipped where sympy is not installed.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mvcurl import ring
from mvcurl.curl import _in_witten_kernel
from mvcurl.exterior import Chart, DifferentialForm, exterior_derivative
from mvcurl.identities import random_form, random_multiplier
from mvcurl.ring import Polynomial, RationalFunc, poly_gcd
from mvcurl.solver import ExactMatrix

sympy = pytest.importorskip("sympy")

NVARS = 3
SYMBOLS = sympy.symbols("x y z")
CASES = range(50)


def to_sympy(p, symbols=SYMBOLS):
    expr = sympy.Integer(0)
    for exps, coeff in p.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for s, e in zip(symbols, exps):
            term *= s ** e
        expr += term
    return expr


def from_sympy(expr, symbols=SYMBOLS):
    poly = sympy.Poly(expr, *symbols)
    return Polynomial(len(symbols), {exps: Fraction(int(c.p), int(c.q))
                                     for exps, c in poly.terms()})


def leading_coefficient(p):
    # in the ring's graded-lex order, which sympy does not use
    return Fraction(p.nums[max(p.nums)], p.den)


def monic(p):
    return p.scale(1 / leading_coefficient(p))


def random_poly(rng, max_terms=3, max_exp=2, used=NVARS):
    """A non-zero polynomial in the first ``used`` coordinates."""
    while True:
        p = Polynomial(NVARS, {
            tuple(rng.randint(0, max_exp) if i < used else 0
                  for i in range(NVARS)):
                Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            for _ in range(rng.randint(1, max_terms))})
        if not p.is_zero():
            return p


def sympy_normal_form(expr):
    num, den = sympy.fraction(sympy.cancel(expr))
    num, den = from_sympy(num), from_sympy(den)
    lc = leading_coefficient(den)
    return num.scale(1 / lc), den.scale(1 / lc)


@pytest.mark.parametrize("case", CASES)
def test_gcd_matches_sympy(case):
    rng = random.Random(f"gcd:{case}")
    common = random_poly(rng)
    a = common * random_poly(rng)
    b = common * random_poly(rng)
    expected = monic(from_sympy(sympy.gcd(to_sympy(a), to_sympy(b))))
    assert poly_gcd(a, b) == expected


def assert_gcd_matches_sympy(a, b, symbols=SYMBOLS):
    expected = monic(from_sympy(sympy.gcd(to_sympy(a, symbols),
                                          to_sympy(b, symbols)), symbols))
    assert poly_gcd(a, b) == expected


@pytest.mark.parametrize("case", CASES)
def test_gcd_of_coprime_and_sharing_pairs_matches_sympy(case):
    # 2 or 3 variables; half the pairs are coprime by construction only
    # with high probability, the other half share a random factor
    rng = random.Random(f"coprime:{case}")
    used = 2 + case % 2
    a = random_poly(rng, max_terms=4, used=used)
    b = random_poly(rng, max_terms=4, used=used)
    if case % 4 >= 2:
        common = random_poly(rng, used=used)
        a, b = a * common, b * common
    assert_gcd_matches_sympy(a, b)


P61 = 2 ** 61 - 1


@pytest.fixture
def heuristic_off(monkeypatch):
    """GCDHEU gives up at once, so every gcd after the early exits takes the
    primitive PRS (one variable) or interpolation (more)."""
    monkeypatch.setattr(ring, "_heu_gcd", lambda *args: None)


@pytest.mark.parametrize("case", CASES)
def test_interpolated_gcd_matches_sympy(case, heuristic_off):
    # the seeded pairs of test_gcd_matches_sympy, with GCDHEU off
    test_gcd_matches_sympy(case)


# pairs that degenerate at one point: the first common factor is 1 at
# x = 3, y = 5, z = 7, the second loses its leading coefficient in y at
# x = 3, and the third has the prime 2^61 - 1 as a denominator
FALLBACK_PAIRS = [
    ("((x-3)*(y-5)*(z-7) + 1)*(x + y + z)",
     "((x-3)*(y-5)*(z-7) + 1)*(x - y + 2*z + 1)"),
    ("(x-3)*y**2 + y + 1", "((x-3)*y**2 + y + 1)*(x + z)"),
    ("(x-3)*y**2 + y + 1", "(x-3)*y**2 + 2"),
    (f"(x*y + z/{P61})*(x + 1)", f"(x*y + z/{P61})*(z + 2)"),
    (f"x*y + z/{P61}", "x + y"),
]
FALLBACK_IDS = ["unit-at-point", "lead-vanishes-multiple",
                "lead-vanishes-coprime", "prime-denominator-common",
                "prime-denominator-coprime"]


@pytest.mark.parametrize("a, b", FALLBACK_PAIRS, ids=FALLBACK_IDS)
def test_gcd_fallback_pairs_match_sympy(a, b):
    assert_gcd_matches_sympy(from_sympy(sympy.expand(sympy.sympify(a))),
                             from_sympy(sympy.expand(sympy.sympify(b))))


@pytest.mark.parametrize("a, b", FALLBACK_PAIRS, ids=FALLBACK_IDS)
def test_interpolated_gcd_of_the_fallback_pairs_matches_sympy(a, b,
                                                              heuristic_off):
    test_gcd_fallback_pairs_match_sympy(a, b)


CLIFF_PAIRS = [
    ("x y z", "(x-2*y+z+1)**14", "(x+y-z+2)**14"),
    ("x y z w", "(x-2*y+z+w+1)**9", "(x+y-z-w+2)**9"),
]


# the pairs of the two gcd cliff documents: GCDHEU gives up on each, and
# interpolation in x proves them coprime by their first image, at x = 1
@pytest.mark.parametrize("names, a, b", CLIFF_PAIRS,
                         ids=["3-variable", "4-variable"])
def test_gcd_of_the_cliff_pairs_matches_sympy(names, a, b):
    symbols = sympy.symbols(names)
    polys = [sympy.Poly(sympy.sympify(e), *symbols) for e in (a, b)]
    assert sympy.gcd(*polys).as_expr() == 1
    n = len(symbols)
    ours = [Polynomial(n, {exps: int(c) for exps, c in p.terms()})
            for p in polys]
    assert poly_gcd(*ours) == Polynomial.constant(n, 1)
    # the images at x = 1 keep their degree in every other variable, and
    # are coprime
    images = [p.eval({symbols[0]: 1}) for p in polys]
    for s in symbols[1:]:
        assert [im.degree(s) for im in images] == [p.degree(s) for p in polys]
    assert sympy.gcd(*images).as_expr() == 1


@pytest.mark.parametrize("names, a, b", CLIFF_PAIRS,
                         ids=["3-variable", "4-variable"])
def test_interpolated_gcd_of_the_cliff_pairs_matches_sympy(names, a, b,
                                                           heuristic_off):
    test_gcd_of_the_cliff_pairs_matches_sympy(names, a, b)


def planted_pair(rng, nvars):
    """Two polynomials in ``nvars`` coordinates that share a factor of total
    degree up to 4, about a third of them with rational coefficients."""
    rational = rng.random() < 0.3

    def poly(max_terms, max_degree):
        while True:
            terms = {}
            for _ in range(rng.randint(1, max_terms)):
                exps = [0] * nvars
                for _ in range(rng.randint(0, max_degree)):
                    exps[rng.randrange(nvars)] += 1
                terms[tuple(exps)] = Fraction(rng.randint(-9, 9),
                                              rng.randint(1, 6) if rational else 1)
            p = Polynomial(nvars, terms)
            if not p.is_zero():
                return p

    common = poly(4, 4)
    return common * poly(5, 4), common * poly(5, 3)


PLANTED = range(40)


@pytest.mark.parametrize("case", PLANTED)
def test_interpolated_gcd_of_planted_pairs_matches_sympy(case, heuristic_off):
    nvars = 2 + case % 3
    rng = random.Random(f"planted:{case}")
    assert_gcd_matches_sympy(*planted_pair(rng, nvars),
                             symbols=sympy.symbols("x y z w")[:nvars])


@pytest.mark.parametrize("case", CASES)
def test_heuristic_gcd_matches_sympy(case):
    # the seeded pairs of test_gcd_matches_sympy, through GCDHEU alone: it
    # settles every one of them, and its proven gcd agrees with sympy's
    rng = random.Random(f"gcd:{case}")
    common = random_poly(rng)
    a = common * random_poly(rng)
    b = common * random_poly(rng)
    used = sorted(ring._variables_used(a) | ring._variables_used(b))
    g = ring._heu_gcd(a.nums, b.nums, NVARS, used)
    assert g is not None
    expected = monic(from_sympy(sympy.gcd(to_sympy(a), to_sympy(b))))
    assert ring._monic(Polynomial._make(NVARS, g)) == expected


@pytest.mark.parametrize("case", CASES)
def test_normal_form_matches_sympy_cancel(case):
    rng = random.Random(f"cancel:{case}")
    common = random_poly(rng)
    num = common * random_poly(rng)
    den = common * random_poly(rng)
    r = RationalFunc(num, den)
    assert (r.num, r.den) == sympy_normal_form(to_sympy(num) / to_sympy(den))


@pytest.mark.parametrize("case", CASES)
def test_diff_matches_sympy(case):
    rng = random.Random(f"diff:{case}")
    # a repeated factor, and sometimes one free of the variable differentiated
    index = rng.randrange(NVARS)
    repeated = random_poly(rng, max_exp=1) ** rng.randint(2, 3)
    den = repeated * random_poly(rng, max_terms=2, max_exp=1)
    f = RationalFunc(random_poly(rng), den)
    got = f.diff(index)
    expected = sympy_normal_form(
        sympy.diff(to_sympy(f.num) / to_sympy(f.den), SYMBOLS[index]))
    assert (got.num, got.den) == expected


@pytest.mark.parametrize("case", CASES)
def test_mul_and_exact_div_match_sympy(case):
    # rational coefficients with a content: the kernel divides by the
    # divisor's primitive part and folds contents and denominators back in
    rng = random.Random(f"muldiv:{case}")
    a = random_poly(rng, max_terms=4)
    b = random_poly(rng, max_terms=4).scale(Fraction(rng.randint(1, 9),
                                                     rng.randint(1, 9)))
    prod = a * b
    assert prod == from_sympy(sympy.expand(to_sympy(a) * to_sympy(b)))
    quotient, remainder = sympy.div(to_sympy(prod), to_sympy(b), *SYMBOLS)
    assert remainder == 0
    assert prod.exact_div(b) == from_sympy(quotient) == a
    # an inexact division must still be refused
    bumped = prod + random_poly(rng, max_terms=1, max_exp=1)
    if sympy.div(to_sympy(bumped), to_sympy(b), *SYMBOLS)[1] != 0:
        with pytest.raises(ValueError, match="inexact"):
            bumped.exact_div(b)
    else:
        assert bumped.exact_div(b) == from_sympy(
            sympy.div(to_sympy(bumped), to_sympy(b), *SYMBOLS)[0])


# shapes of the first cases: empty both ways, and all zero
EDGE_SHAPES = [(0, 4), (4, 0), (0, 0), (3, 5)]


def random_matrix(rng, case):
    if case < len(EDGE_SHAPES):
        rows, cols = EDGE_SHAPES[case]
        return [[Fraction(0)] * cols for _ in range(rows)], cols
    rows, cols = rng.randint(1, 9), rng.randint(1, 9)
    density = rng.choice([0.15, 0.3, 0.6])
    data = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
             if rng.random() < density else Fraction(0)
             for _ in range(cols)] for _ in range(rows)]
    if rng.random() < 0.5:  # a zero row and a zero column
        data[rng.randrange(rows)] = [Fraction(0)] * cols
        zero_col = rng.randrange(cols)
        for row in data:
            row[zero_col] = Fraction(0)
    if rng.random() < 0.5 and rows > 1:  # a dependent row
        a, b = rng.sample(range(rows), 2)
        factor = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        data.append([x + factor * y for x, y in zip(data[a], data[b])])
    return data, cols


def to_sympy_matrix(data, cols):
    return sympy.Matrix(len(data), cols,
                        [sympy.Rational(x.numerator, x.denominator)
                         for row in data for x in row])


def from_sympy_rational(x):
    return Fraction(int(x.p), int(x.q))


@pytest.mark.parametrize("case", CASES)
def test_rank_rref_and_nullspace_match_sympy(case):
    rng = random.Random(f"matrix:{case}")
    data, cols = random_matrix(rng, case)
    m = ExactMatrix(cols, [{j: v for j, v in enumerate(row) if v}
                           for row in data])
    s = to_sympy_matrix(data, cols)
    assert m.rank() == s.rank()
    s_rref, s_pivots = s.rref()
    reduced, pivots = m._rref()
    assert pivots == list(s_pivots)
    assert [[row.get(j, 0) for j in range(cols)] for row in reduced] == [
        [from_sympy_rational(s_rref[i, j]) for j in range(cols)]
        for i in range(len(pivots))]
    assert m.nullspace() == [[from_sympy_rational(x) for x in v]
                             for v in s.nullspace()]
    assert m.data == data  # elimination leaves the matrix as it was


# mixed int and Fraction entries, explicit zeros of both kinds among them
mixed_entries = st.one_of(st.just(0), st.just(Fraction(0)), st.integers(-5, 5),
                          st.builds(Fraction, st.integers(-5, 5),
                                    st.integers(1, 4)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda cols: st.tuples(
    st.lists(st.lists(mixed_entries, min_size=cols + 1, max_size=cols + 1),
             min_size=1, max_size=6),
    st.just(cols))))
def test_sparse_columns_with_explicit_zeros_match_sympy(system):
    rows, cols = system
    # columns keep their zeros; the last one is a right-hand side
    columns = [{i: row[j] for i, row in enumerate(rows)} for j in range(cols)]
    m = ExactMatrix.from_columns(columns)
    b = [row[cols] for row in rows]
    dense = [[Fraction(x) for x in row] for row in rows]
    s = to_sympy_matrix([row[:cols] for row in dense], cols)
    aug = to_sympy_matrix(dense, cols + 1)
    s_rref, s_pivots = s.rref()
    reduced, pivots = m._rref()
    assert pivots == list(s_pivots)
    assert [[row.get(j, 0) for j in range(cols)] for row in reduced] == [
        [from_sympy_rational(s_rref[i, j]) for j in range(cols)]
        for i in range(len(pivots))]
    assert m.nullspace() == [[from_sympy_rational(x) for x in v]
                             for v in s.nullspace()]
    y = m.solve(b)
    if aug.rank() > s.rank():
        assert y is None
    else:
        # the solution with every free unknown zero, read off sympy's RREF
        a_rref, a_pivots = aug.rref()
        expect = [0] * cols
        for i, c in enumerate(a_pivots):
            expect[c] = from_sympy_rational(a_rref[i, cols])
        assert y == expect


# -- the Witten route of lm-check ---------------------------------------------


def witten_case(case):
    """A seeded (m, omega) on R^2 or R^3.  Every fourth case is random; in
    the rest m = m0 h/g and omega carries g/h, so that g divides q and every
    blade numerator of omega, and h divides p and the denominator of omega.
    Half of all cases are true by construction, omega = (closed form)/m, as
    ``route_b_cases`` builds them."""
    dim = 2 + case % 2
    chart = Chart(("x", "y", "z")[:dim])
    rng = random.Random(f"witten-oracle:{case}")
    degree = rng.randint(0, dim - 1)
    m = random_multiplier(rng, dim)
    if case % 4 == 0:
        return m, random_form(rng, chart, degree, max_degree=2)
    g, h = (chart.coordinate(0) + chart.coordinate(rng.randrange(1, dim)).scale(
        rng.choice((-2, -1, 1, 2))) + chart.constant(rng.randint(1, 3))
        for _ in range(2))
    m = m * h / g
    if case % 4 == 1:
        return m, random_form(rng, chart, degree, max_degree=2).scale(g / h)
    if degree:
        closed = exterior_derivative(random_form(rng, chart, degree - 1,
                                                 max_degree=2))
    else:
        closed = DifferentialForm.scalar(chart, chart.constant(rng.choice((-2, 3))))
    return m, closed.scale(m.inverse())


def sympy_witten_vanishes(m, omega):
    """Every blade of dm ^ omega + m d(omega) is zero, computed in sympy's
    field of fractions, where every sum and product is cancelled; the same
    sums as sympy expressions, brought together and expanded, take about
    six times as long."""
    dim = omega.chart.dim
    field, *xs = sympy.polys.fields.field(SYMBOLS[:dim], sympy.QQ)

    def element(f):
        return field.from_expr(to_sympy(f.num) / to_sympy(f.den))

    ms = element(m)
    blades = {}
    for mask, coeff in omega.terms.items():
        w = element(coeff)
        below = 0  # the indices of the blade J that are below i
        for i in range(dim):
            if mask >> i & 1:
                below += 1
                continue
            # dx_i ^ dx_J is (-1)^below times the sorted blade of J + {i}
            term = ms.diff(xs[i]) * w + ms * w.diff(xs[i])
            key = mask | 1 << i
            blades[key] = blades.get(key, 0) + (-1) ** below * term
    return all(e == 0 for e in blades.values())


def test_witten_route_matches_sympy():
    verdicts = []
    for case in range(40):
        m, omega = witten_case(case)
        verdict = _in_witten_kernel(m, omega)
        assert verdict == sympy_witten_vanishes(m, omega), case
        verdicts.append(verdict)
    assert any(verdicts) and not all(verdicts)
