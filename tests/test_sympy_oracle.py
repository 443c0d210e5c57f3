"""sympy as an independent oracle for the hard kernels: multiplication, exact
division, the gcd, the rational normal form and the quotient rule of the
ring, and the rank, reduced row echelon form and nullspace of the exact
solver.

sympy is used by these tests only; the package itself stays stdlib-only, and
the module is skipped where sympy is not installed.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mvcurl import ring
from mvcurl.ring import Polynomial, RationalFunc, poly_gcd
from mvcurl.solver import ExactMatrix

sympy = pytest.importorskip("sympy")

NVARS = 3
SYMBOLS = sympy.symbols("x y z")
CASES = range(50)


def to_sympy(p):
    expr = sympy.Integer(0)
    for exps, coeff in p.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for s, e in zip(SYMBOLS, exps):
            term *= s ** e
        expr += term
    return expr


def from_sympy(expr):
    poly = sympy.Poly(expr, *SYMBOLS)
    return Polynomial(NVARS, {exps: Fraction(int(c.p), int(c.q))
                              for exps, c in poly.terms()})


def monic(p):
    # monic in the ring's graded-lex order, which sympy does not use
    return p.scale(1 / p.leading_coefficient())


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
    lc = den.leading_coefficient()
    return num.scale(1 / lc), den.scale(1 / lc)


@pytest.mark.parametrize("case", CASES)
def test_gcd_matches_sympy(case):
    rng = random.Random(f"gcd:{case}")
    common = random_poly(rng)
    a = common * random_poly(rng)
    b = common * random_poly(rng)
    expected = monic(from_sympy(sympy.gcd(to_sympy(a), to_sympy(b))))
    assert poly_gcd(a, b) == expected


def assert_gcd_matches_sympy(a, b):
    expected = monic(from_sympy(sympy.gcd(to_sympy(a), to_sympy(b))))
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


# pairs whose images at x = 3, y = 5, z = 7 modulo 2^61 - 1 degenerate: the
# first factor is 1 in every image, the second loses its leading coefficient
# in y, and the third has no image mod 2^61 - 1
@pytest.mark.parametrize("a, b", [
    ("((x-3)*(y-5)*(z-7) + 1)*(x + y + z)",
     "((x-3)*(y-5)*(z-7) + 1)*(x - y + 2*z + 1)"),
    ("(x-3)*y**2 + y + 1", "((x-3)*y**2 + y + 1)*(x + z)"),
    ("(x-3)*y**2 + y + 1", "(x-3)*y**2 + 2"),
    (f"(x*y + z/{P61})*(x + 1)", f"(x*y + z/{P61})*(z + 2)"),
    (f"x*y + z/{P61}", "x + y"),
], ids=["unit-at-point", "lead-vanishes-multiple", "lead-vanishes-coprime",
        "prime-denominator-common", "prime-denominator-coprime"])
def test_gcd_fallback_pairs_match_sympy(a, b):
    assert_gcd_matches_sympy(from_sympy(sympy.expand(sympy.sympify(a))),
                             from_sympy(sympy.expand(sympy.sympify(b))))


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
    m = ExactMatrix(len(data), cols, [row[:] for row in data])
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
