"""sympy as an independent oracle for the ring's hard kernels: the gcd, the
rational normal form and the quotient rule.

sympy is used by these tests only; the package itself stays stdlib-only, and
the module is skipped where sympy is not installed.
"""

import random
from fractions import Fraction

import pytest

from mvcurl.ring import Polynomial, RationalFunc, poly_gcd

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


def random_poly(rng, max_terms=3, max_exp=2):
    while True:
        p = Polynomial(NVARS, {
            tuple(rng.randint(0, max_exp) for _ in range(NVARS)):
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
