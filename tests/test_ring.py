"""Exact polynomial and rational-function arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mvcurl import ring
from mvcurl.ring import Polynomial, RationalFunc, poly_gcd, poly_lcm


def P(nvars, terms):
    return Polynomial(nvars, {e: Fraction(c) for e, c in terms.items()})


X = Polynomial.variable(2, 0)
Y = Polynomial.variable(2, 1)
ONE = Polynomial.constant(2, 1)


def test_add_cancels():
    # (x + y) + (x - y) = 2x
    assert (X + Y) + (X - Y) == X.scale(2)


def test_mul_difference_of_squares():
    assert (X + ONE) * (X - ONE) == X * X - ONE


def test_zero_coefficients_dropped():
    p = P(2, {(1, 0): 1, (0, 1): 0})
    assert p.terms == {(1, 0): Fraction(1)}
    assert (X - X).is_zero()


def test_diff_power_rule():
    # d/dx (x^2 y) = 2 x y
    p = X * X * Y
    assert p.diff(0) == X.scale(2) * Y
    assert p.diff(1) == X * X


def test_evaluate():
    p = X * X + Y.scale(3)
    assert p.evaluate([Fraction(1, 2), 2]) == Fraction(25, 4)


def test_pow():
    assert (X + Y) ** 3 == (X + Y) * (X + Y) * (X + Y)
    assert (X + Y) ** 0 == ONE


def test_leading_term_grlex():
    # x^2 beats x*y^... no: grlex compares degree then lexicographic on tuples
    p = P(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1, (3, 0): 5})
    assert p.leading_exponent() == (3, 0)
    assert p.leading_coefficient() == 5
    q = P(2, {(1, 1): 1, (0, 2): 1})
    assert q.leading_exponent() == (1, 1)


def test_exact_div():
    a = (X + Y) * (X - Y) * (X + ONE)
    assert a.exact_div(X + Y) == (X - Y) * (X + ONE)
    with pytest.raises(ValueError):
        (X * X + ONE).exact_div(X + ONE)


def test_gcd_basic():
    a = (X + Y) * (X + ONE)
    b = (X + Y) * (X - ONE)
    assert poly_gcd(a, b) == X + Y
    assert poly_gcd(a, Polynomial.zero(2)) == a.scale(Fraction(1, 1))
    assert poly_gcd(X.scale(4), X.scale(6)) == X


def test_gcd_trivial():
    assert poly_gcd(X + ONE, Y + ONE).is_one()


def test_gcd_multivariate():
    g = X * Y + ONE
    a = g * (X * X + Y)
    b = g * (Y * Y - X)
    assert poly_gcd(a, b) == g


def test_lcm():
    a = X * (X + Y)
    b = (X + Y) * Y
    assert poly_lcm(a, b) == X * Y * (X + Y)


def test_rational_normalization_cancels_common_factor():
    # (x^2 - 1)/(x - 1) reduces to x + 1
    r = RationalFunc(X * X - ONE, X - ONE)
    assert r.num == X + ONE
    assert r.den.is_one()


def test_rational_normalization_monic_denominator():
    # (2x)/(-2) normalizes to -x over 1
    r = RationalFunc(X.scale(2), Polynomial.constant(2, -2))
    assert r.num == -X
    assert r.den.is_one()
    s = RationalFunc(ONE, X.scale(-2))
    assert s.num == Polynomial.constant(2, Fraction(-1, 2))
    assert s.den == X


def test_rational_equality_is_structural():
    a = RationalFunc(X, Y)
    b = RationalFunc(X * (X + ONE), Y * (X + ONE))
    assert a == b


def test_rational_arithmetic():
    x = RationalFunc(X)
    y = RationalFunc(Y)
    one = RationalFunc(ONE)
    assert one / x + one / y == (x + y) / (x * y)
    assert x * x.inverse() == one
    assert (x / y) * (y / x) == one


def test_rational_diff_quotient_rule():
    # d/dx (1/x) = -1/x^2
    r = RationalFunc(ONE, X)
    assert r.diff(0) == RationalFunc(-ONE, X * X)
    assert r.diff(1).is_zero()


def test_rational_pow_negative():
    x = RationalFunc(X)
    assert x ** -2 == RationalFunc(ONE, X * X)


def test_rational_evaluate_and_pole():
    r = RationalFunc(X + Y, X - Y)
    assert r.evaluate([3, 1]) == Fraction(2)
    with pytest.raises(ZeroDivisionError):
        r.evaluate([1, 1])


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFunc(X, Polynomial.zero(2))


def test_to_string_ordering():
    p = P(2, {(0, 0): -3, (2, 0): 1, (1, 1): Fraction(1, 2), (0, 1): -1})
    assert p.to_string(["x", "y"]) == "x^2 + 1/2*x*y - y - 3"
    assert Polynomial.zero(2).to_string(["x", "y"]) == "0"
    r = RationalFunc(X + Y, X * X + ONE)
    assert r.to_string(["x", "y"]) == "(x + y)/(x^2 + 1)"


# -- randomized algebra laws ------------------------------------------------

small = st.integers(min_value=-4, max_value=4)


def polys(nvars):
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    return st.dictionaries(exps, small, max_size=4).map(
        lambda t: Polynomial(nvars, {e: Fraction(c) for e, c in t.items()}))


@settings(max_examples=60, deadline=None)
@given(polys(2), polys(2), polys(2))
def test_ring_laws(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a + (b + c) == (a + b) + c


@settings(max_examples=60, deadline=None)
@given(polys(2), polys(2))
def test_diff_is_derivation(a, b):
    assert (a * b).diff(0) == a.diff(0) * b + a * b.diff(0)


@settings(max_examples=40, deadline=None)
@given(polys(2), polys(2))
def test_evaluate_is_homomorphism(a, b):
    pt = [Fraction(1, 3), Fraction(-2)]
    assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)
    assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)


@settings(max_examples=30, deadline=None)
@given(polys(2), polys(2))
def test_gcd_divides_both(a, b):
    g = poly_gcd(a, b)
    if g.is_zero():
        assert a.is_zero() and b.is_zero()
        return
    assert a.exact_div(g) * g == a
    assert b.exact_div(g) * g == b


def assert_stored_form(p):
    # the invariants Polynomial._make relies on instead of re-checking
    for exps, coeff in p.terms.items():
        assert type(exps) is tuple and len(exps) == p.nvars
        assert all(type(e) is int and e >= 0 for e in exps)
        assert type(coeff) is Fraction and coeff != 0


ring_steps = st.lists(st.one_of(
    st.tuples(st.sampled_from(["+", "-", "*", "exact_div"]), polys(2)),
    st.tuples(st.just("scale"), st.fractions(max_denominator=5)),
    st.tuples(st.just("diff"), st.integers(0, 1)),
    st.tuples(st.just("pow"), st.integers(0, 2))), max_size=6)


@settings(max_examples=80, deadline=None)
@given(polys(2), ring_steps)
def test_arithmetic_results_keep_stored_form(acc, steps):
    assert_stored_form(acc)
    for op, arg in steps:
        if op in ("*", "pow") and acc.total_degree() > 4:
            continue  # keep the chain small
        if op == "+":
            acc = acc + arg
        elif op == "-":
            acc = acc - arg
        elif op == "*":
            acc = acc * arg
        elif op == "exact_div":
            if not arg.is_zero():
                acc = (acc * arg - arg).exact_div(arg)  # acc - 1
        elif op == "scale":
            acc = acc.scale(arg)
        elif op == "diff":
            acc = acc.diff(arg)
        else:
            acc = acc ** arg
        assert_stored_form(acc)


@settings(max_examples=30, deadline=None)
@given(polys(2), polys(2), polys(2))
def test_rational_normal_form_idempotent(n, d, junk):
    if d.is_zero():
        d = Polynomial.constant(2, 1)
    r = RationalFunc(n, d)
    again = RationalFunc(r.num, r.den)
    assert again.num == r.num and again.den == r.den
    if not junk.is_zero():
        assert RationalFunc(n * junk, d * junk) == r


# -- quotient rule and exact division ---------------------------------------

# multilinear factors keep the reference path, a gcd against d^2, quick
factors = st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                          small, min_size=1, max_size=3).map(
    lambda t: Polynomial(2, {e: Fraction(c) for e, c in t.items()}))


@settings(max_examples=60, deadline=None)
@given(polys(2), factors, factors, st.integers(1, 3), st.integers(0, 1))
def test_rational_diff_matches_full_renormalization(n, p, q, m, index):
    if p.is_zero() or q.is_zero():
        return
    f = RationalFunc(n, p ** m * q)
    num, den = f.num, f.den
    reference = RationalFunc(num.diff(index) * den - num * den.diff(index),
                             den * den)
    got = f.diff(index)
    assert got.num == reference.num and got.den == reference.den


@pytest.mark.parametrize("num, den, index, expected_num, expected_den", [
    # the x-free factor y^2 survives as y: only the content step removes it
    (ONE, Y * Y * (X * Y + ONE), 0, -ONE, Y * (X * Y + ONE) ** 2),
    (ONE, (X + Y) ** 3, 0, Polynomial.constant(2, -3), (X + Y) ** 4),
    # a denominator free of x: d/dx (xy + 1)/y^2 = 1/y
    (X * Y + ONE, Y * Y, 0, ONE, Y),
    (X, Y * Y, 0, ONE, Y * Y),
])
def test_rational_diff_named_cases(num, den, index, expected_num, expected_den):
    got = RationalFunc(num, den).diff(index)
    assert got.num == expected_num and got.den == expected_den


@settings(max_examples=60, deadline=None)
@given(polys(2), polys(2))
def test_exact_div_inverts_mul(a, b):
    if b.is_zero():
        return
    assert (a * b).exact_div(b) == a


@pytest.mark.parametrize("num, den", [(X * X + ONE, X + ONE), (X, Y)])
def test_exact_div_rejects_inexact_division(num, den):
    with pytest.raises(ValueError, match="inexact"):
        num.exact_div(den)


# -- certified coprime exit ---------------------------------------------------

P61 = (1 << 61) - 1


def C(value):
    return Polynomial.constant(2, value)


def count_prs(monkeypatch):
    calls = []
    original = ring._subresultant_prs

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(ring, "_subresultant_prs", counted)
    return calls


def test_coprime_pair_runs_no_prs(monkeypatch):
    calls = count_prs(monkeypatch)
    assert poly_gcd(X * X + Y * Y + ONE, X + Y) == ONE
    assert poly_gcd((X * X + Y * Y + ONE) ** 3, (X + Y) ** 2) == ONE
    assert calls == []


def test_common_factor_is_still_found(monkeypatch):
    calls = count_prs(monkeypatch)
    common = X * X + Y * Y + ONE
    assert poly_gcd(common * (X + Y), common * (X - Y + ONE)) == common
    assert calls


# G = (x - 3)(y - 5) + 1 is 1 at x = 3 and at y = 5, the test's point: both
# images lose their degree, and the image gcds alone would call the pair
# coprime; only the degree check sends it to the PRS
LOSES_ALL = (X - C(3)) * (Y - C(5)) + ONE
# (x - 3) y^2 + y + 1 loses its leading coefficient in y at x = 3
LOSES_LEAD = (X - C(3)) * Y * Y + Y + ONE
# a coefficient whose denominator is the test's prime has no image mod p
DEN_P = X * Y + C(Fraction(1, P61))
# the coefficient 2^61 - 1 of x y vanishes mod p: the image in y drops a degree
NUM_P = C(P61) * X * Y + X + ONE


@pytest.mark.parametrize("a, b, expected", [
    (LOSES_ALL * (X + Y), LOSES_ALL * (X + Y.scale(2) + ONE), LOSES_ALL),
    (LOSES_LEAD, LOSES_LEAD * (X + Y), LOSES_LEAD),
    (LOSES_LEAD * (X + ONE), LOSES_LEAD * (Y + ONE), LOSES_LEAD),
    (LOSES_LEAD, (X - C(3)) * Y * Y + C(2), ONE),
    (DEN_P * (X + ONE), DEN_P * (Y + ONE), DEN_P),
    (DEN_P, X + Y, ONE),
    (NUM_P, NUM_P * (X + Y), NUM_P),
    (NUM_P, X * Y + Y + ONE, ONE),
], ids=["loses-all", "loses-lead-multiple", "loses-lead-common",
        "loses-lead-coprime", "prime-denominator-common",
        "prime-denominator-coprime", "prime-coefficient-multiple",
        "prime-coefficient-coprime"])
def test_fallback_pairs_take_the_prs(monkeypatch, a, b, expected):
    calls = count_prs(monkeypatch)
    g = poly_gcd(a, b)
    assert g == ring._monic(expected)
    assert calls, "the coprime test must not certify this pair"


# -- quotient-rule memo -------------------------------------------------------


def test_quotient_memo_is_bounded_and_reused():
    ring.clear_quotient_memo()
    f = RationalFunc(ONE, (X * X + Y * Y + ONE) ** 2 * (X + Y))
    first = f.diff(0)
    assert len(ring._QUOTIENT_MEMO) == 1
    assert f.scale(3).diff(0) == first.scale(3)
    assert len(ring._QUOTIENT_MEMO) == 1
    for k in range(2 * ring.QUOTIENT_MEMO_SIZE + 3):
        RationalFunc(ONE, X + C(k)).diff(k % 2)
        assert len(ring._QUOTIENT_MEMO) <= ring.QUOTIENT_MEMO_SIZE
    assert f.diff(0) == first
    ring.clear_quotient_memo()
    assert not ring._QUOTIENT_MEMO
