"""Exact polynomial and rational-function arithmetic."""

from fractions import Fraction
from math import gcd

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


@pytest.mark.parametrize("build", [
    lambda: RationalFunc(X) + RationalFunc(-X),
    lambda: RationalFunc(ONE, X) - RationalFunc(ONE, X),
    lambda: RationalFunc.zero(2) * RationalFunc(ONE, X),
    lambda: RationalFunc(ONE, X) * RationalFunc.zero(2),
    lambda: RationalFunc(ONE, X).scale(0),
    lambda: RationalFunc.constant(2, 3).diff(0),
    lambda: RationalFunc(ONE, Y).diff(0),
    lambda: RationalFunc(Polynomial.zero(2), X + Y),
], ids=["polynomial-sum", "same-denominator-sum", "zero-times", "times-zero",
        "scale", "polynomial-diff", "quotient-rule-diff", "constructor"])
def test_zero_results_equal_and_hash_like_zero(build):
    zero = RationalFunc.zero(2)
    result = build()
    assert result.is_zero() and result.den == ONE
    assert result == zero and hash(result) == hash(zero)


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


def test_constant_gcds_share_the_constant_one():
    one = ring._one(2)
    assert poly_gcd(X * X + Y * Y + ONE, X + Y) is one  # certified coprime
    assert poly_gcd(X + ONE, Y + ONE) is one  # no common variable
    assert poly_gcd(C(3), X + Y) is one  # constant input
    assert poly_gcd(X * X, Y + ONE) is one  # a monomial with no shared power
    assert Polynomial.constant(2, 1) is one
    assert RationalFunc.constant(2, 1).num is one
    assert Polynomial.constant(2, 2) is not one


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


# -- integer kernel against the Fraction reference ---------------------------

# The dict-of-Fraction loops the ring ran before it stored integer numerators
# over one denominator; the kernel's ``terms`` view must agree with them.


def ref_merge(a, b, sign):
    out = dict(a)
    for exps, coeff in b.items():
        out[exps] = out.get(exps, 0) + sign * coeff
    return {e: c for e, c in out.items() if c}


def ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def ref_diff(a, index):
    out = {}
    for exps, coeff in a.items():
        k = exps[index]
        if k:
            e = list(exps)
            e[index] = k - 1
            out[tuple(e)] = coeff * k
    return out


def ref_exact_div(a, b):
    lead_e = max(b, key=ring.grlex_key)
    lead_c = b[lead_e]
    tail = [(e, c) for e, c in b.items() if e != lead_e]
    rem = dict(a)
    quotient = {}
    while rem:
        re = max(rem, key=ring.grlex_key)
        qe = tuple(x - y for x, y in zip(re, lead_e))
        if min(qe) < 0:
            raise ValueError("inexact polynomial division")
        qc = rem.pop(re) / lead_c
        quotient[qe] = qc
        for e, c in tail:
            m = tuple(x + y for x, y in zip(e, qe))
            v = rem.get(m, 0) - qc * c
            if v:
                rem[m] = v
            else:
                del rem[m]
    return quotient


rationals = st.fractions(min_value=-12, max_value=12, max_denominator=9)


def rational_polys(nvars):
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    return st.dictionaries(exps, rationals, max_size=5).map(
        lambda t: Polynomial(nvars, t))


def rational_cases(count):
    return st.integers(1, 3).flatmap(lambda n: st.tuples(
        *[rational_polys(n)] * count, st.integers(0, n - 1)))


def assert_canonical(p):
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c for c in p.nums.values())
    assert gcd(p.den, *p.nums.values()) == 1
    if not p.nums:
        assert p.den == 1


def maybe(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


@settings(max_examples=150, deadline=None)
@given(rational_cases(3))
def test_kernel_matches_fraction_reference(case):
    a, b, c, index = case
    ta, tb = dict(a.terms), dict(b.terms)
    assert dict((a + b).terms) == ref_merge(ta, tb, 1)
    assert dict((a - b).terms) == ref_merge(ta, tb, -1)
    assert dict((a * b).terms) == ref_mul(ta, tb)
    assert dict(a.diff(index).terms) == ref_diff(ta, index)
    if not b.is_zero():
        prod = a * b
        assert dict(prod.exact_div(b).terms) == ref_exact_div(dict(prod.terms), tb)
        # mostly inexact: both raise, or both return the same quotient
        shifted = prod + c
        got = maybe(lambda: dict(shifted.exact_div(b).terms))
        assert got == maybe(ref_exact_div, dict(shifted.terms), tb)


@settings(max_examples=150, deadline=None)
@given(rational_cases(2), rationals, st.integers(0, 3))
def test_kernel_results_are_canonical(case, factor, power):
    a, b, index = case
    results = [a, b, a + b, a - b, -a, a * b, a.diff(index), a.scale(factor),
               a ** power]
    if not b.is_zero():
        results += [(a * b).exact_div(b), ring._monic(b)]
    for p in results:
        assert_canonical(p)
        assert_stored_form(p)


def test_stored_form_is_integers_over_one_denominator():
    p = P(2, {(1, 0): Fraction(2, 3), (0, 1): Fraction(-1, 6), (0, 0): 4})
    assert p.nums == {(1, 0): 4, (0, 1): -1, (0, 0): 24} and p.den == 6
    assert (p - p).nums == {} and (p - p).den == 1
    assert p.scale(6).den == 1 and p.scale(6).nums == {(1, 0): 4, (0, 1): -1,
                                                       (0, 0): 24}
    # equal values, equal storage, equal hashes, whatever the route
    q = P(2, {(1, 0): 8, (0, 1): -2, (0, 0): 48}).scale(Fraction(1, 12))
    assert q == p and hash(q) == hash(p)
    with pytest.raises(TypeError):
        p.terms[(1, 0)] = Fraction(1)


def test_exact_div_by_divisor_with_content():
    # the divisor 6x + 4 has content 2: the quotient is found over its
    # primitive part 3x + 2, then rescaled
    divisor = P(2, {(1, 0): 6, (0, 0): 4})
    quotient = P(2, {(1, 1): Fraction(1, 5), (0, 0): Fraction(-7, 3)})
    assert (quotient * divisor).exact_div(divisor) == quotient
    assert (quotient * divisor).exact_div(divisor.scale(Fraction(1, 4))) \
        == quotient.scale(4)
    with pytest.raises(ValueError, match="inexact"):
        (quotient * divisor + ONE).exact_div(divisor)


@pytest.mark.parametrize("build", [
    lambda: Polynomial.constant(2, 0.1),
    lambda: Polynomial.monomial(2, (1, 0), 0.5),
    lambda: Polynomial(1, {(1,): 1e-3}),
    lambda: Polynomial(1, {(1,): 1j}),
    lambda: X.scale(0.3),
    lambda: RationalFunc(X).scale(0.3),
    lambda: RationalFunc.constant(2, 2.0),
    lambda: X.evaluate([0.1, 0]),
    lambda: X.evaluate([0, 1j]),
    lambda: RationalFunc(X, Y).evaluate([1, 0.5]),
], ids=["constant", "monomial", "constructor", "complex", "scale",
        "rational-scale", "rational-constant", "evaluate", "evaluate-complex",
        "rational-evaluate"])
def test_floats_are_refused(build):
    with pytest.raises(TypeError, match="inexact coefficient"):
        build()


def test_exact_inputs_are_accepted():
    assert Polynomial.constant(2, "1/10") == Polynomial.constant(2, Fraction(1, 10))
    assert X.scale(Fraction(3, 10)).terms == {(1, 0): Fraction(3, 10)}
    assert Polynomial.constant(2, True) == ONE
    p = X * X + Y.scale(3)
    assert p.evaluate([1, 2]) == 7
    assert p.evaluate([Fraction(1, 10), 0]) == Fraction(1, 100)
    assert p.evaluate(["1/10", "2"]) == Fraction(601, 100)
    assert RationalFunc(X, Y).evaluate(["1/10", Fraction(1, 5)]) == Fraction(1, 2)
