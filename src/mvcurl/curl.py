"""Curl operator on multivector fields and the Schouten bracket.

The curl against the volume rho dx_1 ^ ... ^ dx_n lowers grade by one: a
blade c e_I gives +-d_j(rho c)/rho on e_{I-j} for each j in I, which is
sharp . d . flat (the tests' reference) and the divergence on vector
fields.  The Schouten bracket is the derivation-based blade formula, not
built on the curl, so the curl/wedge compatibility law stays a genuine
cross-check between two independent computations.

A last multiplier is checked three ways, one per characterization in the
paper.  The Witten route tests omega = flat(A) against d_m + (m-1)d, where
d_m = dm^ + d is the Witten differential at t = 1.  That operator is
dm^ + m d, and the route never brings a coefficient of it to normal form:
it clears m and omega to integer numerators, cancels what they share, and
tests each blade of q^2 D^2 (dm ^ omega + m d(omega)) for zero, first by
its value at one integer point and only then by expanding it.
"""

from __future__ import annotations

from itertools import chain, count
from typing import Dict, Sequence

from mvcurl.exterior import (
    DifferentialForm,
    Multivector,
    VolumeForm,
    _signed,
    blade_indices,
    exterior_derivative,
    flat,
    merge_sign,
    pairing,
)
from mvcurl.ring import (
    Polynomial,
    RationalFunc,
    _unpack,
    common_denominator,
    poly_gcd,
)


def curl(volume: VolumeForm, a: Multivector) -> Multivector:
    """The curl by its coordinate formula; zero on scalars.  The sign on
    e_{I-j} sorts I-j in front of x_j, and rho divides the sum once."""
    if volume.chart != a.chart:
        raise ValueError("chart mismatch")
    if a.grade == 0:
        return Multivector.zero(a.chart, 0)
    rho = None if volume.density.is_one() else volume.density
    pairs = []
    for mask, coeff in a.terms.items():
        coeff = coeff if rho is None else coeff * rho
        for j in blade_indices(mask):
            dj = coeff.diff(j)
            if not dj.is_zero():
                rest = mask & ~(1 << j)
                pairs.append((rest, _signed(merge_sign(rest, 1 << j), dj)))
    out = Multivector._summed(a.chart, a.grade - 1, pairs)
    return out if rho is None else out.scale(rho.inverse())


def divergence(volume: VolumeForm, x: Multivector) -> RationalFunc:
    if x.grade != 1 and not x.is_zero():
        raise ValueError(f"divergence needs a vector field, got grade {x.grade}")
    return curl(volume, x).scalar_value()


def vector_apply(x: Multivector, f: RationalFunc) -> RationalFunc:
    """Directional derivative X(f) = <df, X>, the pairing of the
    differential of f with the vector field; f is differentiated only in
    the coordinates where X has a component."""
    if x.grade != 1 and not x.is_zero():
        raise ValueError(f"expected a vector field, got grade {x.grade}")
    if f.nvars != x.chart.dim:
        raise ValueError("coefficient dimension does not match chart")
    df = DifferentialForm._summed(x.chart, 1, (
        (mask, f.diff(mask.bit_length() - 1)) for mask in x.terms))
    return pairing(df, x)


def schouten(a: Multivector, b: Multivector) -> Multivector:
    """Schouten bracket, extending the Lie bracket to blades as a derivation.

    Per blade pair (c dI, c' dJ) of grades (p, q) the bracket contributes
        (-1)^(p-1) c (i_{dc'} dI) ^ dJ  -  (-1)^((p-1)(q-1)+(q-1)) c' (i_{dc} dJ) ^ dI,
    the unique graded-antisymmetric derivation extension with [X, f] = X(f).
    """
    if a.chart != b.chart:
        raise ValueError("chart mismatch")
    p, q = a.grade, b.grade
    sign1 = -1 if (p - 1) % 2 else 1
    sign2 = -(1 if ((p - 1) * (q - 1) + (q - 1)) % 2 == 0 else -1)

    def half(base_sign: int, mi: int, ci: RationalFunc, mj: int, cj: RationalFunc):
        # base_sign * ci (i_{d cj} d_{mi}) ^ d_{mj}, one pair per x_k of mi
        for k in blade_indices(mi):
            rest = mi & ~(1 << k)
            if rest & mj:
                continue
            dk = cj.diff(k)
            if not dk.is_zero():
                sign = base_sign * merge_sign(1 << k, rest) * merge_sign(rest, mj)
                yield rest | mj, _signed(sign, ci * dk)

    return Multivector._summed(a.chart, p + q - 1, (
        term for mi, ca in a.terms.items() for mj, cb in b.terms.items()
        for term in chain(half(sign1, mi, ca, mj, cb), half(sign2, mj, cb, mi, ca))))


def last_multiplier_residual(volume: VolumeForm, m: RationalFunc,
                             a: Multivector) -> Multivector:
    """Curl of m*a; the zero multivector exactly when m is a last multiplier."""
    return curl(volume, a.scale(m))


# route (b) refutes at (3^t, 5^t, ...) in n coordinates: the t-th powers,
# t = 1, 2, ..., of the first n of these primes (MAX_DIM is 16)
_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)


def _value_and_gradient(p: Polynomial, point: Sequence[int]) -> tuple:
    """(p(a), [d_i p(a) for each i]) for integer numerators p at an integer
    point a with non-zero coordinates: a term c x^e adds e_i c a^e / a_i to
    d_i p(a), an exact quotient whenever e_i > 0."""
    n = p.nvars
    value, grad = 0, [0] * n
    for key, c in p.nums.items():
        exps = _unpack(n, key)
        for a, e in zip(point, exps):
            if e:
                c *= a ** e
        value += c
        for i, e in enumerate(exps):
            if e:
                grad[i] += e * c // point[i]
    return value, grad


def _blade_sums(blades: Dict[int, list], zero, p: tuple, q: tuple, d: tuple,
                numerators: list):
    """For each blade K of ``blades``, the signed sum over its pairs (i, J)
    of Phi(p, q, W_J, D) on dx_i ^ dx_J (see ``_in_witten_kernel``), from
    (f, [d_0 f, ..., d_(n-1) f]) for p, q, D and each W_J: the same code
    runs on values at a point and on the polynomials themselves."""
    (p, dp), (q, dq), (d, dd) = p, q, d
    pq = p * q
    slopes = [q * a - p * b for a, b in zip(dp, dq)]  # q^2 d_i m
    for terms in blades.values():
        inner = outer = zero
        for sign, i, j in terms:
            w, dw = numerators[j]
            part_in, part_out = w * slopes[i] + pq * dw[i], w * dd[i]
            if sign < 0:
                inner, outer = inner - part_in, outer - part_out
            else:
                inner, outer = inner + part_in, outer + part_out
        yield d * inner - pq * outer


def _in_witten_kernel(m: RationalFunc, omega: DifferentialForm) -> bool:
    """Whether omega lies in the kernel of d_m + (m-1)d = dm^ + m d, tested
    on integer numerators with no normal form taken.

    Write m = p/q and omega = (1/D) sum_J W_J dx_J (``common_denominator``).
    On the blade dx_i ^ dx_J, q^2 D^2 times the coefficient of
    dm ^ omega + m d(omega) is

        Phi(p, q, W, D) = W_J D (q d_i p - p d_i q) + p q (D d_i W_J - W_J d_i D),

    and a blade K sums Phi, signed, over the pairs (i, J) with x_i ^ J = K.
    Phi is linear in each of p, q, the family W and D, so constant factors
    only scale it: values are read from the integer numerators of p and q,
    and D and the W_J stay integral when divided by the monic g1 and g2
    below (Gauss's lemma).  For any polynomial g the terms in dg cancel in

        Phi(g p, q, W, g D) = g^2 Phi(p, q, W, D),
        Phi(p, g q, g W, D) = g^2 Phi(p, q, W, D).

    So dividing out g1 = gcd(p, D) and g2 = gcd(q, W_J for every J) leaves
    the verdict unchanged and the polynomials small.  Each blade sum is then
    evaluated at one integer point where q and D do not vanish: a polynomial
    that is non-zero at one point is non-zero, so a non-zero value refutes,
    and only when every value is zero is each sum expanded.  The point is
    (3^t, 5^t, 7^t, ...) for the least t = 1, 2, ... that misses the zeros of
    q D; along it q D is a sum of exponentials b^t with distinct bases b, one
    per monomial, which vanishes at fewer t than it has terms.
    """
    n = omega.chart.dim
    d, numerators = common_denominator(n, list(omega.terms.values()))
    p, q = m.num, m.den
    g1 = poly_gcd(p, d)
    if not g1.is_constant():
        p, d = p.exact_div(g1), d.exact_div(g1)
    g2 = q
    for w in numerators:
        if g2.is_constant():
            break
        g2 = poly_gcd(g2, w)
    if not g2.is_constant():
        q = q.exact_div(g2)
        numerators = [w.exact_div(g2) for w in numerators]
    # blade K -> its (sign, i, j) with x_i ^ J = K and W_J = numerators[j],
    # the sign from sorting x_i into J
    blades: Dict[int, list] = {}
    for j, mask in enumerate(omega.terms):
        for i in range(n):
            if not mask >> i & 1:
                blades.setdefault(mask | 1 << i, []).append(
                    (merge_sign(1 << i, mask), i, j))
    for t in count(1):
        point = [prime ** t for prime in _PRIMES[:n]]
        at_q, at_d = (_value_and_gradient(f, point) for f in (q, d))
        if at_q[0] and at_d[0]:
            break
    if any(_blade_sums(blades, 0, _value_and_gradient(p, point), at_q, at_d,
                       [_value_and_gradient(w, point) for w in numerators])):
        return False

    def expanded(f: Polynomial) -> tuple:
        return f, [f.diff(i) for i in range(n)]

    return not any(phi.nums for phi in _blade_sums(
        blades, Polynomial.zero(n), expanded(p), expanded(q), expanded(d),
        [expanded(w) for w in numerators]))


def is_last_multiplier(volume: VolumeForm, m: RationalFunc, a: Multivector) -> bool:
    """Three independent routes; any disagreement is an internal error.

    (a) the curl residual of m*a, by the coordinate formula, vanishes;
    (b) flat(a) lies in the kernel of the operator d_m + (m-1)d, which is
        dm^ + m d: every blade of dm ^ flat(a) + m d(flat(a)), cleared to
        integer numerators with shared factors cancelled, is zero, with its
        own dm, d and wedge and no normal form (``_in_witten_kernel``);
    (c) flat(a) is closed for the conjugated differential (1/m) d(m * .),
        tested as d(m flat(a)) = 0, since m is not zero.
    """
    if m.is_zero():
        raise ZeroDivisionError("candidate multiplier must be non-zero")
    omega = flat(volume, a)
    via_curl = last_multiplier_residual(volume, m, a).is_zero()
    via_witten = _in_witten_kernel(m, omega)
    via_marsden = exterior_derivative(omega.scale(m)).is_zero()
    if not via_curl == via_witten == via_marsden:
        raise RuntimeError(
            f"multiplier routes disagree: curl={via_curl} "
            f"witten={via_witten} marsden={via_marsden}")
    return via_curl


def is_exact(volume: VolumeForm, a: Multivector) -> bool:
    return curl(volume, a).is_zero()


def first_integral_check(x: Multivector, f: RationalFunc) -> bool:
    return vector_apply(x, f).is_zero()
