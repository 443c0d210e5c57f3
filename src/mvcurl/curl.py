"""Curl operator on multivector fields and the Schouten bracket.

The curl lowers grade by one via the composition sharp . d . flat against a
fixed volume form; on vector fields it is the divergence.  The Schouten
bracket is implemented directly as the derivation-based blade formula, not
through the curl, so the curl/wedge compatibility law stays a genuine
cross-check between two independent computations.

Logarithms never appear symbolically: the bracket of a multivector with
log(m) is realized as the difference of two curls, which keeps the
coefficient field closed under every operation.

A last multiplier is checked three ways, one per characterization in the
paper.  The Witten route tests omega = flat(A) against d_m + (m-1)d, where
d_m = dm^ + d is the Witten differential at t = 1.  That operator is
dm^ + m d, so the route compares dm ^ omega with -m d(omega) and never
normalises a sum: normal forms are unique, so a sum of two canonical forms
is zero exactly when one is minus the other.
"""

from __future__ import annotations

from itertools import chain

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
    sharp,
)
from mvcurl.ring import RationalFunc


def curl(volume: VolumeForm, a: Multivector) -> Multivector:
    """Grade-lowering curl; zero on scalars, divergence on vector fields."""
    if volume.chart != a.chart:
        raise ValueError("chart mismatch")
    if a.grade == 0:
        return Multivector.zero(a.chart, 0)
    return sharp(volume, exterior_derivative(flat(volume, a)))


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


def _in_witten_kernel(m: RationalFunc, omega: DifferentialForm) -> bool:
    """Whether omega lies in the kernel of d_m + (m-1)d = dm^ + m d, that is
    whether dm ^ omega == -m d(omega); no sum is formed or normalised."""
    dm = DifferentialForm.differential(omega.chart, m)
    return dm.wedge(omega) == -exterior_derivative(omega).scale(m)


def is_last_multiplier(volume: VolumeForm, m: RationalFunc, a: Multivector) -> bool:
    """Three independent routes; any disagreement is an internal error.

    (a) the curl residual of m*a vanishes;
    (b) flat(a) lies in the kernel of the operator d_m + (m-1)d, which is
        dm^ + m d: dm ^ flat(a) equals -m d(flat(a)), compared as canonical
        forms, with its own dm, d and wedge;
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


def curl_scaled(volume: VolumeForm, m: RationalFunc, a: Multivector) -> Multivector:
    """Curl against the rescaled volume m*V."""
    if m.is_zero():
        raise ZeroDivisionError("volume multiplier must be non-zero")
    return curl(volume.scaled(m), a)


def log_bracket(volume: VolumeForm, a: Multivector, m: RationalFunc) -> Multivector:
    """Bracket of a with log(m), realized as curl_scaled - curl."""
    return curl_scaled(volume, m, a) - curl(volume, a)


def is_exact(volume: VolumeForm, a: Multivector) -> bool:
    return curl(volume, a).is_zero()


def inverse_multiplier_check(volume: VolumeForm, h: RationalFunc,
                             x: Multivector) -> bool:
    """True when X(h) = div(X) * h, i.e. 1/h is a last multiplier of X."""
    if h.is_zero():
        raise ZeroDivisionError("inverse multiplier candidate must be non-zero")
    return vector_apply(x, h) == divergence(volume, x) * h


def first_integral_check(x: Multivector, f: RationalFunc) -> bool:
    return vector_apply(x, f).is_zero()
