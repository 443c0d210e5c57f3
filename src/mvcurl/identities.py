"""Seeded random identity battery over the curl/bracket operator laws.

Generation parameters are frozen so failures reproduce: dimension in {2,3,4},
grades up to 3, polynomial coefficients of degree up to 2 with integer
coefficients in [-3, 3].  Every check is an exact structural equality; there
are no tolerances anywhere.
"""

from __future__ import annotations

import functools
import random
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

from mvcurl.curl import curl, schouten
from mvcurl.exterior import (
    Chart,
    DifferentialForm,
    Multivector,
    VolumeForm,
    exterior_derivative,
    flat,
    interior_product_form,
    interior_product_vector,
    pairing,
    sharp,
)
from mvcurl.ring import Polynomial, RationalFunc

DEFAULT_SEED = 0
COORD_NAMES = ("x", "y", "z", "w")


# -- random generators ------------------------------------------------------


def random_exponents(rng: random.Random, nvars: int, max_degree: int) -> Tuple[int, ...]:
    e = [0] * nvars
    for _ in range(rng.randint(0, max_degree)):
        e[rng.randrange(nvars)] += 1
    return tuple(e)


def random_polynomial(rng: random.Random, nvars: int, max_degree: int = 2,
                      max_terms: int = 2, allow_zero: bool = True) -> Polynomial:
    terms: Dict[Tuple[int, ...], int] = {}
    for _ in range(rng.randint(1, max_terms)):
        c = rng.randint(-3, 3)
        if c == 0:
            continue
        e = random_exponents(rng, nvars, max_degree)
        terms[e] = terms.get(e, 0) + c
    p = Polynomial(nvars, terms)
    if p.is_zero() and not allow_zero:
        return random_polynomial(rng, nvars, max_degree, max_terms, allow_zero)
    return p


@functools.cache
def denominator_pool(nvars: int) -> Tuple[Polynomial, ...]:
    """Nowhere-vanishing-friendly denominators that keep GCDs cheap; built
    once per dimension and shared, since polynomials are never mutated."""
    x = Polynomial.variable(nvars, 0)
    one = Polynomial.constant(nvars, 1)
    pool = [x * x + one]
    if nvars >= 2:
        y = Polynomial.variable(nvars, 1)
        pool.append(x * x + y * y + one)
    return tuple(pool)


def random_multiplier(rng: random.Random, nvars: int) -> RationalFunc:
    """Non-zero rational function; half the draws carry a denominator."""
    p = random_polynomial(rng, nvars, allow_zero=False)
    if rng.random() < 0.5:
        return RationalFunc(p)
    return RationalFunc(p, rng.choice(denominator_pool(nvars)))


def density_pool(chart: Chart) -> Tuple[RationalFunc, ...]:
    """Densities 1, 2, then each denominator of ``denominator_pool``."""
    return _density_pool(chart.dim)


@functools.cache
def _density_pool(n: int) -> Tuple[RationalFunc, ...]:
    return (RationalFunc.constant(n, 1), RationalFunc.constant(n, 2),
            *(RationalFunc(q) for q in denominator_pool(n)))


def random_volume(rng: random.Random, chart: Chart) -> VolumeForm:
    return VolumeForm(chart, rng.choice(density_pool(chart)))


def random_chart(rng: random.Random) -> Chart:
    return Chart(COORD_NAMES[:rng.choice((2, 3, 4))])


def _random_blade_sum(cls, rng: random.Random, chart: Chart, grade: int,
                      max_blades: int, max_degree: int):
    n = chart.dim
    all_masks = [m for m in range(1 << n) if m.bit_count() == grade]
    masks = rng.sample(all_masks, min(rng.randint(1, max_blades), len(all_masks)))
    terms = {}
    for mask in masks:
        c = random_polynomial(rng, n, max_degree=max_degree, allow_zero=False)
        terms[mask] = RationalFunc(c)
    return cls(chart, grade, terms)


def random_multivector(rng: random.Random, chart: Chart, grade: int,
                       max_blades: int = 2, max_degree: int = 2) -> Multivector:
    return _random_blade_sum(Multivector, rng, chart, grade, max_blades, max_degree)


def random_form(rng: random.Random, chart: Chart, degree: int,
                max_blades: int = 2, max_degree: int = 2) -> DifferentialForm:
    return _random_blade_sum(DifferentialForm, rng, chart, degree, max_blades, max_degree)


def _grade(rng: random.Random, chart: Chart, low: int = 1) -> int:
    return rng.randint(low, min(3, chart.dim))


# -- identity checks (one random case per call) -----------------------------


def _check_scaled_curl(rng: random.Random) -> bool:
    # m * curl_{mV}(A) = curl_V(m A)
    chart = random_chart(rng)
    a = random_multivector(rng, chart, _grade(rng, chart))
    m = random_multiplier(rng, chart.dim)
    vol = random_volume(rng, chart)
    return curl(vol, a.scale(m)) == curl(vol.scaled(m), a).scale(m)


def _check_curl_wedge(rng: random.Random) -> bool:
    # [A,B] = (-1)^b curl(A^B) - curl(A)^B - (-1)^b A^curl(B), any volume
    chart = random_chart(rng)
    ga = _grade(rng, chart)
    gb = 0 if rng.random() < 0.2 else _grade(rng, chart)
    a = random_multivector(rng, chart, ga)
    b = random_multivector(rng, chart, gb)
    lhs = schouten(a, b)
    sign_b = 1 if gb % 2 == 0 else -1
    densities = rng.sample(density_pool(chart), 2)
    for density in densities:
        vol = VolumeForm(chart, density)
        rhs = (curl(vol, a.wedge(b)).scale(sign_b)
               - curl(vol, a).wedge(b)
               - a.wedge(curl(vol, b)).scale(sign_b))
        if lhs != rhs:
            return False
    return True


def _check_derivation_law(rng: random.Random) -> bool:
    # curl [A,B] = [A, curl B] + (-1)^(b-1) [curl A, B]
    chart = random_chart(rng)
    a = random_multivector(rng, chart, _grade(rng, chart))
    b = random_multivector(rng, chart, _grade(rng, chart))
    vol = random_volume(rng, chart)
    sign = 1 if (b.grade - 1) % 2 == 0 else -1
    lhs = curl(vol, schouten(a, b))
    rhs = schouten(a, curl(vol, b)) + schouten(curl(vol, a), b).scale(sign)
    return lhs == rhs


def _check_curl_squared(rng: random.Random) -> bool:
    chart = random_chart(rng)
    a = random_multivector(rng, chart, _grade(rng, chart))
    vol = random_volume(rng, chart)
    return curl(vol, curl(vol, a)).is_zero()


def _check_d_squared(rng: random.Random) -> bool:
    chart = random_chart(rng)
    omega = random_form(rng, chart, rng.randint(0, min(3, chart.dim)))
    return exterior_derivative(exterior_derivative(omega)).is_zero()


def _check_duality(rng: random.Random) -> bool:
    # <i_A w, B> = <w, A ^ B>
    chart = random_chart(rng)
    ga = rng.randint(0, 2)
    gb = rng.randint(0, 2)
    deg = ga + gb if rng.random() < 0.8 else rng.randint(0, chart.dim)
    a = random_multivector(rng, chart, min(ga, chart.dim))
    b = random_multivector(rng, chart, min(gb, chart.dim))
    omega = random_form(rng, chart, min(deg, chart.dim))
    return pairing(interior_product_form(a, omega), b) == pairing(omega, a.wedge(b))


def _check_mirror_duality(rng: random.Random) -> bool:
    # <eta, i_w A> = <w ^ eta, A>
    chart = random_chart(rng)
    dw = rng.randint(0, 2)
    de = rng.randint(0, 2)
    ga = dw + de if rng.random() < 0.8 else rng.randint(0, chart.dim)
    omega = random_form(rng, chart, min(dw, chart.dim))
    eta = random_form(rng, chart, min(de, chart.dim))
    a = random_multivector(rng, chart, min(ga, chart.dim))
    return pairing(eta, interior_product_vector(omega, a)) == pairing(omega.wedge(eta), a)


def _check_flat_sharp_roundtrip(rng: random.Random) -> bool:
    chart = random_chart(rng)
    vol = random_volume(rng, chart)
    a = random_multivector(rng, chart, rng.randint(0, min(3, chart.dim)))
    omega = random_form(rng, chart, rng.randint(0, min(3, chart.dim)))
    return sharp(vol, flat(vol, a)) == a and flat(vol, sharp(vol, omega)) == omega


IDENTITY_CHECKS: List[Tuple[str, Callable[[random.Random], bool]]] = [
    ("scaled-curl-compatibility", _check_scaled_curl),
    ("curl-wedge-vs-schouten", _check_curl_wedge),
    ("curl-derivation-law", _check_derivation_law),
    ("curl-squared-zero", _check_curl_squared),
    ("d-squared-zero", _check_d_squared),
    ("contraction-duality", _check_duality),
    ("mirror-contraction-duality", _check_mirror_duality),
    ("flat-sharp-roundtrip", _check_flat_sharp_roundtrip),
]


class IdentityResult(NamedTuple):
    name: str
    cases: int
    failures: int

    @property
    def passed(self) -> bool:
        return self.failures == 0


def run_identity_suite(seed: int = DEFAULT_SEED, cases: int = 50,
                       names: Sequence[str] | None = None) -> List[IdentityResult]:
    """Run each identity on ``cases`` fresh random instances."""
    if cases < 0:
        raise ValueError(f"--cases must be non-negative, got {cases}")
    if names is not None:
        known = {n for n, _ in IDENTITY_CHECKS}
        for n in names:
            if n not in known:
                raise ValueError(f"unknown identity: {n}")
    results = []
    for name, check in IDENTITY_CHECKS:
        if names is not None and name not in names:
            continue
        rng = random.Random(f"{seed}:{name}")
        failures = sum(0 if check(rng) else 1 for _ in range(cases))
        results.append(IdentityResult(name, cases, failures))
    return results
