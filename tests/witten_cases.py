"""Seeded cases for route (b) of ``is_last_multiplier``, and a check of
``_in_witten_kernel`` against the Witten form summed as the paper writes it.

Stdlib-only, so it also runs where pytest is not installed:

    PYTHONPATH=src python tests/witten_cases.py

runs every seeded case of each stratum through both, prints the count of
each, and exits 1 on any disagreement or on a stratum with fewer cases than
its minimum.
"""

import random
import sys

from mvcurl.curl import _in_witten_kernel, curl
from mvcurl.exterior import (
    Chart,
    DifferentialForm,
    Multivector,
    VolumeForm,
    exterior_derivative,
    flat,
    sharp,
    witten_derivative,
)
from mvcurl.identities import (
    denominator_pool,
    density_pool,
    random_form,
    random_multiplier,
    random_multivector,
    random_polynomial,
)
from mvcurl.ring import RationalFunc

CASES_PER_DIMENSION = 260
CURL_QUOTIENT_DRAWS = 14


def witten_sum_vanishes(m, omega):
    """Route (b) as the paper writes it: (d_m + (m-1)d) omega == 0, with the
    Witten differential at t = 1 and the sum normalised."""
    one = RationalFunc.constant(m.nvars, 1)
    return (witten_derivative(1, m, omega)
            + exterior_derivative(omega).scale(m - one)).is_zero()


def route_b_cases(dim):
    """At least CASES_PER_DIMENSION seeded (volume, multiplier, multivector)
    cases in one dimension: every grade and every pool density, random
    multipliers, and multipliers that are last multipliers by construction."""
    chart = Chart(("x", "y", "z", "w")[:dim])
    rng = random.Random(f"route-b:{dim}")
    pool = density_pool(chart)
    per_pass = len(pool) * ((dim + 1) * 6 + 2)
    passes = -(-CASES_PER_DIMENSION // per_pass)
    for density in pool * passes:
        vol = VolumeForm(chart, density)
        for grade in range(dim + 1):
            for _ in range(4):
                a = random_multivector(rng, chart, grade, max_degree=1)
                yield vol, random_multiplier(rng, dim), a
            # m (sharp of a closed form) / m: curl(m A) = sharp(d closed) = 0
            for _ in range(2):
                m = random_multiplier(rng, dim)
                if grade < dim:
                    closed = exterior_derivative(random_form(
                        rng, chart, dim - grade - 1, max_degree=2))
                else:
                    closed = DifferentialForm.scalar(
                        chart, chart.constant(rng.choice((-2, 1, 3))))
                yield vol, m, sharp(vol, closed).scale(m.inverse())
        # 1/(c f) for the top-degree c e_top against density f
        for _ in range(2):
            c = RationalFunc(random_polynomial(rng, dim, allow_zero=False))
            top = Multivector.blade(chart, range(dim), c)
            yield vol, (c * density).inverse(), top


def curl_quotient_cases(dim):
    """CURL_QUOTIENT_DRAWS cases A = curl_V(B)/m per pool density, with B a
    random multivector over a denominator q of ``denominator_pool``: m is a
    last multiplier, since curl_V(m A) = curl_V(curl_V(B)) = 0, and in most
    draws q stays in the denominator D of flat(A) after gcd(p, D) is divided
    out, so the W_J d_i D terms of route (b) are reached."""
    chart = Chart(("x", "y", "z", "w")[:dim])
    rng = random.Random(f"curl-quotient:{dim}")
    for density in density_pool(chart):
        vol = VolumeForm(chart, density)
        for _ in range(CURL_QUOTIENT_DRAWS):
            q = RationalFunc(rng.choice(denominator_pool(dim)))
            b = random_multivector(rng, chart, rng.randint(2, dim), max_degree=1)
            m = random_multiplier(rng, dim)
            yield vol, m, curl(vol, b.scale(q.inverse())).scale(m.inverse())


# name -> (cases of one dimension, its dimensions, least number of cases)
STRATA = {
    "seeded": (route_b_cases, range(1, 5), 4 * CASES_PER_DIMENSION),
    "curl quotient": (curl_quotient_cases, range(2, 5),
                      3 * 4 * CURL_QUOTIENT_DRAWS),
}


def main() -> int:
    failed = False
    for name, (cases_of, dims, least) in STRATA.items():
        cases = disagreements = 0
        for dim in dims:
            for vol, m, a in cases_of(dim):
                omega = flat(vol, a)
                cases += 1
                if _in_witten_kernel(m, omega) != witten_sum_vanishes(m, omega):
                    disagreements += 1
                    print(f"disagreement in dimension {dim}: m = {m!r}, "
                          f"A = {a!r}, {vol!r}")
        print(f"{name}: {cases} route (b) cases, {disagreements} disagreements")
        if cases < least:
            print(f"{name}: fewer than {least} cases")
        failed = failed or cases < least or disagreements > 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
