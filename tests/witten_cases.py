"""Seeded cases for route (b) of ``is_last_multiplier``, and a check of
``_in_witten_kernel`` against the Witten form summed as the paper writes it.

Stdlib-only, so it also runs where pytest is not installed:

    PYTHONPATH=src python tests/witten_cases.py

runs every seeded case through both and exits 1 on any disagreement.
"""

import random
import sys

from mvcurl.curl import _in_witten_kernel
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
    density_pool,
    random_form,
    random_multiplier,
    random_multivector,
    random_polynomial,
)
from mvcurl.ring import RationalFunc

CASES_PER_DIMENSION = 260


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


def main() -> int:
    cases = disagreements = 0
    for dim in range(1, 5):
        for vol, m, a in route_b_cases(dim):
            omega = flat(vol, a)
            cases += 1
            if _in_witten_kernel(m, omega) != witten_sum_vanishes(m, omega):
                disagreements += 1
                print(f"disagreement in dimension {dim}: m = {m!r}, "
                      f"A = {a!r}, {vol!r}")
    print(f"{cases} route (b) cases, {disagreements} disagreements")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
