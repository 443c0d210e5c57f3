"""Seeded cases for ``curl.curl``, the coordinate formula, against the curl
composed as sharp . d . flat (``oracles.composed_curl``).

Stdlib-only, so it also runs where pytest is not installed:

    PYTHONPATH=src python tests/curl_cases.py

runs every seeded case through both and exits 1 on any disagreement.
"""

import random
import sys

from mvcurl.curl import curl
from mvcurl.exterior import Chart, VolumeForm
from mvcurl.identities import density_pool, random_multiplier, random_multivector
from oracles import composed_curl

NAMES = ("x", "y", "z", "w", "u", "v")


def curl_densities(chart):
    """The identity suite's densities, a negative constant and 1/(x^2 + 1),
    a density with a denominator."""
    x = chart.coordinate(0)
    return (*density_pool(chart), chart.constant(-3),
            (x * x + chart.one_rf()).inverse())


def curl_cases(dim, per_grade):
    """``per_grade`` seeded (volume, multivector) cases in one dimension for
    each density of ``curl_densities`` and each grade 0..dim; half the
    multivectors are scaled by a random multiplier, so that their
    coefficients carry denominators too."""
    chart = Chart(NAMES[:dim])
    rng = random.Random(f"curl:{dim}")
    for density in curl_densities(chart):
        vol = VolumeForm(chart, density)
        for grade in range(dim + 1):
            for _ in range(per_grade):
                a = random_multivector(rng, chart, grade, max_degree=2)
                if rng.random() < 0.5:
                    a = a.scale(random_multiplier(rng, dim))
                yield vol, a


def main(per_grade: int = 24) -> int:
    cases = disagreements = 0
    for dim in range(1, len(NAMES) + 1):
        for vol, a in curl_cases(dim, per_grade):
            cases += 1
            if curl(vol, a) != composed_curl(vol, a):
                disagreements += 1
                print(f"disagreement in dimension {dim}: A = {a!r}, {vol!r}")
    print(f"{cases} curl cases, {disagreements} disagreements")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
