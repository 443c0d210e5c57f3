"""Reference constructions the solver tests check the solver against."""

from mvcurl import solver
from mvcurl.exterior import Multivector
from mvcurl.ring import Polynomial, RationalFunc


def direct_columns(residual_map, elements, nvars, extra=()):
    """Columns as assembled with the map run on every element, then on each
    extra residual, all cleared by one common denominator."""
    outputs = [solver._residual_terms(residual_map(e)) for e in elements]
    return solver._cleared(
        outputs + [solver._residual_terms(v) for v in extra], nvars)


def monomial_element(space, j, denominator=None):
    """Element j of a space built by hand: the monomial of exponent
    position j % size over the denominator, times blade j // size."""
    blade, i = divmod(j, len(space.exponents))
    n = space.chart.dim
    c = RationalFunc(Polynomial.monomial(n, space.exponents[i]), denominator)
    if space.grade is None:
        return c
    return Multivector(space.chart, space.grade, {space.blades[blade]: c})


def combined_by_elements(space, coeffs):
    """The linear combination as a sum of each element scaled by its
    coefficient, one ``+`` per non-zero coefficient."""
    total = space.element(0).scale(0)  # a zero of the space's kind and grade
    for j, c in enumerate(coeffs):
        if c:
            total = total + space.element(j).scale(c)
    return total
