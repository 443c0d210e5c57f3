"""Reference constructions the tests check the solver and the curl against."""

from mvcurl import solver
from mvcurl.exterior import Multivector, exterior_derivative, flat, sharp
from mvcurl.ring import Polynomial, RationalFunc


def composed_curl(volume, a):
    """The curl as sharp . d . flat, zero on scalars: lower the index
    against the volume, apply d, raise the index back."""
    if a.grade == 0:
        return Multivector.zero(a.chart, 0)
    return sharp(volume, exterior_derivative(flat(volume, a)))


def component_residuals(m, pi):
    """sum_j d(m pi^ij)/dx_j for each i, written out blade by blade from the
    bivector pi: the component equations for the unit volume."""
    n = pi.chart.dim
    residuals = [RationalFunc.zero(n) for _ in range(n)]
    for mask, coeff in pi.terms.items():
        # the component pi^ij, i < j, sits on the blade e_i ^ e_j
        i = (mask & -mask).bit_length() - 1
        j = mask.bit_length() - 1
        scaled = m * coeff
        residuals[i] = residuals[i] + scaled.diff(j)
        residuals[j] = residuals[j] - scaled.diff(i)
    return residuals


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
