"""Reference assemblies the solver tests check the stencil against."""

from mvcurl import solver


def direct_columns(residual_map, elements, nvars, extra=()):
    """Columns as assembled with the map run on every element, then on each
    extra residual, all cleared by one common denominator."""
    outputs = [solver._residual_terms(residual_map(e)) for e in elements]
    return solver._cleared(
        outputs + [solver._residual_terms(v) for v in extra], nvars)
