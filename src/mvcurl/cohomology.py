"""Degree-truncated cohomology of the divergence-free multivector complex.

For a volume-preserving Poisson bivector, bracketing with the bivector maps
curl-free multivectors to curl-free multivectors and squares to zero.  All
computations here happen inside finite polynomial-degree truncations, so
kernel and image dimensions are exact for the truncation but only bound the
untruncated cohomology.

Dimensions come from ranks, never from an explicit curl-free basis.  With C
the curl and D the bracket [pi, .] on the n monomial multivectors of one
grade and degree bound: dim exact = n - rank C, dim kernel = n - rank [C; D]
(the rows stacked), and dim image = rank [C'; D'] - rank C' = dim exact' -
dim kernel', the rank of D' on the kernel of C', one grade lower at the lower
degree bound.  Stacking never lowers a rank, so dim kernel <= dim exact holds
by construction; dim image <= dim kernel needs [pi, .] to square to zero, to
keep curls at zero and to stay inside the degree bound, so it remains a real
check.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

from mvcurl.curl import curl, schouten
from mvcurl.exterior import Chart, Multivector, VolumeForm
from mvcurl.poisson import NonExactError, require_poisson
from mvcurl.solver import (ExactMatrix, MonomialSpace, collect_linear_system,
                           kernel_basis)

__all__ = [
    "NonExactError",
    "MultivectorBasis",
    "lichnerowicz_delta",
    "exact_basis",
    "truncated_exact_cohomology",
    "TruncatedComplexReport",
]


def MultivectorBasis(chart: Chart, grade: int,
                     max_degree: int) -> MonomialSpace:
    """Grade-k multivectors x^beta e_I with total degree <= max_degree."""
    return MonomialSpace(chart, grade, max_degree)


def lichnerowicz_delta(pi: Multivector, a: Multivector) -> Multivector:
    """Coboundary [pi, a]; squares to zero whenever pi is Poisson."""
    require_poisson(pi)
    return schouten(pi, a)


def exact_basis(volume: VolumeForm, grade: int,
                max_degree: int) -> List[Multivector]:
    """Spanning set of the curl-free grade-k multivectors with polynomial
    coefficients of total degree <= max_degree."""
    return kernel_basis(lambda a: curl(volume, a),
                        MultivectorBasis(volume.chart, grade, max_degree))


def _exact_and_kernel_dims(volume: VolumeForm, pi: Multivector, grade: int,
                           max_degree: int) -> Tuple[int, int]:
    """n - rank C and n - rank [C; D] on the monomial grade-k multivectors,
    from one stacked assembly: curl and [pi, .] run on each blade, on each
    blade times each coordinate and, from degree 2, on one check element
    per blade, not on every basis element."""
    ambient = MultivectorBasis(volume.chart, grade, max_degree)
    stacked = collect_linear_system(
        lambda a: (curl(volume, a), schouten(pi, a)), ambient)
    # row labels are ((part, blade), monomial); part 0 is the curl
    curl_rows = [row for label, row in zip(stacked.labels, stacked.entries)
                 if label[0][0] == 0]
    rank_c = ExactMatrix.from_rows(stacked.cols, curl_rows).rank()
    return ambient.dimension - rank_c, ambient.dimension - stacked.rank()


class TruncatedComplexReport(NamedTuple):
    """Exact dimensions for one truncated slot of the curl-free complex.

    truncated_h_dim is kernel minus image within the truncation; the caveat
    flag records that this only estimates the untruncated cohomology.
    """

    k: int
    domain_degree_bound: int
    dim_exact_k: int
    dim_kernel: int
    dim_image_from_km1: int
    truncated_h_dim: int
    caveat: bool = True


def truncated_exact_cohomology(volume: VolumeForm, pi: Multivector, k: int,
                               max_degree: int) -> TruncatedComplexReport:
    """Kernel and image dimensions of [pi, .] on curl-free multivectors.

    Requires a Poisson bivector with polynomial coefficients whose curl
    vanishes for the chosen volume, so that the differential preserves the
    curl-free subspace.  Sources for the image are truncated one derivative
    lower so their brackets stay inside the degree bound.
    """
    if pi.grade != 2 and not pi.is_zero():
        raise ValueError(f"expected a bivector, got grade {pi.grade}")
    for coeff in pi.terms.values():
        if not coeff.den.is_one():
            raise ValueError("bivector coefficients must be polynomial")
    require_poisson(pi)
    if not curl(volume, pi).is_zero():
        raise NonExactError("bivector has non-zero curl for this volume")

    deg_pi = max((c.num.total_degree() for c in pi.terms.values()), default=0)

    dim_exact_k, dim_kernel = _exact_and_kernel_dims(volume, pi, k, max_degree)

    dim_image = 0
    lower_degree = max_degree - deg_pi + 1
    if k > 0 and lower_degree >= 0:
        exact_below, kernel_below = _exact_and_kernel_dims(
            volume, pi, k - 1, lower_degree)
        dim_image = exact_below - kernel_below

    if not dim_image <= dim_kernel <= dim_exact_k:
        raise RuntimeError("truncated complex dimensions are inconsistent")
    return TruncatedComplexReport(
        k=k,
        domain_degree_bound=max_degree,
        dim_exact_k=dim_exact_k,
        dim_kernel=dim_kernel,
        dim_image_from_km1=dim_image,
        truncated_h_dim=dim_kernel - dim_image,
    )
