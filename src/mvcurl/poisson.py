"""Poisson layer: Jacobi checks, Hamiltonian and modular fields, linear
(Lie-type) structures from structure constants, and last-multiplier systems.

A bivector is Poisson when it self-commutes under the Schouten bracket; the
modular vector field is its curl against a chosen volume and measures the
failure of Hamiltonian flows to preserve that volume.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from mvcurl.curl import curl, schouten
from mvcurl.exterior import (
    Chart,
    DifferentialForm,
    Multivector,
    VolumeForm,
    blade_indices,
    exterior_derivative,
    flat,
    interior_product_vector,
    sharp,
)
from mvcurl.ring import Polynomial, RationalFunc, _exact

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "NonPoissonError",
    "NonExactError",
    "StructureConstants",
    "jacobi_residual",
    "require_poisson",
    "clear_poisson_memo",
    "hamiltonian_field",
    "modular_field",
    "lm_system_residuals",
    "lie_poisson",
    "unimodularity_check",
]


class NonPoissonError(ValueError):
    """Raised when an operation requires a bivector with zero Jacobi residual."""


class NonExactError(ValueError):
    """Raised when the bivector fails to be curl-free for the chosen volume."""


def jacobi_residual(pi: Multivector) -> Multivector:
    """Schouten self-bracket [pi, pi]; zero exactly for Poisson bivectors."""
    if pi.grade != 2 and not pi.is_zero():
        raise ValueError(f"expected a bivector, got grade {pi.grade}")
    return schouten(pi, pi)


# bivectors proved Poisson, by value: equality is structural on canonical
# coefficients, so an equal bivector is proved too; least recently used out
# first, and emptied by ``clear_poisson_memo`` (the CLI does so per command)
POISSON_MEMO_SIZE = 256


@functools.lru_cache(maxsize=POISSON_MEMO_SIZE)
def _prove(pi: Multivector) -> None:
    """Prove [pi, pi] = 0; a failure raises, so only proofs are memoised."""
    residual = jacobi_residual(pi)
    if not residual.is_zero():
        triple = min(blade_indices(mask) for mask in residual.terms)
        raise NonPoissonError(f"Jacobi identity fails on triple {triple}")


clear_poisson_memo = _prove.cache_clear


def require_poisson(pi: Multivector) -> Multivector:
    """Prove the Jacobi identity [pi, pi] = 0 and return pi, or name the
    first index triple (i, j, k), 0-based and in lexicographic order, on
    which it fails.  A bivector equal to one already proved is not proved
    again."""
    _prove(pi)
    return pi


def hamiltonian_field(pi: Multivector, f: RationalFunc) -> Multivector:
    """Contraction of df into pi; convention fixed so that on the plane with
    pi = e1^e2 the Hamiltonian x gives the field e2."""
    require_poisson(pi)
    df = DifferentialForm.differential(pi.chart, f)
    return interior_product_vector(df, pi)


def modular_field(volume: VolumeForm, pi: Multivector) -> Multivector:
    """The curl of pi, checked against sharp . d . flat for every density."""
    if pi.grade != 2 and not pi.is_zero():
        raise ValueError(f"expected a bivector, got grade {pi.grade}")
    field = curl(volume, pi)
    if field != sharp(volume, exterior_derivative(flat(volume, pi))):
        raise RuntimeError("modular field routes disagree")
    return field


def lm_system_residuals(volume: VolumeForm, m: RationalFunc,
                        pi: Multivector) -> List[RationalFunc]:
    """The components sum_j d(m pi^ij)/dx_j of curl(m pi) against the unit
    volume, on e_1, ..., e_n; all vanish exactly when m is a last multiplier
    of pi.  For other densities use the curl residual instead."""
    if not volume.density.is_one():
        raise ValueError("component residuals require the unit-density volume")
    if pi.grade != 2 and not pi.is_zero():
        raise ValueError(f"expected a bivector, got grade {pi.grade}")
    residual = curl(volume, pi.scale(m))
    return [residual.coefficient(1 << i) for i in range(volume.chart.dim)]


class StructureConstants:
    """Antisymmetric structure constants of a Lie algebra.

    Stored on i < j index pairs (0-based), as exact rationals: floats are
    refused like polynomial coefficients.  The Jacobi identity is proved
    once at construction, by ``require_poisson`` on the linear bivector
    pi = ``lie_poisson(self)``: for a linear pi, the e_i^e_j^e_k component
    of [pi, pi] is, up to a factor 2, the Jacobi sum of the triple
    (i, j, k) contracted with the coordinates.  So any instance defines an
    actual Lie algebra; a failure raises NonPoissonError, a ValueError.
    """

    __slots__ = ("dim", "c")

    def __init__(self, dim: int, entries: Dict[Tuple[int, int, int], object]):
        if dim < 1:
            raise ValueError("dimension must be positive")
        from fractions import Fraction
        store: Dict[Tuple[int, int, int], Fraction] = {}
        for (i, j, k), value in entries.items():
            v = Fraction(*_exact(value))
            for idx in (i, j, k):
                if not 0 <= idx < dim:
                    raise ValueError(f"index {idx} out of range for dimension {dim}")
            if i == j:
                if v != 0:
                    raise ValueError("diagonal structure constant must vanish")
                continue
            key, signed = ((i, j, k), v) if i < j else ((j, i, k), -v)
            if key in store and store[key] != signed:
                raise ValueError(f"conflicting values for constant {key}")
            store[key] = signed
        self.dim = dim
        self.c = {k: v for k, v in store.items() if v != 0}
        require_poisson(lie_poisson(self))

    def get(self, i: int, j: int, k: int) -> Fraction:
        from fractions import Fraction
        if i == j:
            return Fraction(0)
        if i < j:
            return self.c.get((i, j, k), Fraction(0))
        return -self.c.get((j, i, k), Fraction(0))

    def __repr__(self) -> str:
        return f"StructureConstants(dim={self.dim}, nonzero={len(self.c)})"


def lie_poisson(constants: StructureConstants,
                chart: Optional[Chart] = None) -> Multivector:
    """Linear bivector with components pi^ij = sum_k c_ij^k x_k."""
    if chart is None:
        chart = Chart([f"x{i + 1}" for i in range(constants.dim)])
    if chart.dim != constants.dim:
        raise ValueError("chart dimension does not match structure constants")
    n = chart.dim
    terms: Dict[int, RationalFunc] = {}
    for i in range(n):
        for j in range(i + 1, n):
            poly_terms: Dict[Tuple[int, ...], Fraction] = {}
            for k in range(n):
                v = constants.get(i, j, k)
                if v:
                    e = [0] * n
                    e[k] = 1
                    poly_terms[tuple(e)] = v
            if poly_terms:
                terms[(1 << i) | (1 << j)] = RationalFunc(Polynomial(n, poly_terms))
    return Multivector(chart, 2, terms)


def unimodularity_check(volume: VolumeForm, pi: Multivector,
                        max_degree: int) -> Optional[RationalFunc]:
    """Search the polynomial ansatz for a Hamiltonian potential of the
    modular field.  Returns a witness or None; None only means no witness
    in the ansatz, never a proof of non-unimodularity."""
    from mvcurl.solver import AnsatzSpace, collect_affine_system
    require_poisson(pi)
    target = curl(volume, pi)
    space = AnsatzSpace(volume.chart, max_degree)
    df_contract = lambda f: interior_product_vector(
        DifferentialForm.differential(pi.chart, f), pi)
    matrix, rhs = collect_affine_system(df_contract, space, target)
    solution = matrix.solve(rhs)
    if solution is None:
        return None
    rho = space.combine(solution)
    if df_contract(rho) != target:
        raise RuntimeError("affine solve produced an invalid witness")
    return rho

