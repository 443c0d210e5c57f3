"""Exact linear algebra over the rationals for ansatz-space searches.

Kernels of the multiplier, Casimir, and cohomology equations are linear in
the unknown coefficients, so each problem reduces to an exact nullspace or
an exact affine solve.  Residual outputs of the probed map are expanded over
a (blade, monomial) row basis after clearing all denominators with one
common denominator for the whole system; a per-column denominator would
rescale columns and corrupt the recovered solution functions.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Callable, Dict, List, Sequence, Tuple

from mvcurl.curl import curl, schouten
from mvcurl.exterior import Chart, Multivector, VolumeForm, _BladeSum
from mvcurl.ring import Polynomial, RationalFunc, grlex_key, poly_lcm

# Largest ansatz a solver accepts, in basis elements.  Assembly runs an
# operator on every element and elimination is up to cubic in the count: on a
# 2-core x86 host, so(3) casimir at degree 20 (1,771 elements) took 2.3 s and
# at degree 30 (5,456) 22 s.
MAX_ANSATZ_SIZE = 2000


class SearchSpace:
    """Ordered finite basis of functions or multivectors on a chart.

    Solvers expand a linear map over ``basis`` and turn kernel vectors back
    into members with ``combine``.
    """

    __slots__ = ("chart", "basis")

    def __init__(self, chart: Chart, basis: Sequence):
        self.chart = chart
        self.basis = list(basis)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def combine(self, coeffs: Sequence[Fraction]):
        """Linear combination of basis elements with exact coefficients."""
        if len(coeffs) != len(self.basis):
            raise ValueError("coefficient count does not match basis")
        total = self.basis[0].scale(0)  # a zero of the basis kind and grade
        for c, b in zip(coeffs, self.basis):
            if c:
                total = total + b.scale(c)
        return total


class AnsatzSpace(SearchSpace):
    """Finite-dimensional search space of candidate functions.

    The basis is either all monomials of total degree <= max_degree, or those
    monomials over a fixed polynomial denominator; ordering is ascending
    graded lexicographic so results are reproducible.
    """

    __slots__ = ()

    def __init__(self, chart: Chart, max_degree: int,
                 denominator: Polynomial | None = None):
        exponents = monomial_exponents(chart.dim, max_degree)
        if denominator is not None and denominator.is_zero():
            raise ZeroDivisionError("ansatz denominator must be non-zero")
        den_rf = None
        if denominator is not None:
            den_rf = RationalFunc(Polynomial.constant(chart.dim, 1), denominator)
        basis = []
        for exps in exponents:
            mono = RationalFunc(Polynomial.monomial(chart.dim, exps))
            basis.append(mono if den_rf is None else mono * den_rf)
        super().__init__(chart, basis)


def monomial_exponents(nvars: int, max_degree: int,
                       blades: int = 1) -> List[Tuple[int, ...]]:
    """Exponent tuples of total degree <= max_degree, ascending graded lex.

    Every ansatz is built from these, one copy per blade, so this is where
    its size, C(nvars + max_degree, nvars) * blades, is checked against
    MAX_ANSATZ_SIZE before anything is enumerated.
    """
    if max_degree < 0:
        raise ValueError("degree bound must be non-negative")
    size = comb(nvars + max_degree, nvars) * blades
    if size > MAX_ANSATZ_SIZE:
        raise ValueError(f"ansatz too large: {size} basis elements, more than "
                         f"{MAX_ANSATZ_SIZE}")

    def compositions(total: int, slots: int):
        if slots == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, slots - 1):
                yield (first,) + rest

    out: List[Tuple[int, ...]] = []
    for total in range(max_degree + 1):
        out.extend(sorted(compositions(total, nvars), key=grlex_key))
    return out


class ExactMatrix:
    """Matrix of exact rationals, stored as dense rows in ``data`` and
    eliminated as sparse rows.  ``labels`` names the rows of a matrix
    assembled by ``from_columns``, in row order, and is None otherwise."""

    __slots__ = ("rows", "cols", "data", "labels")

    def __init__(self, rows: int, cols: int,
                 data: List[List[Fraction]] | None = None):
        if data is None:
            data = [[Fraction(0)] * cols for _ in range(rows)]
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("inconsistent matrix shape")
        self.rows = rows
        self.cols = cols
        self.data = data
        self.labels: List[object] | None = None

    @classmethod
    def from_columns(cls, columns: List[Dict[object, Fraction]]) -> "ExactMatrix":
        """Assemble from sparse columns keyed by arbitrary row labels."""
        labels = sorted({k for col in columns for k in col}, key=repr)
        index = {k: i for i, k in enumerate(labels)}
        out = cls(len(labels), len(columns))
        out.labels = labels
        for j, col in enumerate(columns):
            for k, v in col.items():
                out.data[index[k]][j] = v
        return out

    def multiply_vector(self, v: Sequence[Fraction]) -> List[Fraction]:
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        return [sum((r[j] * v[j] for j in range(self.cols)), Fraction(0))
                for r in self.data]

    def _rref(self) -> Tuple[List[Dict[int, Fraction]], List[int]]:
        """Reduced row echelon form: the non-zero rows as ``{column: value}``
        dicts of their non-zeros, in pivot order, and the pivot columns.

        Sparse Gauss-Jordan in the style of sympy's ``sdm_irref``: each row
        is reduced by the pivot rows found so far, takes its smallest column
        as a new pivot, is normalised, and clears that column from the
        earlier pivot rows.  The RREF is unique, so the order rows are taken
        in does not change the result.
        """
        pivot_rows: Dict[int, Dict[int, Fraction]] = {}
        for dense in self.data:
            row = {j: v for j, v in enumerate(dense) if v}
            for p in [j for j in row if j in pivot_rows]:
                _subtract_multiple(row, row[p], pivot_rows[p])
            if not row:
                continue
            col = min(row)
            inv = 1 / row[col]
            row = {j: v * inv for j, v in row.items()}
            for other in pivot_rows.values():
                if col in other:
                    _subtract_multiple(other, other[col], row)
            pivot_rows[col] = row
        pivots = sorted(pivot_rows)
        return [pivot_rows[c] for c in pivots], pivots

    def rank(self) -> int:
        return len(self._rref()[1])

    def nullspace(self) -> List[List[Fraction]]:
        """Exact basis of the right kernel, one vector per free column."""
        reduced, pivots = self._rref()
        basis = {j: [Fraction(0)] * self.cols
                 for j in sorted(set(range(self.cols)) - set(pivots))}
        for free, v in basis.items():
            v[free] = Fraction(1)
        for row, c in zip(reduced, pivots):
            for free, x in row.items():
                if free != c:
                    basis[free][c] = -x
        return list(basis.values())

    def solve(self, b: Sequence[Fraction]) -> List[Fraction] | None:
        """One exact solution of M x = b, or None when inconsistent."""
        if len(b) != self.rows:
            raise ValueError("right-hand side length does not match rows")
        aug = ExactMatrix(self.rows, self.cols + 1,
                          [row[:] + [Fraction(bi)] for row, bi in zip(self.data, b)])
        reduced, pivots = aug._rref()
        if self.cols in pivots:
            return None
        x = [Fraction(0)] * self.cols
        for row, c in zip(reduced, pivots):
            x[c] = row.get(self.cols, Fraction(0))
        return x


def _subtract_multiple(target: Dict[int, Fraction], factor: Fraction,
                       row: Dict[int, Fraction]) -> None:
    """target -= factor * row on sparse rows, dropping the zeros it makes."""
    for j, v in row.items():
        x = target.get(j, 0) - factor * v
        if x:
            target[j] = x
        else:
            del target[j]


# -- residual expansion -----------------------------------------------------


def _residual_terms(value) -> Dict[object, RationalFunc]:
    """View a residual as sparse (slot -> coefficient) for row expansion.

    A list or tuple of residuals stacks them: part i's slot s becomes
    (i, s), so each part keeps its own rows."""
    if isinstance(value, _BladeSum):
        return dict(value.terms)
    if isinstance(value, RationalFunc):
        return {} if value.is_zero() else {0: value}
    if isinstance(value, (list, tuple)):
        return {(i, slot): c for i, part in enumerate(value)
                for slot, c in _residual_terms(part).items()}
    raise TypeError(f"unsupported residual type: {type(value).__name__}")


def _expand_with_common_denominator(outputs: List[Dict[object, RationalFunc]],
                                    nvars: int) -> List[Dict[object, Fraction]]:
    """Clear all denominators with one shared multiplier; a per-output
    multiplier would rescale columns and corrupt recovered solutions."""
    common = Polynomial.constant(nvars, 1)
    for out in outputs:
        for coeff in out.values():
            if not coeff.den.is_one():
                common = poly_lcm(common, coeff.den)
    common_rf = RationalFunc(common)
    expanded: List[Dict[object, Fraction]] = []
    for out in outputs:
        col: Dict[object, Fraction] = {}
        for slot, coeff in out.items():
            cleared = coeff * common_rf
            if not cleared.den.is_one():
                raise RuntimeError("common denominator failed to clear residual")
            for exps, value in cleared.num.terms.items():
                col[(slot, exps)] = value
        expanded.append(col)
    return expanded


def _system_columns(residual_map: Callable, space: SearchSpace,
                    extra: Sequence) -> List[Dict[object, Fraction]]:
    """Exact columns of the map on each basis element, then of each extra
    residual, all cleared by one common denominator."""
    outputs = [_residual_terms(residual_map(b)) for b in space.basis]
    _linearity_spot_check(residual_map, space, outputs)
    return _expand_with_common_denominator(
        outputs + [_residual_terms(v) for v in extra], space.chart.dim)


def collect_linear_system(residual_map: Callable, space: SearchSpace) -> ExactMatrix:
    """Expand the residual of each basis element into an exact column.

    ``space`` needs ordered ``basis`` elements supporting + and scale.  The
    map must be linear in the ansatz coefficients; this is spot-checked on
    the first basis pair before trusting it.
    """
    return ExactMatrix.from_columns(_system_columns(residual_map, space, ()))


def collect_affine_system(residual_map: Callable, space: SearchSpace,
                          target) -> Tuple[ExactMatrix, List[Fraction]]:
    """Matrix of the map plus the target expanded over the same rows,
    for solving residual_map(x) = target inside the ansatz."""
    augmented = ExactMatrix.from_columns(
        _system_columns(residual_map, space, (target,)))
    rows = augmented.data
    return (ExactMatrix(augmented.rows, augmented.cols - 1, [r[:-1] for r in rows]),
            [r[-1] for r in rows])


def _linearity_spot_check(residual_map, space: SearchSpace,
                          outputs: List[Dict[object, RationalFunc]]) -> None:
    if not space.basis:
        return
    b0 = space.basis[0]
    doubled = _residual_terms(residual_map(b0.scale(2)))
    expect = {k: v.scale(2) for k, v in outputs[0].items()}
    if doubled != expect:
        raise ValueError("residual map is not linear (scaling check failed)")
    if len(space.basis) > 1:
        # residual(b0 + b1) - residual(b0) - residual(b1) must vanish
        gap = _residual_terms(residual_map(b0 + space.basis[1]))
        for out in outputs[:2]:
            for k, v in out.items():
                prev = gap.get(k)
                gap[k] = -v if prev is None else prev - v
        if not all(v.is_zero() for v in gap.values()):
            raise ValueError("residual map is not linear (additivity check failed)")


def kernel_basis(residual_map: Callable, space: SearchSpace) -> list:
    """Members of ``space`` spanning the kernel of a linear residual map:
    one per free column of the exact system, built with ``combine``."""
    matrix = collect_linear_system(residual_map, space)
    return [space.combine(v) for v in matrix.nullspace()]


# -- exact span membership --------------------------------------------------


def _span_contains(columns: List[Dict[object, Fraction]],
                   candidate: Dict[object, Fraction]) -> bool:
    """Whether adding the candidate column leaves the rank unchanged."""
    return (ExactMatrix.from_columns(columns).rank()
            == ExactMatrix.from_columns(columns + [candidate]).rank())


def vector_span_contains(vectors: Sequence[Sequence[Fraction]],
                         candidate: Sequence[Fraction]) -> bool:
    """Whether candidate lies in the rational span of the given vectors."""
    return _span_contains([dict(enumerate(v)) for v in vectors],
                          dict(enumerate(candidate)))


def function_span_contains(functions: Sequence[RationalFunc],
                           candidate: RationalFunc) -> bool:
    """Exact membership of a rational function in a finite rational span."""
    *columns, extra = _expand_with_common_denominator(
        [_residual_terms(f) for f in (*functions, candidate)], candidate.nvars)
    return _span_contains(columns, extra)


def function_spans_equal(a: Sequence[RationalFunc],
                         b: Sequence[RationalFunc]) -> bool:
    return (all(function_span_contains(b, f) for f in a)
            and all(function_span_contains(a, g) for g in b))


# -- named solvers ----------------------------------------------------------


def lm_solve(volume: VolumeForm, a: Multivector,
             space: AnsatzSpace) -> List[RationalFunc]:
    """Basis of the last multipliers of ``a`` inside the ansatz space.

    Empty output means none in the ansatz, not that none exists.
    """
    return kernel_basis(lambda m: curl(volume, a.scale(m)), space)


def casimir_solve(pi: Multivector, space: AnsatzSpace) -> List[RationalFunc]:
    """Basis of the functions bracket-commuting with ``pi`` in the ansatz."""
    return kernel_basis(
        lambda f: schouten(pi, Multivector.scalar(pi.chart, f)), space)
