"""Exact linear algebra over the rationals for ansatz-space searches.

Kernels of the multiplier, Casimir, and cohomology equations are linear in
the unknown coefficients, so each problem reduces to an exact nullspace or
an exact affine solve.  Residual outputs of the probed map are expanded over
a (blade, monomial) row basis after clearing all denominators with one
common denominator for the whole system; a per-column denominator would
rescale columns and corrupt the recovered solution functions.

The values come straight from the ring's integer numerators, so a system
is stored as sparse rows of ``int`` (a ``Fraction`` only where a value is
not an integer) and eliminated fraction-free; no dense matrix is built on
any solver path, and ``ExactMatrix.data`` is a dense view made only when
something reads it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from typing import Callable, Dict, List, Sequence, Tuple

from mvcurl.curl import curl, schouten
from mvcurl.exterior import Chart, Multivector, VolumeForm, _BladeSum
from mvcurl.ring import Polynomial, RationalFunc, poly_lcm

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

    # each degree comes out in ascending lex order, which is grlex within it
    def compositions(total: int, slots: int):
        if slots == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, slots - 1):
                yield (first,) + rest

    out: List[Tuple[int, ...]] = []
    for total in range(max_degree + 1):
        out.extend(compositions(total, nvars))
    return out


class ExactMatrix:
    """Matrix of exact rationals stored as sparse rows.

    ``entries`` holds one ``{column: value}`` dict per row with only the
    non-zero values; assembly from the ring gives ``int`` wherever a value
    is an integer and ``Fraction`` only where it is not.  ``data`` is a
    dense ``Fraction`` view built on demand.  ``labels`` names the rows of a
    matrix assembled by ``from_columns``, in row order, and is None
    otherwise.
    """

    __slots__ = ("rows", "cols", "entries", "labels")

    def __init__(self, rows: int, cols: int,
                 data: List[List[Fraction]] | None = None):
        if data is None:
            data = [[0] * cols for _ in range(rows)]
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("inconsistent matrix shape")
        self.rows = rows
        self.cols = cols
        self.entries = [{j: v for j, v in enumerate(r) if v} for r in data]
        self.labels: List[object] | None = None

    @classmethod
    def from_rows(cls, cols: int, entries: List[Dict[int, Fraction]],
                  labels: List[object] | None = None) -> "ExactMatrix":
        """Wrap sparse rows as they are: non-zero values only, every column
        below ``cols``.  The rows are shared, never copied or changed."""
        out = object.__new__(cls)
        out.rows = len(entries)
        out.cols = cols
        out.entries = entries
        out.labels = labels
        return out

    @classmethod
    def from_columns(cls, columns: List[Dict[object, Fraction]]) -> "ExactMatrix":
        """Assemble from sparse columns keyed by arbitrary row labels; a
        label seen only with zero values still gets its (empty) row."""
        labels = sorted({k for col in columns for k in col}, key=repr)
        index = {k: i for i, k in enumerate(labels)}
        entries: List[Dict[int, Fraction]] = [{} for _ in labels]
        for j, col in enumerate(columns):
            for k, v in col.items():
                if v:
                    entries[index[k]][j] = v
        return cls.from_rows(len(columns), entries, labels)

    @property
    def data(self) -> List[List[Fraction]]:
        """Dense ``Fraction`` rows, built afresh on every read."""
        dense = [[Fraction(0)] * self.cols for _ in self.entries]
        for out, row in zip(dense, self.entries):
            for j, v in row.items():
                out[j] = Fraction(v)
        return dense

    def multiply_vector(self, v: Sequence[Fraction]) -> List[Fraction]:
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        return [sum((x * v[j] for j, x in row.items()), Fraction(0))
                for row in self.entries]

    def _rref(self) -> Tuple[List[Dict[int, Fraction]], List[int]]:
        """Reduced row echelon form: the non-zero rows as ``{column: value}``
        dicts of their non-zeros, in pivot order, and the pivot columns.

        Fraction-free sparse Gauss-Jordan in the style of sympy's
        ``sdm_irref``: each row is taken as an integer multiple, is reduced
        by the pivot rows found so far with integer row operations,
        takes its smallest column as a new pivot with a positive value, and
        clears that column from the earlier pivot rows.  Only the returned
        rows are divided by their pivots, so a ``Fraction`` appears only
        where an entry of the RREF is not an integer.  The RREF is unique, so
        neither the order rows are taken in nor their scaling changes the
        result; the stored rows are never changed or shared.
        """
        pivot_rows: Dict[int, Dict[int, int]] = {}
        for stored in self.entries:
            if not stored:
                continue
            # a new dict: the row times the lcm of its denominators
            den = lcm(*[v.denominator for v in stored.values()])
            row = {j: v.numerator * (den // v.denominator)
                   for j, v in stored.items()}
            for p in [j for j in row if j in pivot_rows]:
                _clear_column(row, p, pivot_rows[p])
            if not row:
                continue
            col = min(row)
            g = gcd(*row.values())
            if row[col] < 0:
                g = -g
            if g != 1:
                row = {j: v // g for j, v in row.items()}
            for other in pivot_rows.values():
                if col in other:
                    _clear_column(other, col, row)
            pivot_rows[col] = row
        pivots = sorted(pivot_rows)
        reduced = []
        for c in pivots:
            row = pivot_rows[c]
            a = row[c]
            if a != 1:
                row = {j: v // a if not v % a else Fraction(v, a)
                       for j, v in row.items()}
            reduced.append(row)
        return reduced, pivots

    def rank(self) -> int:
        return len(self._rref()[1])

    def nullspace(self) -> List[List[Fraction]]:
        """Exact basis of the right kernel, one vector per free column."""
        reduced, pivots = self._rref()
        basis = {j: [0] * self.cols
                 for j in sorted(set(range(self.cols)) - set(pivots))}
        for free, v in basis.items():
            v[free] = 1
        for row, c in zip(reduced, pivots):
            for free, x in row.items():
                if free != c:
                    basis[free][c] = -x
        return list(basis.values())

    def solve(self, b: Sequence[Fraction]) -> List[Fraction] | None:
        """One exact solution of M x = b, or None when inconsistent."""
        if len(b) != self.rows:
            raise ValueError("right-hand side length does not match rows")
        last = self.cols
        aug = []
        for row, bi in zip(self.entries, b):
            if bi:
                row = dict(row)
                row[last] = bi
            aug.append(row)
        reduced, pivots = ExactMatrix.from_rows(last + 1, aug)._rref()
        if last in pivots:
            return None
        x = [0] * last
        for row, c in zip(reduced, pivots):
            x[c] = row.get(last, 0)
        return x


def _clear_column(target: Dict[int, int], col: int,
                  row: Dict[int, int]) -> None:
    """Make ``target[col]`` zero in place by target := a*target - b*row, with
    a > 0 and b the smallest such multipliers (``row[col]`` is positive), then
    divide out the content that scaling by a brought in; drops zeros."""
    a, b = row[col], target[col]
    g = gcd(a, b)
    if g != 1:
        a //= g
        b //= g
    if a != 1:
        for j, v in target.items():
            target[j] = v * a
    for j, v in row.items():
        x = target.get(j, 0) - b * v
        if x:
            target[j] = x
        else:
            del target[j]
    if a != 1 and target:
        g = gcd(*target.values())
        if g != 1:
            for j, v in target.items():
                target[j] = v // g


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
    multiplier would rescale columns and corrupt recovered solutions.
    Values are the numerators' ints, or ``Fraction`` over a numerator's
    common denominator when that is not 1."""
    common = Polynomial.constant(nvars, 1)
    for out in outputs:
        for coeff in out.values():
            if not coeff.den.is_one():
                common = poly_lcm(common, coeff.den)
    common_rf = None if common.is_one() else RationalFunc(common)
    expanded: List[Dict[object, Fraction]] = []
    for out in outputs:
        col: Dict[object, Fraction] = {}
        for slot, coeff in out.items():
            if common_rf is not None:
                coeff = coeff * common_rf
                if not coeff.den.is_one():
                    raise RuntimeError("common denominator failed to clear residual")
            nums, den = coeff.num.nums, coeff.num.den
            if den == 1:
                for exps, c in nums.items():
                    col[(slot, exps)] = c
            else:
                for exps, c in nums.items():
                    col[(slot, exps)] = Fraction(c, den)
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
    last = augmented.cols - 1
    entries, b = [], []
    for row in augmented.entries:
        row = dict(row)
        b.append(row.pop(last, 0))
        entries.append(row)
    return ExactMatrix.from_rows(last, entries), b


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
