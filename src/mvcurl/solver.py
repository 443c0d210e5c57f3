"""Exact linear algebra over the rationals for ansatz-space searches.

Kernels of the multiplier, Casimir, and cohomology equations are linear in
the unknown coefficients, so each problem reduces to an exact nullspace or
an exact affine solve.  Residual outputs of the probed map are expanded over
a (blade, monomial) row basis after clearing all denominators with one
common multiplier for the whole system; a per-column multiplier would
rescale columns and corrupt the recovered solution functions.  The common
multiplier is the lcm of the denominators with integer numerators, times
the least integer that leaves every cleared value integral, and a
coefficient n/d is cleared as n times the exact quotient of it by d.

Every solver searches one kind of space, a ``MonomialSpace``: monomials
x^beta up to a total degree times one seed per blade, 1/den for functions
and e_b/den for multivectors.  Every map a solver takes is also a
first-order differential operator in the coefficient: Liouville's transport
equation curl(m A) = m curl A +- i_{dm} A and the derivation [pi, .] are.
So the map runs only on the space's elements of degree <= 1, each seed and
the seed times each variable, and on one check element per blade; every
other column is assembled from those values by shifting monomial keys.

The values come straight from the ring's integer numerators, so a system
is stored as sparse rows of ``int`` and eliminated fraction-free; no dense
matrix is built on any solver path, and ``ExactMatrix.data`` is a dense view
made only when something reads it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from typing import Callable, Dict, List, Sequence, Tuple

from mvcurl.curl import curl, schouten
from mvcurl.exterior import Chart, Multivector, VolumeForm, _BladeSum
from mvcurl.ring import Polynomial, RationalFunc, _pack, poly_lcm

# Largest ansatz a solver accepts, in basis elements.  Assembly runs the
# operator a few times per seed, but elimination is up to cubic in the count:
# on a 2-core x86 host with Python 3.11, so(3) casimir at degree 20 (1,771
# elements) took 0.03 s to assemble and about 0.1 s to eliminate (0.24 s for
# the whole CLI process), and at degree 30 (5,456) about 0.1 s and 0.6-0.8 s.
# so(3) systems stay sparse; a denser system fills in as it is eliminated.
MAX_ANSATZ_SIZE = 2000


class MonomialSpace:
    """The ansatz of every solver: monomials times one seed per blade.

    Element (blade b, exponent beta) is x^beta times the seed of b, which is
    1/den for scalar functions (``grade`` None) and e_b/den for grade-k
    multivectors, den the fixed ``denominator`` or 1.  Exponents run over
    every total degree <= max_degree in ascending graded lexicographic
    order, blade-major by ascending index mask, so results are reproducible.
    Solvers expand a linear map over ``basis`` and turn kernel vectors back
    into members with ``combine``.
    """

    __slots__ = ("chart", "grade", "exponents", "blades", "basis", "_den",
                 "_index")

    def __init__(self, chart: Chart, grade: int | None, max_degree: int,
                 denominator: Polynomial | None = None):
        n = chart.dim
        if grade is not None and not 0 <= grade <= n:
            raise ValueError(f"grade {grade} out of range for dimension {n}")
        self.exponents = monomial_exponents(
            n, max_degree, 1 if grade is None else comb(n, grade))
        if denominator is not None and denominator.is_zero():
            raise ZeroDivisionError("ansatz denominator must be non-zero")
        self.chart, self.grade = chart, grade
        self.blades = [0] if grade is None else [
            mask for mask in range(1 << n) if mask.bit_count() == grade]
        self._den = None if denominator is None else RationalFunc(denominator)
        self.basis, self._index = [], {}
        for mask in self.blades:
            for exps in self.exponents:
                self._index[(mask, _pack(exps))] = len(self.basis)
                c = RationalFunc(Polynomial.monomial(n, exps), denominator)
                self.basis.append(c if grade is None
                                  else Multivector(chart, grade, {mask: c}))

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

    def coordinates(self, member) -> List[Fraction]:
        """Exact coefficient vector of a member; rejects anything outside."""
        if self.grade is None:
            terms = {} if member.is_zero() else {0: member}
        else:
            if member.chart != self.chart:
                raise ValueError("chart mismatch")
            if member.grade != self.grade and not member.is_zero():
                raise ValueError("grade does not match basis")
            terms = member.terms
        out = [Fraction(0)] * len(self.basis)
        for mask, coeff in terms.items():
            if self._den is not None:
                coeff = coeff * self._den
            if not coeff.den.is_one():
                raise ValueError("coefficients must be polynomial")
            num = coeff.num
            for key, c in num.nums.items():
                slot = self._index.get((mask, key))
                if slot is None:
                    raise ValueError("member exceeds the degree bound")
                out[slot] = Fraction(c, num.den)
        return out


def AnsatzSpace(chart: Chart, max_degree: int,
                denominator: Polynomial | None = None) -> MonomialSpace:
    """Candidate functions: monomials of total degree <= max_degree, over
    ``denominator`` when one is given."""
    return MonomialSpace(chart, None, max_degree, denominator)


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
    non-zero values; assembly from the ring gives ``int`` values.  ``data``
    is a dense ``Fraction`` view built on demand.  ``labels`` names the rows
    of a matrix assembled by ``from_columns``, in row order, and is None
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


def _common_multiplier(outputs: Sequence[Dict[object, RationalFunc]],
                       nvars: int) -> Polynomial | None:
    """The lcm C of every denominator in the outputs with integer numerators,
    that is the monic lcm times its integer denominator, then times the
    least integer L that makes every cleared value n * (C / d) integral; or
    None when L * C is 1.  Scaling a whole system by one constant changes no
    kernel or solution, and this scale leaves every value an int."""
    common = Polynomial.constant(nvars, 1)
    for out in outputs:
        for coeff in out.values():
            if not coeff.den.is_one():
                common = poly_lcm(common, coeff.den)
    common = Polynomial._make(nvars, common.nums)
    # with n = N/a and C/d = F/b, N and F over the integers, n * (C/d) has
    # the denominator ab / gcd(ab, content(N) content(F)) by Gauss's lemma
    scale = 1
    for out in outputs:
        for coeff in out.values():
            num, den = coeff.num, coeff.den
            cofactor = common if den.is_one() else common.exact_div(den)
            ab = num.den * cofactor.den
            if ab != 1:
                content = gcd(*num.nums.values()) * gcd(*cofactor.nums.values())
                scale = lcm(scale, ab // gcd(ab, content))
    common = common._times(scale, 1)
    return None if common.is_one() else common


def _expand(out: Dict[object, RationalFunc],
            common: Polynomial | None) -> Dict[object, int]:
    """One output times the common multiplier, as {(slot, packed key): int}.
    Each coefficient n/d is cleared as n * (common / d), one exact division
    and no gcd; a denominator that the multiplier does not divide, or a
    value that it leaves fractional, raises ``RuntimeError``."""
    col: Dict[object, int] = {}
    for slot, coeff in out.items():
        num = coeff.num
        if common is not None:
            cofactor = common
            if not coeff.den.is_one():
                try:
                    cofactor = common.exact_div(coeff.den)
                except ValueError:
                    cofactor = None
            num = None if cofactor is None else num * cofactor
        if num is None or num.den != 1:
            raise RuntimeError("common denominator failed to clear residual")
        for key, c in num.nums.items():
            col[(slot, key)] = c
    return col


def _expand_with_common_denominator(outputs: List[Dict[object, RationalFunc]],
                                    nvars: int) -> List[Dict[object, int]]:
    """Clear all denominators with one shared multiplier; a per-output
    multiplier would rescale columns and corrupt recovered solutions."""
    common = _common_multiplier(outputs, nvars)
    return [_expand(out, common) for out in outputs]


def _shift_into(col: Dict[object, int], piece: Dict[object, int],
                shift: int, factor) -> None:
    """col += factor * x^shift * piece, a packed key ``shift`` added to each
    monomial key; may leave zeros in ``col``."""
    get = col.get
    for (slot, key), v in piece.items():
        k = (slot, key + shift)
        col[k] = get(k, 0) + factor * v


def _system_columns(residual_map: Callable, space: MonomialSpace,
                    extra: Sequence) -> List[Dict[object, int]]:
    """Exact columns of the map on each basis element, then of each extra
    residual, all cleared by one common denominator.

    Element (b, beta) of the space is x^beta s for the seed s of blade b.
    A first-order L has, per seed, Q = L(s) and P_i = L(x_i s) - x_i Q with

        L(x^beta s) = x^beta Q + sum_i beta_i x^(beta - e_i) P_i,

    so the map runs only on the space's own elements of degree <= 1, s and
    each x_i s, whose columns it reads off, and every other column is a sum
    of shifted copies of the cleared Q and P_i.  The linearity spot check
    runs first; then, where a blade has elements of degree 2 or more, the
    column of its last element is compared with a direct evaluation.
    """
    basis = space.basis
    outputs: Dict[int, Dict[object, RationalFunc]] = {}

    def output(j: int) -> Dict[object, RationalFunc]:
        """The map on basis element j, run once."""
        if j not in outputs:
            outputs[j] = _residual_terms(residual_map(basis[j]))
        return outputs[j]

    _linearity_spot_check(residual_map, basis, output)
    nvars, exponents = space.chart.dim, space.exponents
    size = len(exponents)
    low = 1 + nvars if size > 1 else 1  # the elements of degree <= 1
    keys = [_pack(exps) for exps in exponents]
    firsts = range(0, len(basis), size)  # each blade's seed element
    extra = [_residual_terms(v) for v in extra]
    common = _common_multiplier(
        [output(j + i) for j in firsts for i in range(low)] + extra, nvars)

    columns: List[Dict[object, int]] = []
    for first in firsts:
        read_off = [_expand(output(first + i), common) for i in range(low)]
        columns.extend(read_off)
        if size == low:
            continue
        q, pieces = read_off[0], []  # (v, key of x_v, P_v) per variable
        for i in range(1, low):
            p = dict(read_off[i])
            _shift_into(p, q, keys[i], -1)  # P_v = L(x_v s) - x_v Q
            pieces.append((exponents[i].index(1), keys[i],
                           {k: v for k, v in p.items() if v}))
        for exps, kb in zip(exponents[low:], keys[low:]):
            col: Dict[object, int] = {}
            _shift_into(col, q, kb, 1)
            for v, kv, p in pieces:
                if exps[v]:
                    _shift_into(col, p, kb - kv, exps[v])
            columns.append({k: v for k, v in col.items() if v})
        last = first + size - 1
        try:
            direct = _expand(output(last), common)
        except RuntimeError:
            direct = None
        if direct != columns[last]:
            raise ValueError("residual map is not a first-order differential "
                             "operator (stencil check failed)")
    return columns + [_expand(out, common) for out in extra]


def collect_linear_system(residual_map: Callable,
                          space: MonomialSpace) -> ExactMatrix:
    """Expand the residual of each basis element into an exact column.

    The map must be linear in the ansatz coefficients and a first-order
    differential operator in them: it runs on the space's elements of
    degree <= 1 and on one check element per blade (see
    ``_system_columns``), after a linearity spot check on the first basis
    pair.
    """
    return ExactMatrix.from_columns(_system_columns(residual_map, space, ()))


def collect_affine_system(residual_map: Callable, space: MonomialSpace,
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


def _linearity_spot_check(residual_map: Callable, basis: Sequence,
                          output: Callable) -> None:
    """Scaling on the first basis element and additivity on the first two;
    ``output(j)`` is the map on basis element j."""
    b0 = basis[0]
    doubled = _residual_terms(residual_map(b0.scale(2)))
    expect = {k: v.scale(2) for k, v in output(0).items()}
    if doubled != expect:
        raise ValueError("residual map is not linear (scaling check failed)")
    if len(basis) > 1:
        # residual(b0 + b1) - residual(b0) - residual(b1) must vanish
        gap = _residual_terms(residual_map(b0 + basis[1]))
        for out in (output(0), output(1)):
            for k, v in out.items():
                prev = gap.get(k)
                gap[k] = -v if prev is None else prev - v
        if not all(v.is_zero() for v in gap.values()):
            raise ValueError("residual map is not linear (additivity check failed)")


def kernel_basis(residual_map: Callable, space: MonomialSpace) -> list:
    """Members of ``space`` spanning the kernel of a residual map that is
    linear and first-order in the coefficient (see
    ``collect_linear_system``): one per free column of the exact system,
    built with ``combine``."""
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
             space: MonomialSpace) -> List[RationalFunc]:
    """Basis of the last multipliers of ``a`` inside the ansatz space.

    Empty output means none in the ansatz, not that none exists.
    """
    return kernel_basis(lambda m: curl(volume, a.scale(m)), space)


def casimir_solve(pi: Multivector, space: MonomialSpace) -> List[RationalFunc]:
    """Basis of the functions bracket-commuting with ``pi`` in the ansatz."""
    return kernel_basis(
        lambda f: schouten(pi, Multivector.scalar(pi.chart, f)), space)
