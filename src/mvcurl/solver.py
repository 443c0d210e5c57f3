"""Exact linear algebra over the rationals for ansatz-space searches.

Kernels of the multiplier, Casimir, and cohomology equations are linear in
the unknown coefficients, so each problem reduces to an exact nullspace or
an exact affine solve.  Residual outputs of the probed map are expanded over
a (blade, monomial) row basis after clearing all denominators with one
common multiplier for the whole system; a per-column multiplier would
rescale columns and corrupt the recovered solution functions.  The common
multiplier is the lcm of the denominators with integer numerators, and a
coefficient n/d is cleared as n times the exact quotient of it by d.

Every map a solver takes is also a first-order differential operator in the
coefficient: Liouville's transport equation curl(m A) = m curl A +- i_{dm} A
and the derivation [pi, .] are.  So the map runs on each seed (a blade over
a coefficient denominator) and on the seed times each variable, and each
basis element's column is assembled from those few values by shifting
monomial keys, not by running the map on the element.

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
from mvcurl.ring import Polynomial, RationalFunc, _field, _unpack, poly_lcm

# Largest ansatz a solver accepts, in basis elements.  Assembly runs the
# operator a few times per seed, but elimination is up to cubic in the count:
# on a 2-core x86 host with Python 3.11, so(3) casimir at degree 20 (1,771
# elements) took 0.03 s to assemble and about 0.1 s to eliminate (0.24 s for
# the whole CLI process), and at degree 30 (5,456) about 0.1 s and 0.6-0.8 s.
# so(3) systems stay sparse; a denser system fills in as it is eliminated.
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


def _common_multiplier(outputs: Sequence[Dict[object, RationalFunc]],
                       nvars: int) -> Polynomial | None:
    """The lcm of every denominator in the outputs with integer numerators,
    that is the monic lcm times its integer denominator, or None when the lcm
    is 1.  Scaling a whole system by one constant changes no kernel or
    solution, and this scale leaves more values integral."""
    common = Polynomial.constant(nvars, 1)
    for out in outputs:
        for coeff in out.values():
            if not coeff.den.is_one():
                common = poly_lcm(common, coeff.den)
    return None if common.is_one() else Polynomial._make(nvars, common.nums)


def _expand(out: Dict[object, RationalFunc],
            common: Polynomial | None) -> Dict[object, Fraction]:
    """One output times the common multiplier, as {(slot, packed key): value}
    with an int wherever a value is an integer and a ``Fraction`` only
    where it is not.  Each coefficient n/d is cleared as n * (common / d),
    one exact division and no gcd."""
    col: Dict[object, Fraction] = {}
    for slot, coeff in out.items():
        num = coeff.num
        if common is not None:
            cofactor = common
            if not coeff.den.is_one():
                try:
                    cofactor = common.exact_div(coeff.den)
                except ValueError:
                    raise RuntimeError("common denominator failed to clear "
                                       "residual") from None
            num = num * cofactor
        nums, den = num.nums, num.den
        if den == 1:
            for key, c in nums.items():
                col[(slot, key)] = c
        else:
            for key, c in nums.items():
                col[(slot, key)] = Fraction(c, den) if c % den else c // den
    return col


def _settled(col: Dict[object, Fraction]) -> Dict[object, Fraction]:
    """The non-zero values of ``col``, an int wherever one is an integer."""
    return {k: v.numerator if v.denominator == 1 else v
            for k, v in col.items() if v}


def _expand_with_common_denominator(outputs: List[Dict[object, RationalFunc]],
                                    nvars: int) -> List[Dict[object, Fraction]]:
    """Clear all denominators with one shared multiplier; a per-output
    multiplier would rescale columns and corrupt recovered solutions."""
    common = _common_multiplier(outputs, nvars)
    return [_expand(out, common) for out in outputs]


def _seeded_terms(element) -> List[Tuple[object, Callable, Polynomial]]:
    """The element as (seed key, make, num) per blade: it is the sum of
    make(num) over its blades, where make(p) is p over the blade's
    coefficient denominator, on that blade."""
    if isinstance(element, RationalFunc):
        den = element.den
        return [] if element.is_zero() else [
            (den, lambda p: RationalFunc(p, den), element.num)]
    if isinstance(element, _BladeSum):
        kind, chart, grade = type(element), element.chart, element.grade
        return [((grade, mask, c.den),
                 lambda p, mask=mask, den=c.den:
                     kind(chart, grade, {mask: RationalFunc(p, den)}),
                 c.num) for mask, c in element.terms.items()]
    raise TypeError(f"unsupported basis element: {type(element).__name__}")


def _shift_into(col: Dict[object, Fraction], piece: Dict[object, Fraction],
                shift: int, factor) -> None:
    """col += factor * x^shift * piece, a packed key ``shift`` added to each
    monomial key; may leave zeros in ``col``."""
    get = col.get
    for (slot, key), v in piece.items():
        k = (slot, key + shift)
        col[k] = get(k, 0) + factor * v


def _system_columns(residual_map: Callable, space: SearchSpace,
                    extra: Sequence) -> List[Dict[object, Fraction]]:
    """Exact columns of the map on each basis element, then of each extra
    residual, all cleared by one common denominator.

    Each basis element is a sum of terms c x^beta s over seeds s, a blade
    with coefficient 1/den.  A first-order L has, per seed, Q = L(s) and
    P_i = L(x_i s) - x_i Q with

        L(x^beta s) = x^beta Q + sum_i beta_i x^(beta - e_i) P_i,

    so the map runs on each seed and on x_i s for each variable x_i in one
    of its exponents, and every column is a sum of shifted copies of the
    cleared Q and P_i.  Seeds and exponents come from the basis elements,
    which must be ``RationalFunc`` or blade sums.  Where a probe is a basis
    element up to a constant, that element is what the map runs on, so a
    group of degree at most 1 reads its columns straight off the probes.
    The linearity spot check runs first; then, in each seed group with an
    exponent of degree 2 or more, the column of its highest-degree element
    is compared with a direct evaluation.
    """
    basis = space.basis
    outputs: Dict[int, Dict[object, RationalFunc]] = {}

    def output(j: int) -> Dict[object, RationalFunc]:
        """The map on basis element j, run once."""
        if j not in outputs:
            outputs[j] = _residual_terms(residual_map(basis[j]))
        return outputs[j]

    _linearity_spot_check(residual_map, basis, output)
    nvars = space.chart.dim
    # seed key -> (make, unit, [(element, packed key, exponents, c)], own):
    # the seed is make(unit), unit the first coefficient met in the group, so
    # c is 1 on every element of an ansatz, also over a denominator (whose
    # elements carry 1/lc, lc the leading coefficient of the monic den); own
    # maps the packed key of x^beta to an element c x^beta s, |beta| <= 1
    seeds: Dict[object, tuple] = {}
    for j, element in enumerate(basis):
        parts = _seeded_terms(element)
        for key, make, num in parts:
            if key not in seeds:
                first = Fraction(next(iter(num.nums.values())), num.den)
                seeds[key] = (make, first, [], {})
            _, unit, terms, own = seeds[key]
            for kb, c in num.nums.items():
                exps = _unpack(nvars, kb)
                n, d = c * unit.denominator, num.den * unit.numerator
                c = 1 if n == d else Fraction(n, d)
                terms.append((j, kb, exps, c))
                if len(parts) == 1 and len(num.nums) == 1 and sum(exps) < 2:
                    own.setdefault(kb, (j, c))
    xkey = [_field(nvars, i)[1] for i in range(nvars)]  # packed key of x_i
    groups = []
    for make, unit, terms, own in seeds.values():
        variables = [i for i in range(nvars) if any(t[2][i] for t in terms)]
        probes = []  # (packed key of x^beta, L(c x^beta s), c), |beta| <= 1
        for kb in [0] + [xkey[i] for i in variables]:
            if kb in own:
                j, c = own[kb]
                probes.append((kb, output(j), c))
            else:
                p = Polynomial.monomial(nvars, _unpack(nvars, kb), unit)
                probes.append((kb, _residual_terms(residual_map(make(p))), 1))
        groups.append((terms, variables, probes))
    extra = [_residual_terms(v) for v in extra]
    common = _common_multiplier(
        [out for _, _, probes in groups for _, out, _ in probes] + extra, nvars)

    columns: List[Dict[object, Fraction]] = [{} for _ in basis]
    checks, summed = set(), set()  # summed: columns that may hold zeros
    for terms, variables, probes in groups:
        read_off = {}  # packed key of x^beta -> cleared L(x^beta s)
        for kb, out, c in probes:
            col = _expand(out, common)
            read_off[kb] = col if c == 1 else _settled(
                {k: v / c for k, v in col.items()})
        q = read_off[0]
        pieces = []
        top = max(terms, key=lambda t: t[1])
        if sum(top[2]) > 1:
            checks.add(top[0])
            for i in variables:
                p = dict(read_off[xkey[i]])
                _shift_into(p, q, xkey[i], -1)  # P_i = L(x_i s) - x_i Q
                pieces.append((i, {k: v for k, v in p.items() if v}))
        for j, kb, exps, c in terms:
            col = columns[j]
            if kb in read_off and c == 1 and not col:  # the element is a probe
                col.update(read_off[kb])
                continue
            summed.add(j)
            if kb in read_off:
                _shift_into(col, read_off[kb], 0, c)
                continue
            _shift_into(col, q, kb, c)
            for i, p in pieces:
                if exps[i]:
                    _shift_into(col, p, kb - xkey[i], c * exps[i])
    for j in summed:
        columns[j] = _settled(columns[j])
    for j in sorted(checks):
        try:
            direct = _expand(output(j), common)
        except RuntimeError:
            direct = None
        if direct != columns[j]:
            raise ValueError("residual map is not a first-order differential "
                             "operator (stencil check failed)")
    return columns + [_expand(out, common) for out in extra]


def collect_linear_system(residual_map: Callable, space: SearchSpace) -> ExactMatrix:
    """Expand the residual of each basis element into an exact column.

    ``space`` needs ordered ``basis`` elements (``RationalFunc`` or blade
    sums) supporting + and scale.  The map must be linear in the ansatz
    coefficients and a first-order differential operator in them: columns
    are built from its values on each seed and on the seed times each
    variable (see ``_system_columns``).  Linearity is spot-checked on the
    first basis pair, and first order on the highest-degree element of each
    seed group, before trusting it.
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


def _linearity_spot_check(residual_map: Callable, basis: Sequence,
                          output: Callable) -> None:
    """Scaling on the first basis element and additivity on the first two;
    ``output(j)`` is the map on basis element j."""
    if not basis:
        return
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


def kernel_basis(residual_map: Callable, space: SearchSpace) -> list:
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
             space: AnsatzSpace) -> List[RationalFunc]:
    """Basis of the last multipliers of ``a`` inside the ansatz space.

    Empty output means none in the ansatz, not that none exists.
    """
    return kernel_basis(lambda m: curl(volume, a.scale(m)), space)


def casimir_solve(pi: Multivector, space: AnsatzSpace) -> List[RationalFunc]:
    """Basis of the functions bracket-commuting with ``pi`` in the ansatz."""
    return kernel_basis(
        lambda f: schouten(pi, Multivector.scalar(pi.chart, f)), space)
