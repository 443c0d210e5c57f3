"""Exact linear algebra over the rationals for ansatz-space searches.

Kernels of the multiplier, Casimir, and cohomology equations are linear in
the unknown coefficients, so each problem reduces to an exact nullspace or
an exact affine solve.  Residual outputs of the probed map are expanded over
a (blade, monomial) row basis once the ring's ``common_denominator`` has
written all of them over one denominator with integer numerators.

Every solver searches one kind of space, a ``MonomialSpace``: monomials
x^beta up to a total degree times one seed per blade, 1/den for functions
and e_b/den for multivectors.  Every map a solver takes is also a
first-order differential operator in the coefficient: Liouville's transport
equation curl(m A) = m curl A +- i_{dm} A and the derivation [pi, .] are.
So the map runs only on the space's elements of degree <= 1, each seed and
the seed times each variable, and on each blade's last element, which
must agree with the first-order prediction; every other column is
assembled from those values by shifting monomial keys.  A space keeps no
element: it builds only those probes, and ``combine`` builds a member of a
kernel vector with one polynomial and one normal form per blade.

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
from mvcurl.ring import Polynomial, RationalFunc, _pack, common_denominator

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
    A space holds no element: solvers build the few their stencil runs a map
    on with ``element``, and turn kernel vectors into members with ``combine``.
    """

    __slots__ = ("chart", "grade", "exponents", "blades", "_den")

    def __init__(self, chart: Chart, grade: int | None, max_degree: int,
                 denominator: Polynomial | None = None):
        n = chart.dim
        if grade is not None and not 0 <= grade <= n:
            raise ValueError(f"grade {grade} out of range for dimension {n}")
        self.exponents = monomial_exponents(
            n, max_degree, 1 if grade is None else comb(n, grade))
        if denominator is not None and denominator.is_zero():
            raise ZeroDivisionError("ansatz denominator must be non-zero")
        self.chart, self.grade, self._den = chart, grade, denominator
        self.blades = [0] if grade is None else [
            mask for mask in range(1 << n) if mask.bit_count() == grade]

    @property
    def dimension(self) -> int:
        return len(self.blades) * len(self.exponents)

    @property
    def basis(self) -> list:
        """Every element in slot order, built afresh on every read."""
        return [self.element(j) for j in range(self.dimension)]

    def element(self, j: int):
        """Element j: blade position j // size, exponent position j % size."""
        b, i = divmod(j, len(self.exponents))
        return self._member({self.blades[b]: {self.exponents[i]: 1}})

    def combine(self, coeffs: Sequence[Fraction]):
        """Linear combination of the elements with exact coefficients."""
        if len(coeffs) != self.dimension:
            raise ValueError("coefficient count does not match basis")
        size = len(self.exponents)
        return self._member({mask: dict(zip(self.exponents, coeffs[b * size:]))
                             for b, mask in enumerate(self.blades)})

    def _member(self, parts: Dict[int, Dict[Tuple[int, ...], object]]):
        """sum_b (sum_beta c x^beta) * seed of b, from ``{b: {beta: c}}``:
        one polynomial and one normal form per blade."""
        terms = {mask: RationalFunc(Polynomial(self.chart.dim, c), self._den)
                 for mask, c in parts.items()}
        return terms[0] if self.grade is None else Multivector(
            self.chart, self.grade, terms)

    def coordinates(self, member) -> List[Fraction]:
        """Exact coefficient vector of a member; rejects anything outside."""
        kind = RationalFunc if self.grade is None else Multivector
        if not isinstance(member, kind):
            raise ValueError(f"member is a {type(member).__name__}, "
                             f"not a {kind.__name__}")
        if self.grade is None:
            if member.nvars != self.chart.dim:
                raise ValueError("dimension mismatch between member and chart")
            member = Multivector(self.chart, 0, {0: member})
        elif member.chart != self.chart:
            raise ValueError("chart mismatch")
        elif member.grade != self.grade and not member.is_zero():
            raise ValueError("grade does not match basis")
        position = {_pack(exps): i for i, exps in enumerate(self.exponents)}
        out = [Fraction(0)] * self.dimension
        for mask, coeff in member.terms.items():
            if self._den is not None:
                coeff = coeff * RationalFunc(self._den)
            if not coeff.den.is_one():
                raise ValueError("coefficients must be polynomial")
            num, at = coeff.num, self.blades.index(mask) * len(position)
            for key, c in num.nums.items():
                if key not in position:
                    raise ValueError("member exceeds the degree bound")
                out[at + position[key]] = Fraction(c, num.den)
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


def _cleared(outputs: Sequence[Dict[object, RationalFunc]],
             nvars: int) -> List[Dict[object, int]]:
    """The outputs over one common denominator (``ring.common_denominator``)
    as {(slot, packed key): int} columns; a per-output denominator would
    rescale columns and corrupt recovered solutions."""
    _, numerators = common_denominator(
        nvars, [c for out in outputs for c in out.values()])
    parts = iter(numerators)
    return [{(slot, key): c for slot in out for key, c in next(parts).nums.items()}
            for out in outputs]


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
    """Exact columns of the map on each element of the space, then of each
    extra residual, all cleared by one common denominator.

    Element (b, beta) of the space is x^beta s for the seed s of blade b.
    A first-order L has, per seed, Q = L(s) and P_i = L(x_i s) - x_i Q with

        L(x^beta s) = x^beta Q + sum_i beta_i x^(beta - e_i) P_i,

    so the map runs only on the space's own elements of degree <= 1, s and
    each x_i s, whose columns it reads off, and every other column is a sum
    of shifted copies of the cleared Q and P_i.  Where a blade has elements
    of degree 2 or more, the map also runs on its last element, x_0^D s,
    whose column must equal the first-order prediction; this probe checks
    that element only, so a map such as d^2/dx_1^2 passes it.
    ``kernel_basis`` certifies each vector it returns, but neither that
    check nor this probe can catch a missing kernel vector.  The
    linearity spot check runs before any column is cleared.
    """
    nvars, exponents = space.chart.dim, space.exponents
    size = len(exponents)
    low = 1 + nvars if size > 1 else 1  # the elements of degree <= 1
    # per blade: the elements of degree <= 1, then any check element
    probes = range(low) if size == low else [*range(low), size - 1]
    outputs = {j: _residual_terms(residual_map(space.element(j)))
               for first in range(0, space.dimension, size)
               for j in (first + i for i in probes)}
    _linearity_spot_check(residual_map, space, outputs)
    keys = [_pack(exps) for exps in exponents]
    cleared = _cleared(
        [*outputs.values()] + [_residual_terms(v) for v in extra], nvars)
    split = len(cleared) - len(extra)

    columns: List[Dict[object, int]] = []
    for at in range(0, split, len(probes)):
        read_off = cleared[at:at + low]
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
        if cleared[at + low] != columns[-1]:
            raise ValueError("residual map is not a first-order differential "
                             "operator: a blade's last element disagrees "
                             "with the first-order prediction")
    return columns + cleared[split:]


def collect_linear_system(residual_map: Callable,
                          space: MonomialSpace) -> ExactMatrix:
    """Expand the residual of each element of the space into an exact column.

    The map must be linear in the ansatz coefficients and a first-order
    differential operator in them: it runs on the space's elements of
    degree <= 1 and on each blade's last element, which must agree with the
    first-order prediction, and on a linearity spot check on the first two
    elements (see ``_system_columns``).
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


def _linearity_spot_check(residual_map: Callable, space: MonomialSpace,
                          outputs: Dict[int, Dict]) -> None:
    """Scaling on the space's first element and additivity on the first
    two; ``outputs[j]`` is the map on element j, for j = 0 and 1."""
    b0 = space.element(0)
    doubled = _residual_terms(residual_map(b0.scale(2)))
    expect = {k: v.scale(2) for k, v in outputs[0].items()}
    if doubled != expect:
        raise ValueError("residual map is not linear (scaling check failed)")
    if space.dimension > 1:
        # residual(b0 + b1) - residual(b0) - residual(b1) must vanish
        gap = _residual_terms(residual_map(b0 + space.element(1)))
        for out in (outputs[0], outputs[1]):
            for k, v in out.items():
                prev = gap.get(k)
                gap[k] = -v if prev is None else prev - v
        if not all(v.is_zero() for v in gap.values()):
            raise ValueError("residual map is not linear (additivity check failed)")


def kernel_basis(residual_map: Callable, space: MonomialSpace) -> list:
    """Members of ``space`` spanning the kernel of a residual map that is
    linear and first-order in the coefficient (see
    ``collect_linear_system``): one per free column of the exact system,
    built with ``combine``.

    The map runs once more on each member, and a non-zero result raises
    ``RuntimeError``: a map that is not first-order can pass the stencil's
    probe and yield a vector outside its kernel.  This certifies each
    member returned; it cannot find a kernel vector the system missed.
    """
    matrix = collect_linear_system(residual_map, space)
    members = [space.combine(v) for v in matrix.nullspace()]
    for member in members:
        if _residual_terms(residual_map(member)):  # holds no zero term
            raise RuntimeError("a kernel vector does not solve the residual "
                               "map: the map is not first-order")
    return members


# -- exact span membership --------------------------------------------------


def _span_contains(columns: List[Dict[object, Fraction]],
                   candidate: Dict[object, Fraction]) -> bool:
    """Whether the candidate column takes no pivot in the RREF of
    [columns | candidate], so adding it leaves the rank unchanged."""
    pivots = ExactMatrix.from_columns(columns + [candidate])._rref()[1]
    return len(columns) not in pivots


def vector_span_contains(vectors: Sequence[Sequence[Fraction]],
                         candidate: Sequence[Fraction]) -> bool:
    """Whether candidate lies in the rational span of the given vectors."""
    return _span_contains([dict(enumerate(v)) for v in vectors],
                          dict(enumerate(candidate)))


def function_span_contains(functions: Sequence[RationalFunc],
                           candidate: RationalFunc) -> bool:
    """Exact membership of a rational function in a finite rational span."""
    *columns, extra = _cleared(
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
