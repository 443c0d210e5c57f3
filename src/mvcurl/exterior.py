"""Exterior algebra with rational-function coefficients on a coordinate chart.

Basis blades are bitmasks over coordinate slots (bit i = coordinate i + 1), so
wedge and contraction signs reduce to parity counts of index crossings.
Multivectors and differential forms are homogeneous sparse blade sums.  A zero
object keeps a nominal grade so degenerate operations stay total; equality
ignores the nominal grade of zeros.

Sign conventions are fixed by two rules and frozen by tests:
  - the duality pairing is 1 on identically sorted blades;
  - interior products are the adjoints of left wedge multiplication.

The public constructors validate outside input (grades, masks, coefficient
dimensions).  Every operation result instead goes through one trusted
builder, ``_BladeSum._summed``, which sums ``(mask, coefficient)`` pairs by
mask and drops zeros: an operation on valid operands only yields blades of
its grade inside the chart.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Sequence, Tuple

from mvcurl.ring import Polynomial, RationalFunc

MAX_DIM = 16


class Chart:
    """A global coordinate chart on R^n, 1 <= n <= 16."""

    __slots__ = ("dim", "names")

    def __init__(self, names: Sequence[str]):
        names = tuple(names)
        if not 1 <= len(names) <= MAX_DIM:
            raise ValueError(f"chart dimension must be in [1, {MAX_DIM}], got {len(names)}")
        if len(set(names)) != len(names):
            raise ValueError("coordinate names must be distinct")
        for nm in names:
            if not nm or not nm.isidentifier():
                raise ValueError(f"invalid coordinate name: {nm!r}")
        self.dim = len(names)
        self.names = names

    @property
    def full_mask(self) -> int:
        return (1 << self.dim) - 1

    def coordinate(self, index: int) -> RationalFunc:
        return RationalFunc.variable(self.dim, index)

    def constant(self, value) -> RationalFunc:
        return RationalFunc.constant(self.dim, value)

    def one_rf(self) -> RationalFunc:
        return RationalFunc.constant(self.dim, 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Chart):
            return NotImplemented
        return self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"Chart({' '.join(self.names)})"


# -- blade helpers ----------------------------------------------------------


def blade_indices(mask: int) -> Tuple[int, ...]:
    """Ascending 0-based coordinate indices of a blade bitmask."""
    out = []
    i = 0
    while mask >> i:
        if (mask >> i) & 1:
            out.append(i)
        i += 1
    return tuple(out)


def blade_mask(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def merge_sign(a: int, b: int) -> int:
    """Parity sign of sorting the concatenation [a ascending, b ascending].

    Counts pairs (i in a, j in b) with i > j; callers guarantee a and b are
    disjoint bitmasks.
    """
    s = 0
    a >>= 1
    while a:
        s += (a & b).bit_count()
        a >>= 1
    return -1 if s & 1 else 1


def _signed(sign: int, coeff: RationalFunc) -> RationalFunc:
    return -coeff if sign < 0 else coeff


class _BladeSum:
    """Shared sparse blade-sum machinery for multivectors and forms."""

    __slots__ = ("chart", "grade", "terms")
    basis_prefix = "?"

    def __init__(self, chart: Chart, grade: int, terms: Dict[int, RationalFunc] | None = None):
        clean: Dict[int, RationalFunc] = {}
        for mask, coeff in (terms or {}).items():
            if coeff.is_zero():
                continue
            if mask.bit_count() != grade:
                raise ValueError(f"blade {mask:b} does not have grade {grade}")
            if mask >> chart.dim:
                raise ValueError(f"blade {mask:b} exceeds chart dimension {chart.dim}")
            if coeff.nvars != chart.dim:
                raise ValueError("coefficient dimension does not match chart")
            clean[mask] = coeff
        if clean and not 0 <= grade <= chart.dim:
            raise ValueError(f"grade {grade} out of range for dimension {chart.dim}")
        self.chart = chart
        self.grade = grade
        self.terms = clean

    @classmethod
    def _summed(cls, chart: Chart, grade: int,
                pairs: Iterable[Tuple[int, RationalFunc]]):
        """Trusted builder for operation results: sums the coefficients of
        equal masks and drops zero sums, skipping ``__init__``'s checks."""
        terms: Dict[int, RationalFunc] = {}
        for mask, coeff in pairs:
            prev = terms.get(mask)
            coeff = coeff if prev is None else prev + coeff
            if coeff.is_zero():
                terms.pop(mask, None)
            else:
                terms[mask] = coeff
        out = object.__new__(cls)
        out.chart = chart
        out.grade = grade
        out.terms = terms
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart, grade: int = 0):
        return cls(chart, grade)

    @classmethod
    def scalar(cls, chart: Chart, value: RationalFunc):
        return cls(chart, 0, {0: value})

    @classmethod
    def blade(cls, chart: Chart, indices: Iterable[int], coeff: RationalFunc | None = None):
        indices = tuple(indices)
        mask = blade_mask(indices)
        if mask.bit_count() != len(indices):
            raise ValueError(f"repeated index in blade {indices}")
        if coeff is None:
            coeff = chart.one_rf()
        return cls(chart, len(indices), {mask: coeff})

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mask: int) -> RationalFunc:
        return self.terms.get(mask, RationalFunc.zero(self.chart.dim))

    def sorted_terms(self) -> list:
        """Terms by ascending blade bitmask (the canonical print order)."""
        return sorted(self.terms.items())

    def scalar_value(self) -> RationalFunc:
        """Coerce a grade-0 object to its coefficient."""
        if self.is_zero():
            return RationalFunc.zero(self.chart.dim)
        if self.grade != 0:
            raise ValueError(f"grade-{self.grade} object is not a scalar")
        return self.terms[0]

    def _check(self, other: "_BladeSum") -> None:
        if type(self) is not type(other):
            raise TypeError(f"kind mismatch: {type(self).__name__} vs {type(other).__name__}")
        if self.chart != other.chart:
            raise ValueError("chart mismatch")

    # -- linear operations --------------------------------------------------

    def __add__(self, other):
        self._check(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.grade != other.grade:
            raise ValueError(f"grade mismatch: {self.grade} vs {other.grade}")
        return self._summed(self.chart, self.grade,
                            chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._summed(self.chart, self.grade,
                            ((m, -c) for m, c in self.terms.items()))

    def scale(self, value):
        """Multiply by a scalar (RationalFunc or exact rational)."""
        if not isinstance(value, RationalFunc):
            value = RationalFunc.constant(self.chart.dim, value)
        pairs = () if value.is_zero() else (
            (m, c * value) for m, c in self.terms.items())
        return self._summed(self.chart, self.grade, pairs)

    def wedge(self, other):
        self._check(other)
        return self._summed(self.chart, self.grade + other.grade, (
            (ma | mb, _signed(merge_sign(ma, mb), ca * cb))
            for ma, ca in self.terms.items()
            for mb, cb in other.terms.items() if not ma & mb))

    def __eq__(self, other) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        if self.chart != other.chart:
            return False
        if not self.terms and not other.terms:
            return True  # zeros are equal regardless of nominal grade
        return self.grade == other.grade and self.terms == other.terms

    def __hash__(self) -> int:
        if not self.terms:
            return hash((type(self).__name__, self.chart))
        return hash((type(self).__name__, self.chart, self.grade,
                     tuple(sorted(self.terms.items()))))

    # -- printing -----------------------------------------------------------

    def to_string(self) -> str:
        if not self.terms:
            return "0"
        names = self.chart.names
        parts = []
        for mask, coeff in self.sorted_terms():
            cs = coeff.to_string(names)
            if mask == 0:
                parts.append(cs)
            else:
                blade = "^^".join(f"{self.basis_prefix}{i + 1}" for i in blade_indices(mask))
                parts.append(f"({cs}) {blade}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_string()})"


class Multivector(_BladeSum):
    """Homogeneous k-vector field: sparse sum of coordinate blades."""

    basis_prefix = "e"

    @classmethod
    def basis_vector(cls, chart: Chart, index: int) -> "Multivector":
        return cls.blade(chart, (index,))


class DifferentialForm(_BladeSum):
    """Homogeneous differential p-form (``grade`` holds the degree p)."""

    basis_prefix = "d"

    @classmethod
    def basis_form(cls, chart: Chart, index: int) -> "DifferentialForm":
        return cls.blade(chart, (index,))

    @classmethod
    def differential(cls, chart: Chart, f: RationalFunc) -> "DifferentialForm":
        """The one-form df."""
        if f.nvars != chart.dim:
            raise ValueError("coefficient dimension does not match chart")
        return cls._summed(chart, 1, ((1 << i, f.diff(i)) for i in range(chart.dim)))


class VolumeForm:
    """Top-degree form (density) * dx^1 ^ ... ^ dx^n with non-zero density."""

    __slots__ = ("chart", "density")

    def __init__(self, chart: Chart, density: RationalFunc):
        if density.nvars != chart.dim:
            raise ValueError("density dimension does not match chart")
        if density.is_zero():
            raise ValueError("volume density must be non-zero")
        self.chart = chart
        self.density = density

    @classmethod
    def unit(cls, chart: Chart) -> "VolumeForm":
        return cls(chart, chart.one_rf())

    def scaled(self, m: RationalFunc) -> "VolumeForm":
        if m.is_zero():
            raise ZeroDivisionError("volume scaling factor must be non-zero")
        return VolumeForm(self.chart, self.density * m)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VolumeForm):
            return NotImplemented
        return self.chart == other.chart and self.density == other.density

    def __hash__(self) -> int:
        return hash((self.chart, self.density))

    def __repr__(self) -> str:
        return f"VolumeForm({self.density.to_string(self.chart.names)})"


# -- bilinear operations ----------------------------------------------------


def wedge(a: _BladeSum, b: _BladeSum) -> _BladeSum:
    return a.wedge(b)


def pairing(omega: DifferentialForm, a: Multivector) -> RationalFunc:
    """Duality pairing; 1 on identically sorted blades, 0 across degrees."""
    if omega.chart != a.chart:
        raise ValueError("chart mismatch")
    # 0 across degrees, where contracting a lower grade leaves a non-zero form
    if omega.grade != a.grade:
        return RationalFunc.zero(a.chart.dim)
    return _contract(a, omega).scalar_value()


def _contract(outer: _BladeSum, inner: _BladeSum) -> _BladeSum:
    """Contract each blade of ``outer`` out of the front of each blade of
    ``inner``; the result has the kind of ``inner``."""
    if outer.chart != inner.chart:
        raise ValueError("chart mismatch")
    return inner._summed(inner.chart, inner.grade - outer.grade, (
        (mi & ~mj, _signed(merge_sign(mj, mi & ~mj), co * ci))
        for mj, co in outer.terms.items()
        for mi, ci in inner.terms.items() if not mj & ~mi))


def interior_product_form(a: Multivector, omega: DifferentialForm) -> DifferentialForm:
    """i_a omega, the adjoint of left wedge: <i_a w, B> = <w, a ^ B>."""
    return _contract(a, omega)


def interior_product_vector(omega: DifferentialForm, a: Multivector) -> Multivector:
    """i_omega a, the mirror contraction: <eta, i_w a> = <w ^ eta, a>."""
    return _contract(omega, a)


def _complement(volume: VolumeForm, x: _BladeSum, kind, inverse: bool):
    """Each blade of ``x`` to its complement blade of ``kind``.  Flat sorts
    the blade in front of its complement and multiplies by the density; its
    ``inverse`` sorts the blade behind and divides, through the inverse of
    the density taken once.  A unit density multiplies nothing."""
    if volume.chart != x.chart:
        raise ValueError("chart mismatch")
    chart, f = x.chart, volume.density
    f = None if f.is_one() else f.inverse() if inverse else f
    full = chart.full_mask
    pairs = []
    for mask, coeff in x.terms.items():
        rest = full & ~mask
        c = coeff if f is None else coeff * f
        sign = merge_sign(rest, mask) if inverse else merge_sign(mask, rest)
        pairs.append((rest, -c if sign < 0 else c))
    return kind._summed(chart, chart.dim - x.grade, pairs)


def flat(volume: VolumeForm, a: Multivector) -> DifferentialForm:
    """Contraction into the volume form, i_a V: grade k -> degree n - k."""
    return _complement(volume, a, DifferentialForm, False)


def sharp(volume: VolumeForm, omega: DifferentialForm) -> Multivector:
    """Inverse of flat: solves i_A V = omega blade by blade."""
    return _complement(volume, omega, Multivector, True)


def exterior_derivative(omega: DifferentialForm) -> DifferentialForm:
    pairs = []
    for mask, coeff in omega.terms.items():
        for i in range(omega.chart.dim):
            if not mask >> i & 1:
                ci = coeff.diff(i)
                if not ci.is_zero():
                    pairs.append((mask | 1 << i, _signed(merge_sign(1 << i, mask), ci)))
    return DifferentialForm._summed(omega.chart, omega.grade + 1, pairs)


def witten_derivative(t, f: RationalFunc, omega: DifferentialForm) -> DifferentialForm:
    """Deformed differential t*df ^ omega + d(omega)."""
    d_omega = exterior_derivative(omega)
    t = RationalFunc.constant(omega.chart.dim, t)
    if t.is_zero():
        return d_omega
    df = DifferentialForm.differential(omega.chart, f)
    return df.scale(t).wedge(omega) + d_omega


def marsden_derivative(f: RationalFunc, omega: DifferentialForm) -> DifferentialForm:
    """Conjugated differential (1/f) d(f * omega)."""
    if f.is_zero():
        raise ZeroDivisionError("conjugating function must be non-zero")
    return exterior_derivative(omega.scale(f)).scale(f.inverse())
