"""Exact sparse multivariate polynomials and rational functions over the rationals.

A polynomial in n coordinates is stored as integer numerators over one
positive integer denominator: ``nums`` maps packed monomial keys (below) to
non-zero ``int`` numerators, ``den`` is a positive ``int``, and the pair is
kept in lowest terms, ``gcd(den, *nums.values()) == 1``.  That form is
canonical, so equality and hashing are structural, and the arithmetic runs
on ints only; ``terms`` is a read-only ``{exponent tuple: Fraction}`` view of
the same coefficients, built on demand for readers outside the ring, and
``sorted_terms`` lists them in term order as (exponents, numerator,
denominator) ints in lowest terms, which is all the printers read.
``fractions`` is imported only where a ``Fraction`` is built, so parsing and
printing load it only for input that needs one.
Rational functions are kept in canonical form: numerator and denominator
coprime, denominator monic with respect to the graded lexicographic term
order.  Two equal fractions therefore always have identical
representations, so every identity check in the rest of the package is a
strict equality.

Packed keys (Monagan and Pearce, CASC 2007).  The key of x^e,
e = (e_0, ..., e_{n-1}), is one int of n + 1 fields of 16 bits: the total
degree |e| in the top field, then e_0, ..., e_{n-1}.  The top bit of each
field is a guard that stored keys leave clear, so the total degree, and
with it every exponent, is at most ``MAX_DEGREE`` = 32767; the constructor,
``*`` and ``**`` raise ``ValueError`` rather than pass it.  Within that
limit no field carries into its neighbour, so

- int order of keys is graded lexicographic order: the leading term is
  ``max(nums)`` and the constant monomial is the key 0;
- the key of a product of monomials is the sum of their keys;
- x^a divides x^b exactly when q = key(b) - key(a) is >= 0 with every guard
  bit clear, since a field that borrows sets its guard bit.

``terms``, ``sorted_terms``, ``leading_exponent`` and the printer unpack the
keys into exponent tuples.

``poly_gcd`` runs the heuristic gcd GCDHEU (Char, Geddes and Gonnet, JSC
1989) first and accepts its candidate only when exact division proves it
(see ``_heu_gcd``).  When the heuristic gives up, a pair in one variable
takes the primitive PRS on its dense coefficient lists, and any other pair
is evaluated and interpolated one variable at a time (Brown, JACM 1971),
with exact division proving the result.  ``common_denominator``
writes a list of rational functions as integer-coefficient numerators over
one shared denominator, which is how the solver clears a linear system.

``Polynomial(nvars, terms)`` checks exponents and converts coefficients
(ints, ``Fraction`` or other exact rationals; floats are refused), for input
from outside the package; arithmetic results go through the trusted
``Polynomial._make``, which skips those checks and only brings the
numerators and the denominator to lowest terms.
"""

from __future__ import annotations

import functools
import operator
import struct
from math import gcd, isqrt, lcm
from types import MappingProxyType
from typing import TYPE_CHECKING, Dict, Iterable, Mapping, Sequence, Tuple

if TYPE_CHECKING:
    from fractions import Fraction

Exponent = Tuple[int, ...]

_add = operator.add
_sub = operator.sub

# largest total degree, and so largest exponent, of a stored monomial
MAX_DEGREE = (1 << 15) - 1
_FIELD = 16
_FIELD_MASK = (1 << _FIELD) - 1


@functools.cache
def _codec(nvars: int) -> struct.Struct:
    """The n + 1 big-endian 16-bit fields of a packed key, for unpacking."""
    return struct.Struct(f">{nvars + 1}H")


@functools.cache
def _guards(nvars: int) -> int:
    """The guard bit of every field of a packed key."""
    return sum(1 << (_FIELD * i + _FIELD - 1) for i in range(nvars + 1))


def _pack(exps: Exponent) -> int:
    """Key of x^exps, for non-negative ints of sum at most MAX_DEGREE."""
    key = sum(exps)
    for e in exps:
        key = key << _FIELD | e
    return key


def _unpack(nvars: int, key: int) -> Exponent:
    return _codec(nvars).unpack(key.to_bytes(_FIELD // 8 * (nvars + 1), "big"))[1:]


@functools.cache
def _field(nvars: int, v: int) -> Tuple[int, int]:
    """(bit offset of the field of x_v, key of x_v); adding the key of x_v
    adds one to that field and one to the degree."""
    shift = _FIELD * (nvars - 1 - v)
    return shift, (1 << _FIELD * nvars) | (1 << shift)


def _too_large(degree: int) -> ValueError:
    return ValueError(f"polynomial degree {degree} exceeds the limit {MAX_DEGREE}")


def _exact(value) -> Tuple[int, int]:
    """``value`` as (numerator, positive denominator) in lowest terms; floats
    and complex numbers are refused, since a binary float is rarely the
    rational its digits show."""
    if type(value) is int:
        return value, 1
    if isinstance(value, (float, complex)):
        raise TypeError(f"inexact coefficient {value!r}: "
                        "use an int, a Fraction or a string such as '1/10'")
    from fractions import Fraction
    c = Fraction(value)
    return c.numerator, c.denominator


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients.

    Instances are immutable by convention: no method mutates ``nums`` after
    construction, so values are safe to share.
    """

    __slots__ = ("nvars", "nums", "den")

    def __init__(self, nvars: int, terms: Mapping[Exponent, object] | None = None):
        if nvars < 0:
            raise ValueError(f"invalid number of variables: {nvars}")
        clean: Dict[int, Tuple[int, int]] = {}
        for exps, coeff in (terms or {}).items():
            if len(exps) != nvars:
                raise ValueError(
                    f"exponent tuple {exps} does not match {nvars} variables")
            if exps and min(exps) < 0:
                raise ValueError(f"negative exponent in {exps}")
            if sum(exps) > MAX_DEGREE:
                raise _too_large(sum(exps))
            try:
                key = _pack(exps)
            except TypeError:
                raise TypeError(f"non-integer exponent in {exps}") from None
            n, d = _exact(coeff)
            if n:
                clean[key] = n, d
        # over the lcm of reduced denominators the numerators share no
        # factor with it, so the pair is already in lowest terms
        den = lcm(*(d for _, d in clean.values()))
        self.nvars = nvars
        self.nums = {k: n * (den // d) for k, (n, d) in clean.items()}
        self.den = den

    @classmethod
    def _make(cls, nvars: int, nums: Dict[int, int], den: int = 1) -> "Polynomial":
        """Trusted constructor for ring results: packed keys for ``nvars``
        variables, non-zero int numerators and a positive int ``den``; one gcd
        brings them to lowest terms when ``den`` is not 1."""
        if den != 1:
            g = gcd(den, *nums.values()) if nums else den
            if g != 1:
                den //= g
                nums = {e: c // g for e, c in nums.items()}
        out = object.__new__(cls)
        out.nvars = nvars
        out.nums = nums
        out.den = den
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        if nvars < 0:
            raise ValueError(f"invalid number of variables: {nvars}")
        return cls._make(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value) -> "Polynomial":
        """The constant ``value``; the int 1 gives the shared ``_one``."""
        if type(value) is int and nvars >= 0:
            if value == 1:
                return _one(nvars)
            return cls._make(nvars, {0: value} if value else {})
        return cls.monomial(nvars, (0,) * nvars, value)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        return cls._make(nvars, {_field(nvars, index)[1]: 1})

    @classmethod
    def monomial(cls, nvars: int, exps: Exponent, coeff=1) -> "Polynomial":
        n, d = _exact(coeff)
        if (nvars < 0 or len(exps) != nvars or min(exps, default=0) < 0
                or sum(exps) > MAX_DEGREE):
            return cls(nvars, {tuple(exps): n})  # raises the constructor's error
        return cls._make(nvars, {_pack(exps): n} if n else {}, d)

    # -- views --------------------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponent, Fraction]:
        """Read-only ``{exponent tuple: Fraction}`` view of the coefficients."""
        from fractions import Fraction
        n, den = self.nvars, self.den
        return MappingProxyType({_unpack(n, k): Fraction(c, den)
                                 for k, c in self.nums.items()})

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        nums = self.nums
        return not nums or (len(nums) == 1 and 0 in nums)

    def is_one(self) -> bool:
        return self.den == 1 and len(self.nums) == 1 and self.nums.get(0) == 1

    def total_degree(self) -> int:
        """Total degree; zero polynomial reports -1."""
        if not self.nums:
            return -1
        return max(self.nums) >> _FIELD * self.nvars

    # -- term order ---------------------------------------------------------

    def leading_exponent(self) -> Exponent:
        if not self.nums:
            raise ValueError("zero polynomial has no leading term")
        return _unpack(self.nvars, max(self.nums))

    def leading_coefficient(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self.nums[max(self.nums)], self.den)

    def sorted_terms(self) -> list:
        """Terms in descending graded lexicographic order (leading first), as
        (exponent tuple, numerator, denominator) with the coefficient
        numerator/denominator in lowest terms and the denominator positive."""
        n, den = self.nvars, self.den
        out = []
        for k, c in sorted(self.nums.items(), reverse=True):
            g = gcd(c, den)
            out.append((_unpack(n, k), c // g, den // g))
        return out

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"dimension mismatch: {self.nvars} vs {other.nvars} variables")

    def _merge(self, other: "Polynomial", op) -> "Polynomial":
        self._check(other)
        den, db = self.den, other.den
        if den == db:
            out = dict(self.nums)
            items = other.nums.items()
        else:
            den = lcm(den, db)
            fa, fb = den // self.den, den // db
            out = {e: c * fa for e, c in self.nums.items()}
            items = [(e, c * fb) for e, c in other.nums.items()]
        get = out.get
        for key, c in items:
            out[key] = op(get(key, 0), c)
        return Polynomial._make(self.nvars, {e: c for e, c in out.items() if c}, den)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._merge(other, _add)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._merge(other, _sub)

    def __neg__(self) -> "Polynomial":
        out = object.__new__(Polynomial)
        out.nvars = self.nvars
        out.nums = {e: -c for e, c in self.nums.items()}
        out.den = self.den
        return out

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        left, right = self.nums, other.nums
        # a constant factor only scales the other
        if len(left) == 1 and 0 in left:
            return other._times(left[0], self.den)
        if len(right) == 1 and 0 in right:
            return self._times(right[0], other.den)
        # the leading keys add up to the product's leading key; its degree
        # field sets its guard bit exactly when the degree passes MAX_DEGREE
        if left and right and (max(left) + max(right)) >> _FIELD * (self.nvars + 1) - 1:
            raise _too_large(self.total_degree() + other.total_degree())
        out: Dict[int, int] = {}
        get = out.get
        right = right.items()
        for ka, ca in left.items():
            for kb, cb in right:
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
        return Polynomial._make(self.nvars, {e: c for e, c in out.items() if c},
                                self.den * other.den)

    def _times(self, p: int, q: int) -> "Polynomial":
        """self * p / q for non-zero ints p and q."""
        if p == q:
            return self
        if q < 0:
            p, q = -p, -q
        nums = self.nums if p == 1 else {e: c * p for e, c in self.nums.items()}
        return Polynomial._make(self.nvars, nums, self.den * q)

    def scale(self, value) -> "Polynomial":
        n, d = _exact(value)
        if not n:
            return Polynomial(self.nvars)
        return self._times(n, d)

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        if exponent and self.total_degree() * exponent > MAX_DEGREE:
            raise _too_large(self.total_degree() * exponent)
        result = None
        base = self
        e = exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return _one(self.nvars) if result is None else result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.nvars == other.nvars and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self) -> int:
        return hash((self.nvars, self.den, frozenset(self.nums.items())))

    # -- calculus -----------------------------------------------------------

    def diff(self, index: int) -> "Polynomial":
        """Partial derivative with respect to coordinate ``index``."""
        n = self.nvars
        if not 0 <= index < n:
            raise ValueError(f"coordinate index {index} out of range")
        shift, unit = _field(n, index)
        out: Dict[int, int] = {}
        for key, c in self.nums.items():
            k = key >> shift & _FIELD_MASK
            if k:
                out[key - unit] = c * k
        return Polynomial._make(n, out, self.den)

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact value at a rational point; float coordinates are refused."""
        from fractions import Fraction
        values = [Fraction(*_exact(v)) for v in point]
        if len(values) != self.nvars:
            raise ValueError("point dimension does not match variable count")
        total = Fraction(0)
        for key, c in self.nums.items():
            term = Fraction(c)
            for e, v in zip(_unpack(self.nvars, key), values):
                if e:
                    term *= v ** e
            total += term
        return total / self.den

    # -- division -----------------------------------------------------------

    def exact_div(self, divisor: "Polynomial") -> "Polynomial":
        """Exact quotient self / divisor; raises if the division is inexact.

        With self = A/a and divisor = c·B/b, B primitive over the integers,
        the quotient is (A/B)·b/(a·c).  If B divides A over the rationals, the
        quotient A/B has integer coefficients (Gauss's lemma), and each step
        below peels off one of them; so a step whose integer division leaves
        a remainder, or whose leading monomial is not a multiple of B's,
        proves the division inexact.
        """
        self._check(divisor)
        if not divisor.nums:
            raise ZeroDivisionError("division by the zero polynomial")
        if divisor.is_constant():
            return self._times(divisor.den, sum(divisor.nums.values()))
        content = gcd(*divisor.nums.values())
        lead_k = max(divisor.nums)
        lead_c = divisor.nums[lead_k] // content
        tail = [(k, c // content) for k, c in divisor.nums.items() if k != lead_k]
        guards = _guards(self.nvars)
        # reduce one remainder dict in place; each step cancels its leading
        # term, so the quotient keys come out distinct and descending
        rem = dict(self.nums)
        quotient: Dict[int, int] = {}
        get = rem.get
        while rem:
            rk = max(rem)
            qk = rk - lead_k
            qc, r = divmod(rem.pop(rk), lead_c)
            if r or qk < 0 or qk & guards:
                raise ValueError("inexact polynomial division")
            quotient[qk] = qc
            for k, c in tail:
                m = k + qk
                v = get(m, 0) - qc * c
                if v:
                    rem[m] = v
                else:
                    del rem[m]
        b = divisor.den
        if b != 1:
            quotient = {k: c * b for k, c in quotient.items()}
        return Polynomial._make(self.nvars, quotient, self.den * content)

    def to_string(self, names: Sequence[str]) -> str:
        """Deterministic rendering, terms in descending graded-lex order."""
        if not self.nums:
            return "0"
        if len(names) != self.nvars:
            raise ValueError("name list does not match variable count")
        pieces = []
        for exps, num, den in self.sorted_terms():
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            mag = f"{abs(num)}" if den == 1 else f"{abs(num)}/{den}"
            if not factors:
                body = mag
            elif mag == "1":
                body = "*".join(factors)
            else:
                body = "*".join([mag] + factors)
            pieces.append(("-" if num < 0 else "+", body))
        sign, body = pieces[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"Polynomial({self.to_string([f'x{i + 1}' for i in range(self.nvars)])})"


# -- greatest common divisors ----------------------------------------------


def _monic(p: Polynomial) -> Polynomial:
    if p.is_zero():
        return p
    lc = p.nums[max(p.nums)]
    return p if lc == p.den else p._times(p.den, lc)


def _variables_used(p: Polynomial) -> set:
    n, used = p.nvars, 0
    for key in p.nums:
        used |= key
    return {v for v in range(n) if used >> _field(n, v)[0] & _FIELD_MASK}


def _degree_in(p: Polynomial, v: int) -> int:
    shift = _field(p.nvars, v)[0]
    return max(key >> shift & _FIELD_MASK for key in p.nums)


def _split_by_variable(p: Polynomial, v: int) -> Dict[int, Polynomial]:
    """View p as univariate in coordinate v with polynomial coefficients."""
    shift, unit = _field(p.nvars, v)
    buckets: Dict[int, Dict[int, int]] = {}
    for key, c in p.nums.items():
        d = key >> shift & _FIELD_MASK
        buckets.setdefault(d, {})[key - d * unit] = c
    return {d: Polynomial._make(p.nvars, t, p.den) for d, t in buckets.items()}


def _groups(p: Polynomial, v: int) -> Dict[int, Polynomial]:
    """View p as a polynomial in the coordinates other than x_v with
    coefficients in Q[x_v]: {key of a monomial free of x_v: its coefficient}."""
    shift, unit = _field(p.nvars, v)
    buckets: Dict[int, Dict[int, int]] = {}
    for key, c in p.nums.items():
        d = (key >> shift & _FIELD_MASK) * unit
        buckets.setdefault(key - d, {})[d] = c
    return {m: Polynomial._make(p.nvars, t, p.den) for m, t in buckets.items()}


def _content(polys: Iterable[Polynomial]) -> Polynomial:
    ordered = sorted(polys, key=lambda p: len(p.nums))
    acc = ordered[0]
    for p in ordered[1:]:
        if acc.is_constant():
            break
        acc = poly_gcd(acc, p)
    return _monic(acc)


def _monomial_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    n = a.nvars
    exps = tuple(map(min, *(_unpack(n, k) for k in (*a.nums, *b.nums))))
    if not any(exps):
        return _one(n)
    return Polynomial.monomial(n, exps)


# GCDHEU gives up after this many evaluation points, and before it
# evaluates at a point whose bit length times the degree (the size of an
# image coefficient, in bits) passes _HEU_MAX_BITS
_HEU_TRIES = 6
_HEU_MAX_BITS = 1 << 16


def _heu_gcd(a: Dict[int, int], b: Dict[int, int], nvars: int,
             vs: Sequence[int]) -> Dict[int, int] | None:
    """Numerators of gcd(a, b) in Z[x], up to sign, for the non-zero
    numerator dicts a and b, which use no variable outside ``vs``; None if
    GCDHEU gives up (see ``poly_gcd``)."""
    ca, cb = gcd(*a.values()), gcd(*b.values())
    content = gcd(ca, cb)
    if len(a) == 1 and 0 in a or len(b) == 1 and 0 in b:
        return {0: content}
    if ca != 1:
        a = {k: c // ca for k, c in a.items()}
    if cb != 1:
        b = {k: c // cb for k, c in b.items()}
    v, rest = vs[-1], vs[:-1]
    shift, unit = _field(nvars, v)
    da = max(k >> shift & _FIELD_MASK for k in a)
    db = max(k >> shift & _FIELD_MASK for k in b)
    degree, top = max(da, db), min(da, db)
    top_total = min(max(a), max(b)) >> _FIELD * nvars
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 29
    dividends = None
    for _ in range(_HEU_TRIES):
        if xi.bit_length() * degree > _HEU_MAX_BITS:
            return None
        powers = [1]
        for _ in range(degree):
            powers.append(powers[-1] * xi)
        ia, ib = _image(a, shift, unit, powers), _image(b, shift, unit, powers)
        if ia and ib:
            gamma = _heu_gcd(ia, ib, nvars, rest)
            if gamma is None:
                return None
            h = _interpolate(gamma, xi, unit, top)
            if h is not None and max(h) >> _FIELD * nvars <= top_total:
                if len(h) == 1 and 0 in h:
                    return {0: content}
                ch = gcd(*h.values())
                if ch != 1:
                    h = {k: c // ch for k, c in h.items()}
                divisor = Polynomial._make(nvars, h)
                dividends = dividends or [Polynomial._make(nvars, p) for p in (a, b)]
                if _divides(divisor, *dividends):
                    return h if content == 1 else {k: c * content for k, c in h.items()}
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


def _image(nums: Dict[int, int], shift: int, unit: int, powers: list) -> Dict[int, int]:
    """Numerators at x_v = xi, given the field offset and the key of x_v
    and the powers of xi."""
    out: Dict[int, int] = {}
    get = out.get
    for key, c in nums.items():
        d = key >> shift & _FIELD_MASK
        if d:
            key -= d * unit
            c *= powers[d]
        out[key] = get(key, 0) + c
    return {k: c for k, c in out.items() if c}


def _interpolate(gamma: Dict[int, int], xi: int, unit: int,
                 top: int) -> Dict[int, int] | None:
    """The numerators whose value at x_v = xi is gamma, each in
    (-xi/2, xi/2]; None if the degree in x_v would pass ``top``.  ``unit``
    is the key of x_v."""
    half = xi // 2
    out: Dict[int, int] = {}
    for key, c in gamma.items():
        d = 0
        while c:
            r = c % xi
            if r > half:
                r -= xi
            if r:
                if d > top:
                    return None
                out[key + d * unit] = r
            c = (c - r) // xi
            d += 1
    return out


def _divides(d: Polynomial, *ps: Polynomial) -> bool:
    """True when ``exact_div`` shows that d divides every p."""
    try:
        for p in ps:
            p.exact_div(d)
    except ValueError:
        return False
    return True


def _univariate_gcd(a: Polynomial, b: Polynomial, v: int) -> Polynomial:
    """Monic gcd of a and b, which use no coordinate but x_v: the primitive
    PRS on their dense integer coefficient lists, lowest degree first; a
    list holds one entry per degree, so at most MAX_DEGREE + 1."""
    unit = _field(a.nvars, v)[1]
    f, g = sorted(([p.nums.get(d * unit, 0) for d in range(_degree_in(p, v) + 1)]
                   for p in (a, b)), key=len, reverse=True)
    while len(g) > 1:
        # lead^(m+1)·f = q·g + r with q and r over the integers, m = deg f -
        # deg g, so each quotient coefficient divides exactly and a step
        # touches only the len(g) entries under g
        lead, width = g[-1], len(g) - 1
        scale = lead ** (len(f) - width)
        f = [x * scale for x in f]
        for top in range(len(f) - 1, width - 1, -1):
            c = f[top] // lead
            if c:
                for i, y in enumerate(g[:-1], top - width):
                    f[i] -= c * y
        del f[width:]
        while f and not f[-1]:
            f.pop()
        content = gcd(*f)
        f, g = g, [x // content for x in f]
    if g:
        return _one(a.nvars)
    return _monic(Polynomial._make(a.nvars, {d * unit: c for d, c in enumerate(f) if c}))


def _at(p: Polynomial, v: int, powers: list) -> Polynomial:
    """p at x_v = powers[1], given the powers of that value."""
    shift, unit = _field(p.nvars, v)
    return Polynomial._make(p.nvars, _image(p.nums, shift, unit, powers), p.den)


def _interpolated_gcd(a: Polynomial, b: Polynomial, v: int) -> Polynomial:
    """Monic gcd of a and b by evaluation at x_v = 1, 2, 3, ... and Newton
    interpolation in x_v over Q (Brown, JACM 1971), with ``poly_gcd`` on
    each pair of images, which use one coordinate fewer.

    If the input with fewer terms divides the other, it is the gcd.  Else
    write a as a polynomial in the other coordinates over Q[x_v]; its
    coefficients are its groups (``_groups``), and their gcd is its content
    in x_v.  Divide a and b by their contents, and let γ be the gcd of their
    leading groups (grlex on the other coordinates).  The leading group L of
    G = gcd(a, b) divides γ, so T = (γ/L)·G has leading group γ and degree
    at most deg γ + min(deg_v a, deg_v b) in x_v; one point more fixes it.

    At α with γ(α) ≠ 0, L(α) ≠ 0, so G(α) keeps its degree and divides I,
    the monic gcd of the images: a constant I proves G = 1, and I has G's
    degree exactly when T(α) = γ(α)·I.  So a point of higher degree than
    the least seen is skipped, and one of lower degree restarts.

    Let H be the interpolant divided by its content in x_v.  If exact_div
    shows that H divides a and b, then H divides G with at least its degree
    in the other coordinates, so G/H lies in Q[x_v] and divides the content
    of a, which is 1.  Interpolation stops at the bound, or early when a
    point leaves the interpolant unchanged; only finitely many α are
    unlucky or leave it unchanged, and a round that reaches the bound
    unproven had only unlucky points and starts over.  So an unlucky point
    costs points, never an answer.
    """
    small, big = (a, b) if len(a.nums) <= len(b.nums) else (b, a)
    if _divides(small, big):
        return _monic(small)
    n, unit = a.nvars, _field(a.nvars, v)[1]
    ga, gb = _groups(a, v), _groups(b, v)
    ca, cb = _content(ga.values()), _content(gb.values())
    a, b = a.exact_div(ca), b.exact_div(cb)
    gamma = poly_gcd(ga[max(ga)].exact_div(ca), gb[max(gb)].exact_div(cb))
    content = poly_gcd(ca, cb)
    da, db = _degree_in(a, v), _degree_in(b, v)
    bound = _degree_in(gamma, v) + min(da, db) + 1
    lowest, k, alpha = MAX_DEGREE + 1, 0, 0
    while True:
        alpha += 1
        powers = [alpha ** d for d in range(max(da, db, bound) + 1)]
        scale = _at(gamma, v, powers)
        if not scale.nums:
            continue
        image = poly_gcd(_at(a, v, powers), _at(b, v, powers))
        if image.is_constant():
            return content
        degree = image.total_degree()
        if degree > lowest:
            continue
        if degree < lowest or k == bound:
            lowest, h, q, k = degree, Polynomial.zero(n), _one(n), 0
        # Newton's step: q vanishes at the points so far
        change = image._times(scale.nums[0], scale.den) - _at(h, v, powers)
        if change.nums:
            h = h + change * q._times(1, _at(q, v, powers).nums[0])
        q = q * Polynomial._make(n, {unit: 1, 0: -alpha})
        k += 1
        if k == bound or not change.nums:
            cand = h.exact_div(_content(_groups(h, v).values()))
            if _divides(cand, a, b):
                return _monic(content * cand)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd in Q[x1..xn]: GCDHEU, else interpolation one variable at a
    time.

    GCDHEU (Char, Geddes and Gonnet, JSC 1989) works on A and B, the
    primitive integer parts of a and b.  For a variable v that A or B uses,
    take an integer xi >= 2·min(|A|∞, |B|∞) + 29, take gamma = gcd(A(x_v =
    xi), B(x_v = xi)) by the same method in one variable fewer (an integer
    gcd once no variable is left), and rebuild H from gamma xi-adically with
    symmetric remainders, so that H(x_v = xi) = gamma.  The theorem of CGG
    says: if the primitive part of H divides both A and B, it is their gcd.
    So ``_heu_gcd`` returns a candidate only after ``exact_div`` proves that
    it divides both inputs; a constant candidate needs no division, since 1
    divides everything, and certifies the pair coprime.  Each level returns
    a proven gcd, with its integer content, so the gamma that the theorem
    needs is the true gcd of the images.

    After ``_HEU_TRIES`` points, or when an image would grow past
    ``_HEU_MAX_BITS``, the heuristic gives up.  A pair in one variable then
    takes ``_univariate_gcd``; any other is interpolated in the x_v of least
    min(deg_v a, deg_v b), lowest index first (``_interpolated_gcd``).
    """
    if a.nvars != b.nvars:
        raise ValueError("dimension mismatch in gcd")
    if a.is_zero():
        return _monic(b)
    if b.is_zero():
        return _monic(a)
    if a.is_constant() or b.is_constant():
        return Polynomial.constant(a.nvars, 1)
    if a.nums.keys() == b.nums.keys() and _monic(a) == _monic(b):
        return _monic(a)
    if len(a.nums) == 1 or len(b.nums) == 1:
        return _monomial_gcd(a, b)
    used_a, used_b = _variables_used(a), _variables_used(b)
    if not used_a & used_b:
        return Polynomial.constant(a.nvars, 1)
    used = used_a | used_b
    g = _heu_gcd(a.nums, b.nums, a.nvars, sorted(used))
    if g is not None:
        if len(g) == 1 and 0 in g:
            return _one(a.nvars)
        return _monic(Polynomial._make(a.nvars, g))
    if len(used) == 1:
        return _univariate_gcd(a, b, *used)
    v = min(used, key=lambda i: (min(_degree_in(a, i), _degree_in(b, i)), i))
    return _interpolated_gcd(a, b, v)


def poly_lcm(a: Polynomial, b: Polynomial) -> Polynomial:
    if a.is_zero() or b.is_zero():
        return Polynomial.zero(a.nvars)
    return _monic(a * b.exact_div(poly_gcd(a, b)))


def common_denominator(nvars: int, coeffs: Sequence[RationalFunc]
                       ) -> Tuple[Polynomial, list]:
    """(D, numerators) with coeffs[i] == numerators[i] / D and every
    numerator over the integers.

    D is the lcm of the denominators with integer numerators (``3x + 1``,
    not the monic ``x + 1/3``), times the least positive integer that
    leaves every numerator integral.  The cofactor D/d of each distinct
    denominator d takes one exact division, and no gcd beyond the lcm's.
    """
    cofactors = {c.den: None for c in coeffs if not c.den.is_one()}
    common = _one(nvars)
    for d in cofactors:
        common = poly_lcm(common, d)
    common = Polynomial._make(nvars, common.nums)  # over the integers
    for d in cofactors:
        cofactors[d] = common.exact_div(d)
    numerators = [c.num * (common if c.den.is_one() else cofactors[c.den])
                  for c in coeffs]
    # in lowest terms, a numerator times L is integral when its den divides L
    scale = lcm(*(p.den for p in numerators))
    if scale == 1:
        return common, numerators
    return (common._times(scale, 1),
            [p._times(scale, 1) for p in numerators])


# (denominator, index) -> (h, e, d·h, content of d in x_index) for the
# quotient rule in ``RationalFunc.diff``; bounded, and emptied by
# ``clear_quotient_memo`` (the CLI does so once per command)
QUOTIENT_MEMO_SIZE = 256
_QUOTIENT_MEMO: Dict[Tuple[Polynomial, int], tuple] = {}


def clear_quotient_memo() -> None:
    _QUOTIENT_MEMO.clear()


@functools.cache
def _one(nvars: int) -> Polynomial:
    """The constant 1 in ``nvars`` variables: one shared instance per
    dimension, which is safe because polynomials are never mutated."""
    return Polynomial._make(nvars, {0: 1})


class RationalFunc:
    """Quotient of polynomials in canonical form.

    Invariants: the denominator is non-zero and monic (graded-lex leading
    coefficient one) and shares no factor with the numerator, so structural
    equality coincides with equality of rational functions.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        if den is None:
            self.num = num
            self.den = _one(num.nvars)
            return
        if num.nvars != den.nvars:
            raise ValueError("dimension mismatch between numerator and denominator")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not (num.is_zero() or den.is_constant()):
            g = poly_gcd(num, den)
            if not g.is_constant():
                num = num.exact_div(g)
                den = den.exact_div(g)
        canonical = RationalFunc._raw(num, den)
        self.num = canonical.num
        self.den = canonical.den

    # -- constructors -------------------------------------------------------

    @classmethod
    def _raw(cls, num: Polynomial, den: Polynomial) -> "RationalFunc":
        """Build from an already-coprime pair, fixing only the monic scaling."""
        if not num.nums or den.is_one():
            return cls._poly(num)
        lc = den.nums[max(den.nums)]
        if lc != den.den:
            num = num._times(den.den, lc)
            den = den._times(den.den, lc)
        return cls._over(num, den)

    @classmethod
    def _poly(cls, num: Polynomial) -> "RationalFunc":
        """``num`` over the shared constant 1, for callers that know the
        denominator is 1 or the numerator is zero."""
        return cls._over(num, _one(num.nvars))

    @classmethod
    def _over(cls, num: Polynomial, den: Polynomial) -> "RationalFunc":
        """num/den for a pair already in canonical form."""
        out = object.__new__(cls)
        out.num = num
        out.den = den
        return out

    @classmethod
    def zero(cls, nvars: int) -> "RationalFunc":
        return cls._poly(Polynomial.zero(nvars))

    @classmethod
    def constant(cls, nvars: int, value) -> "RationalFunc":
        return cls(Polynomial.constant(nvars, value))

    @classmethod
    def variable(cls, nvars: int, index: int) -> "RationalFunc":
        return cls(Polynomial.variable(nvars, index))

    # -- predicates ---------------------------------------------------------

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_one()

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "RationalFunc") -> "RationalFunc":
        a, b = self.num, self.den
        c, d = other.num, other.den
        b_one, d_one = b.is_one(), d.is_one()
        if b_one and d_one:
            return RationalFunc._poly(a + c)
        # a polynomial p plus n/d is (n + p·d)/d: gcd(n + p·d, d) = gcd(n, d)
        if b_one:
            return RationalFunc._over(c + a * d, d)
        if d_one:
            return RationalFunc._over(a + c * b, b)
        if b == d:
            num = a + c
            if not num.nums:
                return RationalFunc._poly(num)
            g = poly_gcd(num, b)
            if g.is_constant():
                return RationalFunc._raw(num, b)
            return RationalFunc._raw(num.exact_div(g), b.exact_div(g))
        # with coprime inputs, any common factor of the sum divides gcd(b, d),
        # which is 1 when b and d are distinct monic linear polynomials
        if (b.total_degree() == 1 == d.total_degree()
                or (g := poly_gcd(b, d)).is_constant()):
            return RationalFunc._raw(a * d + c * b, b * d)
        d_red = d.exact_div(g)
        num = a * d_red + c * b.exact_div(g)
        if not num.nums:
            return RationalFunc._poly(num)
        den = b * d_red
        g2 = poly_gcd(num, g)
        if g2.is_constant():
            return RationalFunc._raw(num, den)
        return RationalFunc._raw(num.exact_div(g2), den.exact_div(g2))

    def __sub__(self, other: "RationalFunc") -> "RationalFunc":
        return self + (-other)

    def __neg__(self) -> "RationalFunc":
        return RationalFunc._over(-self.num, self.den)

    def __mul__(self, other: "RationalFunc") -> "RationalFunc":
        a, b = self.num, self.den
        c, d = other.num, other.den
        if not a.nums:
            return self
        if not c.nums:
            return other
        b_one, d_one = b.is_one(), d.is_one()
        # a product of polynomials, or a constant k times n/d, which is
        # (k·n)/d, already coprime and monic
        if b_one and (d_one or a.is_constant()):
            return RationalFunc._over(a * c, d)
        if d_one and c.is_constant():
            return RationalFunc._over(a * c, b)
        # cross-cancel: inputs are coprime pairs, so the result is too
        if not (d_one or a.is_constant()):
            g1 = poly_gcd(a, d)
            if not g1.is_constant():
                a = a.exact_div(g1)
                d = d.exact_div(g1)
        if not (b_one or c.is_constant()):
            g2 = poly_gcd(c, b)
            if not g2.is_constant():
                c = c.exact_div(g2)
                b = b.exact_div(g2)
        return RationalFunc._raw(a * c, b * d)

    def __truediv__(self, other: "RationalFunc") -> "RationalFunc":
        return self * other.inverse()

    def inverse(self) -> "RationalFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RationalFunc._raw(self.den, self.num)

    def scale(self, value) -> "RationalFunc":
        n, d = _exact(value)
        if not n:
            return RationalFunc.zero(self.nvars)
        return RationalFunc._over(self.num._times(n, d), self.den)

    def __pow__(self, exponent: int) -> "RationalFunc":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return RationalFunc._over(self.num ** exponent, self.den ** exponent)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    # -- calculus -----------------------------------------------------------

    def diff(self, index: int) -> "RationalFunc":
        """Partial derivative in x_i, i = ``index``, without a gcd against d².

        With f = n/d in normal form, g = gcd(d, ∂d), h = d/g and e = ∂d/g
        (∂ = ∂/∂x_i), the quotient rule (n'd - n∂d)/d² is

            f' = (n'h - n e) / (d h).

        An irreducible factor p of d that involves x_i, with multiplicity m,
        divides ∂d exactly m-1 times (in characteristic 0, p ∤ ∂p), so p^(m-1)
        is its power in g: p | h, p ∤ e, and p ∤ n since n/d is reduced; hence
        p ∤ n'h - n e.  A factor of d free of x_i divides ∂d at least as often
        as it divides d, so g takes all of it and h none.  The numerator and
        d h can therefore share only factors free of x_i, and those all divide
        c, the content of d in x_i: one gcd with c finishes the normal form.
        h, e, d h and c depend on (d, i) only and are memoised by it.
        """
        num, den = self.num, self.den
        if den.is_one():
            return RationalFunc._poly(num.diff(index))
        parts = _QUOTIENT_MEMO.get((den, index))
        if parts is None:
            dden = den.diff(index)
            g = poly_gcd(den, dden)
            h = den.exact_div(g)
            parts = (h, dden.exact_div(g), den * h,
                     _content(_split_by_variable(den, index).values()))
            if len(_QUOTIENT_MEMO) >= QUOTIENT_MEMO_SIZE:
                _QUOTIENT_MEMO.clear()
            _QUOTIENT_MEMO[(den, index)] = parts
        h, e, bottom, c = parts
        top = num.diff(index) * h - num * e
        if not top.nums:
            return RationalFunc._poly(top)
        if not c.is_one():
            shared = poly_gcd(top, c)
            if not shared.is_one():
                top = top.exact_div(shared)
                bottom = bottom.exact_div(shared)
        return RationalFunc._raw(top, bottom)

    def evaluate(self, point: Sequence) -> Fraction:
        dv = self.den.evaluate(point)
        if dv == 0:
            raise ZeroDivisionError(f"pole at {tuple(point)}")
        return self.num.evaluate(point) / dv

    def to_string(self, names: Sequence[str]) -> str:
        if self.den.is_one():
            return self.num.to_string(names)
        return f"({self.num.to_string(names)})/({self.den.to_string(names)})"

    def __repr__(self) -> str:
        return f"RationalFunc({self.to_string([f'x{i + 1}' for i in range(self.nvars)])})"
