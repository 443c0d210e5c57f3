"""Exact sparse multivariate polynomials and rational functions over the rationals.

A polynomial in n coordinates is stored as integer numerators over one
positive integer denominator: ``nums`` maps exponent tuples to non-zero
``int`` numerators, ``den`` is a positive ``int``, and the pair is kept in
lowest terms, ``gcd(den, *nums.values()) == 1``.  That form is canonical, so
equality and hashing are structural, and the arithmetic runs on ints only;
``terms`` is a read-only ``{exponent tuple: Fraction}`` view of the same
coefficients, built on demand for readers outside the ring.  Rational
functions are kept in canonical form: numerator and denominator coprime,
denominator monic with respect to the graded lexicographic term order.
Two equal fractions therefore always have identical representations, so
every identity check in the rest of the package is a strict equality.

``Polynomial(nvars, terms)`` checks exponents and converts coefficients
(ints, ``Fraction`` or other exact rationals; floats are refused), for input
from outside the package; arithmetic results go through the trusted
``Polynomial._make``, which skips those checks and only brings the
numerators and the denominator to lowest terms.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Sequence, Tuple

Exponent = Tuple[int, ...]

_add = operator.add
_sub = operator.sub


def grlex_key(exponents: Exponent) -> tuple:
    """Sort key for the graded lexicographic order (total degree first)."""
    return (sum(exponents), exponents)


def _exact(value) -> Tuple[int, int]:
    """``value`` as (numerator, positive denominator) in lowest terms; floats
    and complex numbers are refused, since a binary float is rarely the
    rational its digits show."""
    if type(value) is int:
        return value, 1
    if isinstance(value, (float, complex)):
        raise TypeError(f"inexact coefficient {value!r}: "
                        "use an int, a Fraction or a string such as '1/10'")
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
        clean: Dict[Exponent, Tuple[int, int]] = {}
        for exps, coeff in (terms or {}).items():
            if len(exps) != nvars:
                raise ValueError(
                    f"exponent tuple {exps} does not match {nvars} variables")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            n, d = _exact(coeff)
            if n:
                clean[tuple(exps)] = n, d
        # over the lcm of reduced denominators the numerators share no
        # factor with it, so the pair is already in lowest terms
        den = lcm(*(d for _, d in clean.values()))
        self.nvars = nvars
        self.nums = {e: n * (den // d) for e, (n, d) in clean.items()}
        self.den = den

    @classmethod
    def _make(cls, nvars: int, nums: Dict[Exponent, int], den: int = 1) -> "Polynomial":
        """Trusted constructor for ring results: exponent tuples of length
        ``nvars``, non-zero int numerators and a positive int ``den``; one gcd
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
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value) -> "Polynomial":
        """The constant ``value``; the int 1 gives the shared ``_one``."""
        if type(value) is int and value == 1 and nvars >= 0:
            return _one(nvars)
        return cls.monomial(nvars, (0,) * nvars, value)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): 1})

    @classmethod
    def monomial(cls, nvars: int, exps: Exponent, coeff=1) -> "Polynomial":
        n, d = _exact(coeff)
        if nvars < 0 or len(exps) != nvars or min(exps, default=0) < 0:
            return cls(nvars, {tuple(exps): n})  # raises the constructor's error
        return cls._make(nvars, {tuple(exps): n} if n else {}, d)

    # -- views --------------------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponent, Fraction]:
        """Read-only ``{exponent tuple: Fraction}`` view of the coefficients."""
        den = self.den
        return MappingProxyType({e: Fraction(c, den) for e, c in self.nums.items()})

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        nums = self.nums
        return not nums or (len(nums) == 1 and not any(next(iter(nums))))

    def is_one(self) -> bool:
        return (self.den == 1 and len(self.nums) == 1
                and self.nums.get((0,) * self.nvars) == 1)

    def constant_value(self) -> Fraction:
        """Value of a constant polynomial (raises if non-constant)."""
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(sum(self.nums.values()), self.den)

    def total_degree(self) -> int:
        """Total degree; zero polynomial reports -1."""
        if not self.nums:
            return -1
        return max(sum(e) for e in self.nums)

    # -- term order ---------------------------------------------------------

    def leading_exponent(self) -> Exponent:
        if not self.nums:
            raise ValueError("zero polynomial has no leading term")
        return max(self.nums, key=grlex_key)

    def leading_coefficient(self) -> Fraction:
        return Fraction(self.nums[self.leading_exponent()], self.den)

    def sorted_terms(self) -> list:
        """Terms in descending graded lexicographic order (leading first)."""
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

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
        for exps, c in items:
            out[exps] = op(get(exps, 0), c)
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
        out: Dict[Exponent, int] = {}
        get = out.get
        right = other.nums.items()
        for ea, ca in self.nums.items():
            for eb, cb in right:
                e = tuple(map(_add, ea, eb))
                out[e] = get(e, 0) + ca * cb
        return Polynomial._make(self.nvars, {e: c for e, c in out.items() if c},
                                self.den * other.den)

    def _times(self, p: int, q: int) -> "Polynomial":
        """self * p / q for non-zero ints p and q."""
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
        result = Polynomial.constant(self.nvars, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

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
        if not 0 <= index < self.nvars:
            raise ValueError(f"coordinate index {index} out of range")
        out: Dict[Exponent, int] = {}
        for exps, c in self.nums.items():
            k = exps[index]
            if k:
                e = list(exps)
                e[index] = k - 1
                out[tuple(e)] = c * k
        return Polynomial._make(self.nvars, out, self.den)

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact value at a rational point; float coordinates are refused."""
        values = [Fraction(*_exact(v)) for v in point]
        if len(values) != self.nvars:
            raise ValueError("point dimension does not match variable count")
        total = Fraction(0)
        for exps, c in self.nums.items():
            term = Fraction(c)
            for e, v in zip(exps, values):
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
        a remainder proves the division inexact.
        """
        self._check(divisor)
        if not divisor.nums:
            raise ZeroDivisionError("division by the zero polynomial")
        if divisor.is_constant():
            return self._times(divisor.den, sum(divisor.nums.values()))
        content = gcd(*divisor.nums.values())
        lead_e = divisor.leading_exponent()
        lead_c = divisor.nums[lead_e] // content
        tail = [(e, c // content) for e, c in divisor.nums.items() if e != lead_e]
        # reduce one remainder dict in place; each step cancels its leading
        # term, so the quotient exponents come out distinct and descending
        rem = dict(self.nums)
        quotient: Dict[Exponent, int] = {}
        get = rem.get
        while rem:
            re = max(rem, key=grlex_key)
            qe = tuple(map(_sub, re, lead_e))
            qc, r = divmod(rem.pop(re), lead_c)
            if r or min(qe) < 0:
                raise ValueError("inexact polynomial division")
            quotient[qe] = qc
            for e, c in tail:
                m = tuple(map(_add, e, qe))
                v = get(m, 0) - qc * c
                if v:
                    rem[m] = v
                else:
                    del rem[m]
        b = divisor.den
        if b != 1:
            quotient = {e: c * b for e, c in quotient.items()}
        return Polynomial._make(self.nvars, quotient, self.den * content)

    def to_string(self, names: Sequence[str]) -> str:
        """Deterministic rendering, terms in descending graded-lex order."""
        if not self.nums:
            return "0"
        if len(names) != self.nvars:
            raise ValueError("name list does not match variable count")
        pieces = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            pieces.append(("-" if coeff < 0 else "+", body))
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
    lc = p.nums[p.leading_exponent()]
    return p if lc == p.den else p._times(p.den, lc)


def _variables_used(p: Polynomial) -> set:
    used = set()
    for exps in p.nums:
        for i, e in enumerate(exps):
            if e:
                used.add(i)
    return used


def _degree_in(p: Polynomial, v: int) -> int:
    return max(exps[v] for exps in p.nums)


def _split_by_variable(p: Polynomial, v: int) -> Dict[int, Polynomial]:
    """View p as univariate in coordinate v with polynomial coefficients."""
    buckets: Dict[int, Dict[Exponent, int]] = {}
    for exps, c in p.nums.items():
        d = exps[v]
        rest = list(exps)
        rest[v] = 0
        buckets.setdefault(d, {})[tuple(rest)] = c
    return {d: Polynomial._make(p.nvars, t, p.den) for d, t in buckets.items()}


def _join_by_variable(coeffs: Dict[int, Polynomial], v: int, nvars: int) -> Polynomial:
    den = lcm(*(poly.den for poly in coeffs.values()))
    nums: Dict[Exponent, int] = {}
    for d, poly in coeffs.items():
        f = den // poly.den
        for exps, c in poly.nums.items():
            e = list(exps)
            e[v] = d
            nums[tuple(e)] = c * f
    return Polynomial._make(nvars, nums, den)


def _content(polys: Iterable[Polynomial]) -> Polynomial:
    ordered = sorted(polys, key=lambda p: len(p.nums))
    acc = ordered[0]
    for p in ordered[1:]:
        if acc.is_constant():
            break
        acc = poly_gcd(acc, p)
    return _monic(acc)


def _uni_prem(a: Dict[int, Polynomial], b: Dict[int, Polynomial]) -> Dict[int, Polynomial]:
    """Classical pseudo-remainder: lc(b)^(da-db+1) * a reduced by b."""
    db = max(b)
    lead_b = b[db]
    budget = max(a) - db + 1
    r = dict(a)
    while r and max(r) >= db:
        dr = max(r)
        lead_r = r[dr]
        nxt: Dict[int, Polynomial] = {}
        for d, c in r.items():
            if d != dr:
                nxt[d] = c * lead_b
        for d, c in b.items():
            if d == db:
                continue
            nd = d + dr - db
            t = lead_r * c
            prev = nxt.get(nd)
            nxt[nd] = (prev - t) if prev is not None else -t
        r = {d: c for d, c in nxt.items() if not c.is_zero()}
        budget -= 1
    if r and budget > 0:
        # pad skipped reduction steps so the subresultant divisions stay exact
        mult = lead_b ** budget
        r = {d: c * mult for d, c in r.items()}
    return r


def _subresultant_prs(pa: Dict[int, Polynomial], pb: Dict[int, Polynomial],
                      nvars: int) -> Dict[int, Polynomial]:
    """Last non-zero subresultant remainder of two primitive polynomials."""
    g = Polynomial.constant(nvars, 1)
    h = Polynomial.constant(nvars, 1)
    while True:
        delta = max(pa) - max(pb)
        rem = _uni_prem(pa, pb)
        if not rem:
            return pb
        divisor = g * h ** delta
        if divisor.is_one():
            nxt = rem
        else:
            nxt = {d: p.exact_div(divisor) for d, p in rem.items()}
        pa, pb = pb, nxt
        g = pa[max(pa)]
        if delta == 1:
            h = g
        elif delta > 1:
            h = (g ** delta).exact_div(h ** (delta - 1))


def _monomial_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    exps = [min(min(e[v] for e in a.nums), min(e[v] for e in b.nums))
            for v in range(a.nvars)]
    if not any(exps):
        return _one(a.nvars)
    return Polynomial.monomial(a.nvars, tuple(exps))


# the modulus of the coprime test's images (see ``poly_gcd``)
_PRIME = (1 << 61) - 1


def _terms_mod_p(p: Polynomial):
    """(exponents, coefficient mod _PRIME) pairs, or None if a coefficient's
    denominator vanishes mod _PRIME: _PRIME is prime, so that happens exactly
    when it divides the common denominator."""
    den = p.den % _PRIME
    if not den:
        return None
    inv = pow(den, -1, _PRIME) if den != 1 else 1
    return [(exps, c * inv % _PRIME) for exps, c in p.nums.items()]


def _image_mod_p(terms, v: int, degree: int) -> list:
    """Univariate image in x_v of degree at most ``degree``, the other
    coordinates set to 3 + 2i, as coefficients mod _PRIME by degree."""
    out = [0] * (degree + 1)
    for exps, value in terms:
        for i, e in enumerate(exps):
            if e and i != v:
                value = value * pow(3 + 2 * i, e, _PRIME) % _PRIME
        out[exps[v]] += value
    return [c % _PRIME for c in out]


def _uni_gcd_degree_mod_p(f: list, g: list) -> int:
    """Degree of gcd(f, g) in GF(_PRIME)[t]; both leading coefficients
    non-zero."""
    f, g = list(f), list(g)
    while g:
        inv = pow(g[-1], -1, _PRIME)
        while len(f) >= len(g):
            q = f[-1] * inv % _PRIME
            shift = len(f) - len(g)
            for j, c in enumerate(g):
                f[shift + j] = (f[shift + j] - q * c) % _PRIME
            while f and not f[-1]:
                f.pop()
        f, g = g, f
    return len(f) - 1


def _certified_coprime(a: Polynomial, b: Polynomial, common: set) -> bool:
    """True only if gcd(a, b) is constant; see ``poly_gcd``."""
    ta, tb = _terms_mod_p(a), _terms_mod_p(b)
    if ta is None or tb is None:
        return False
    for v in common:
        ia = _image_mod_p(ta, v, _degree_in(a, v))
        ib = _image_mod_p(tb, v, _degree_in(b, v))
        if not (ia[-1] and ib[-1]) or _uni_gcd_degree_mod_p(ia, ib) > 0:
            return False
    return True


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd in Q[x1..xn]: content recursion around a subresultant PRS.

    Before the PRS, a modular test (Brown's degree bound, J. ACM 18, 1971)
    returns 1 for most coprime pairs.  For each variable v that both inputs
    use, reduce a and b mod p = 2^61 - 1 with every other coordinate set to
    x_i = 3 + 2i, and take the gcd of the two univariate images.  It returns
    1 only if no coefficient denominator vanishes mod p and, for every v,
    both images keep their input's degree in v and the image gcd has degree 0:

    - Take G = gcd(a, b) primitive over the integers localised at p; the
      cofactors a/G and b/G are then p-integral too (Gauss's lemma).
    - lc_v(a) = lc_v(G)·lc_v(a/G), so if a's image keeps its degree in v,
      the image of G keeps G's degree in v.
    - The image of G divides both images, so a degree-0 image gcd means G
      is free of v.
    - G can only use variables that both inputs use, so G is constant.

    Any failed condition proves nothing and falls through to the PRS: it
    costs time, never correctness.
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
    common = _variables_used(a) & _variables_used(b)
    if not common or _certified_coprime(a, b, common):
        return Polynomial.constant(a.nvars, 1)
    v = min(common, key=lambda i: (min(_degree_in(a, i), _degree_in(b, i)),
                                   _degree_in(a, i) + _degree_in(b, i), i))
    ua = _split_by_variable(a, v)
    ub = _split_by_variable(b, v)
    cont_a = _content(ua.values())
    cont_b = _content(ub.values())
    cont_gcd = poly_gcd(cont_a, cont_b)
    if not cont_a.is_one():
        ua = {d: p.exact_div(cont_a) for d, p in ua.items()}
    if not cont_b.is_one():
        ub = {d: p.exact_div(cont_b) for d, p in ub.items()}
    if max(ua) < max(ub):
        ua, ub = ub, ua
    cand = _subresultant_prs(ua, ub, a.nvars)
    ccont = _content(cand.values())
    if not ccont.is_one():
        cand = {d: p.exact_div(ccont) for d, p in cand.items()}
    return _monic(cont_gcd * _join_by_variable(cand, v, a.nvars))


def poly_lcm(a: Polynomial, b: Polynomial) -> Polynomial:
    if a.is_zero() or b.is_zero():
        return Polynomial.zero(a.nvars)
    return _monic(a * b.exact_div(poly_gcd(a, b)))


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
    return Polynomial._make(nvars, {(0,) * nvars: 1})


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
        lc = den.nums[den.leading_exponent()]
        if lc != den.den:
            num = num._times(den.den, lc)
            den = den._times(den.den, lc)
        out = object.__new__(cls)
        out.num = num
        out.den = den
        return out

    @classmethod
    def _poly(cls, num: Polynomial) -> "RationalFunc":
        """``num`` over the shared constant 1, for callers that know the
        denominator is 1 or the numerator is zero."""
        out = object.__new__(cls)
        out.num = num
        out.den = _one(num.nvars)
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

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_one()

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("rational function is not constant")
        return self.num.constant_value()

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "RationalFunc") -> "RationalFunc":
        a, b = self.num, self.den
        c, d = other.num, other.den
        b_one, d_one = b.is_one(), d.is_one()
        if b_one and d_one:
            return RationalFunc._poly(a + c)
        if b == d:
            num = a + c
            if not num.nums:
                return RationalFunc._poly(num)
            g = poly_gcd(num, b)
            if g.is_constant():
                return RationalFunc._raw(num, b)
            return RationalFunc._raw(num.exact_div(g), b.exact_div(g))
        # with coprime inputs, any common factor of the sum divides gcd(b, d)
        g = None if b_one or d_one else poly_gcd(b, d)
        if g is None or g.is_constant():
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
        out = object.__new__(RationalFunc)
        out.num = -self.num
        out.den = self.den
        return out

    def __mul__(self, other: "RationalFunc") -> "RationalFunc":
        a, b = self.num, self.den
        c, d = other.num, other.den
        if not a.nums:
            return self
        if not c.nums:
            return other
        b_one, d_one = b.is_one(), d.is_one()
        if b_one and d_one:
            return RationalFunc._poly(a * c)
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
        out = object.__new__(RationalFunc)
        out.num = self.num._times(n, d)
        out.den = self.den
        return out

    def __pow__(self, exponent: int) -> "RationalFunc":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        out = object.__new__(RationalFunc)
        out.num = self.num ** exponent
        out.den = self.den ** exponent
        return out

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
