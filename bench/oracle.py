"""Exact reference computations that share no code with mvcurl.

The benchmark checks every mvcurl output against these, after timing:

* a forward-mode dual-number evaluator over ``Fraction`` that evaluates the
  generating formula of an input, and its gradient, at a rational point;
* the curl ``sharp . d . flat`` written out per component, so curl values and
  transport-equation residuals can be evaluated at seeded points;
* closed forms for the dimension of curl-free polynomial k-vectors and for the
  Casimir counts of the three Lie-Poisson structures.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Dict, List, Sequence, Tuple

# -- dual numbers ------------------------------------------------------------


class Dual:
    """A value together with its exact gradient at one point."""

    __slots__ = ("val", "grad")

    def __init__(self, val, grad: Sequence[Fraction]):
        self.val = Fraction(val)
        self.grad = tuple(grad)

    @classmethod
    def const(cls, value, n: int) -> "Dual":
        return cls(value, (Fraction(0),) * n)

    @classmethod
    def var(cls, value, index: int, n: int) -> "Dual":
        return cls(value, tuple(Fraction(int(i == index)) for i in range(n)))

    def __add__(self, o: "Dual") -> "Dual":
        return Dual(self.val + o.val, [a + b for a, b in zip(self.grad, o.grad)])

    def __mul__(self, o: "Dual") -> "Dual":
        return Dual(self.val * o.val,
                    [self.val * b + o.val * a for a, b in zip(self.grad, o.grad)])

    def __truediv__(self, o: "Dual") -> "Dual":
        if o.val == 0:
            raise ZeroDivisionError("dual division by a zero value")
        v2 = o.val * o.val
        return Dual(self.val / o.val,
                    [(a * o.val - self.val * b) / v2
                     for a, b in zip(self.grad, o.grad)])

    def __pow__(self, k: int) -> "Dual":
        if k < 0:
            return Dual.const(1, len(self.grad)) / self ** (-k)
        if k == 0:
            return Dual.const(1, len(self.grad))
        scale = k * self.val ** (k - 1)
        return Dual(self.val ** k, [scale * a for a in self.grad])


# -- generating formulas -----------------------------------------------------
#
# A formula is a nested tuple: ("var", i), ("num", int), ("ref", name),
# ("add", a, b), ("mul", a, b), ("div", a, b), ("pow", a, k).
# ``render`` writes the mvcurl document syntax for it and ``evaluate`` its
# dual value, so the document and the reference come from one formula.


def render(expr, names: Sequence[str]) -> str:
    tag = expr[0]
    if tag == "var":
        return names[expr[1]]
    if tag == "num":
        return str(expr[1]) if expr[1] >= 0 else f"({expr[1]})"
    if tag == "ref":
        return expr[1]
    if tag == "pow":
        return f"({render(expr[1], names)})^{expr[2]}"
    op = {"add": "+", "mul": "*", "div": "/"}[tag]
    return f"({render(expr[1], names)} {op} {render(expr[2], names)})"


def evaluate(expr, point: Sequence[Fraction], env: Dict[str, object]) -> Dual:
    n = len(point)
    tag = expr[0]
    if tag == "var":
        return Dual.var(point[expr[1]], expr[1], n)
    if tag == "num":
        return Dual.const(expr[1], n)
    if tag == "ref":
        return evaluate(env[expr[1]], point, env)
    if tag == "pow":
        return evaluate(expr[1], point, env) ** expr[2]
    a = evaluate(expr[1], point, env)
    b = evaluate(expr[2], point, env)
    if tag == "add":
        return a + b
    if tag == "mul":
        return a * b
    return a / b


def linear(coeffs: Sequence[int], const: int = 0):
    """Formula of sum_i coeffs[i] * x_i + const, skipping zero terms."""
    terms = [("mul", ("num", c), ("var", i)) for i, c in enumerate(coeffs) if c]
    if const:
        terms.append(("num", const))
    out = terms[0] if terms else ("num", 0)
    for t in terms[1:]:
        out = ("add", out, t)
    return out


# -- sparse polynomials (for degrees of generated numerators) -----------------

Poly = Dict[Tuple[int, ...], Fraction]


def poly_of(expr, n: int, env: Dict[str, object]) -> Poly:
    """Expand a division-free formula into a sparse polynomial."""
    tag = expr[0]
    if tag == "var":
        e = [0] * n
        e[expr[1]] = 1
        return {tuple(e): Fraction(1)}
    if tag == "num":
        return {(0,) * n: Fraction(expr[1])} if expr[1] else {}
    if tag == "ref":
        return poly_of(env[expr[1]], n, env)
    if tag == "pow":
        base = poly_of(expr[1], n, env)
        out: Poly = {(0,) * n: Fraction(1)}
        for _ in range(expr[2]):
            out = _poly_mul(out, base)
        return out
    a = poly_of(expr[1], n, env)
    b = poly_of(expr[2], n, env)
    if tag == "mul":
        return _poly_mul(a, b)
    if tag == "add":
        out = dict(a)
        for e, c in b.items():
            out[e] = out.get(e, Fraction(0)) + c
        return {e: c for e, c in out.items() if c}
    raise ValueError("division in a polynomial formula")


def _poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def poly_degree(p: Poly) -> int:
    return max((sum(e) for e in p), default=-1)


# -- mvcurl JSON values --------------------------------------------------------


def json_poly_dual(terms: List[dict], point: Sequence[Fraction]) -> Dual:
    """Value and gradient of a JSON term list (``exps``/``coeff`` items)."""
    n = len(point)
    total = Dual.const(0, n)
    for item in terms:
        term = Dual.const(Fraction(item["coeff"]), n)
        for i, e in enumerate(item["exps"]):
            if e:
                term = term * Dual.var(point[i], i, n) ** e
        total = total + term
    return total


def json_func_dual(value: dict, point: Sequence[Fraction]) -> Dual:
    """Dual value of a JSON rational function ``{"num": .., "den": ..}``."""
    return json_poly_dual(value["num"], point) / json_poly_dual(value["den"], point)


def json_mv_values(payload: dict, point: Sequence[Fraction]) -> Dict[int, Fraction]:
    """Blade mask -> coefficient value of a JSON multivector at a point."""
    out = {}
    for item in payload["terms"]:
        mask = sum(1 << (i - 1) for i in item["blade"])
        val = json_func_dual(item["coeff"], point).val
        if val:
            out[mask] = val
    return out


# -- operators at a point --------------------------------------------------------


def curl_at(components: Dict[int, Dual]) -> Dict[int, Fraction]:
    """Curl against the unit volume at a point, from the components' dual values.

    For the unit volume dx1..dxn, sharp . d . flat gives
        curl(A)^{I-i} = sum_{i in I} (-1)^{#{j in I, j > i}} d_i A^I,
    the right contraction of the gradient into each blade.
    """
    out: Dict[int, Fraction] = {}
    for mask, coeff in components.items():
        i = 0
        while mask >> i:
            if (mask >> i) & 1:
                sign = -1 if bin(mask >> (i + 1)).count("1") % 2 else 1
                rest = mask & ~(1 << i)
                out[rest] = out.get(rest, Fraction(0)) + sign * coeff.grad[i]
            i += 1
    return {m: v for m, v in out.items() if v}


def hamiltonian_at(bivector: Dict[int, Dual], f: Dual) -> List[Fraction]:
    """Components sum_j pi^{ij} d_j f; zero exactly where f is Casimir-like.

    The overall sign convention does not matter for the zero tests it serves.
    """
    field = [Fraction(0)] * len(f.grad)
    for mask, coeff in bivector.items():
        i = (mask & -mask).bit_length() - 1
        j = mask.bit_length() - 1
        field[i] += coeff.val * f.grad[j]
        field[j] -= coeff.val * f.grad[i]
    return field


# -- closed forms -------------------------------------------------------------------


def closed_forms_dim(n: int, p: int, j: int) -> int:
    """Dimension of closed polynomial p-forms on R^n with homogeneous degree j.

    The polynomial de Rham complex is exact above degree 0, so
    Z^p_j = C(n, p-1) * C(j+n, n-1) - Z^{p-1}_{j+1} and Z^0_j = [j = 0].
    """
    if p == 0:
        return int(j == 0)
    return comb(n, p - 1) * comb(j + n, n - 1) - closed_forms_dim(n, p - 1, j + 1)


def curl_free_dim(n: int, k: int, max_degree: int) -> int:
    """Curl-free polynomial k-vectors of degree <= max_degree, constant volume."""
    return sum(closed_forms_dim(n, n - k, j) for j in range(max_degree + 1))


def casimir_count(algebra: str, max_degree: int) -> int:
    """Polynomial Casimirs of degree <= max_degree: functions of the quadratic
    Casimir for so(3) and sl(2), of the central coordinate for Heisenberg."""
    if algebra in ("so3", "sl2"):
        return max_degree // 2 + 1
    if algebra == "heisenberg":
        return max_degree + 1
    raise ValueError(f"unknown algebra {algebra!r}")
