"""Text front end: a line-oriented declaration language for charts, scalar
functions, multivectors, forms, volumes, and Lie structure constants, plus
the canonical printer and a lossless JSON document format.

Grammar (one statement per line, `#` starts a comment):

    document  := chart_decl binding*
    chart_decl:= "chart" IDENT+
    binding   := ("func" | "mv" | "form" | "volume" | "lie") IDENT "=" expr
    expr      := additive; precedence  + -  <  ^^  <  * / juxtaposition  <  ^

`^` takes integer exponents and applies to scalars only; `^^` is the wedge.
Basis symbols e1..en are coordinate vector fields, d1..dn coordinate
differentials.  Division is restricted to scalar divisors.  Parentheses and
unary minus signs may nest at most MAX_NESTING deep; chains of binary
operators are unbounded.  A power whose expansion may exceed MAX_POWER_TERMS
terms, in its numerator or denominator, or whose coefficients may exceed
MAX_POWER_DIGITS digits, is refused before it is computed.  So is a number
literal longer than MAX_POWER_DIGITS digits, and a binding whose value has a
coefficient longer than that, since neither could be printed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm, log10
from typing import Dict, List, Optional, Sequence, Tuple, Union

from mvcurl.exterior import (
    Chart,
    DifferentialForm,
    Multivector,
    VolumeForm,
    blade_indices,
    wedge,
)
from mvcurl.poisson import StructureConstants
from mvcurl.ring import Polynomial, RationalFunc

__all__ = [
    "DslError",
    "Binding",
    "Document",
    "parse",
    "print_canonical",
    "document_to_json",
    "document_from_json",
    "value_to_json",
]

Value = Union[RationalFunc, Multivector, DifferentialForm]

_KEYWORDS = ("chart", "func", "mv", "form", "volume", "lie")
# parsing and evaluating take a few stack frames per level of parentheses or
# unary minus; this bound keeps both inside Python's default recursion limit
MAX_NESTING = 100
# expanding and printing a power costs about the square of its term count:
# (x+y+1)^43 has 990 terms, (x+y+1)^80 has 3321
MAX_POWER_TERMS = 1000
# Python's default limit on the digits of an int it converts to text: a
# coefficient past it could be computed but never printed
MAX_POWER_DIGITS = 4300
_DIGITS_BOUND = 10 ** MAX_POWER_DIGITS
_BASIS_RE = re.compile(r"^[ed]([0-9]+)$")
_TOKEN_RE = re.compile(
    r"[ \t]*(?:(?P<num>[0-9]+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\^\^|[-+*/^()=])"
    r"|(?P<bad>\S))")
# ``1e3`` reads as ``1`` times the basis vector ``e3``; refused as a likely
# misspelt scientific-notation number
_EXPONENT_RE = re.compile(r"[eE]([0-9]+)")
# longest exponent whose number an error message writes out in full
_SPELLED_EXPONENT = 12


class DslError(Exception):
    """Parse or validation failure, with source position when known."""

    def __init__(self, message: str, line: int | None = None,
                 col: int | None = None):
        self.message = message
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, column {col}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class _Token:
    kind: str  # NUM, IDENT, OP, NEWLINE, EOF
    text: str
    line: int
    col: int


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        pos = 0
        emitted = False
        while pos < len(line):
            m = _TOKEN_RE.match(line, pos)
            if m is None or m.end() == pos:
                break
            col = m.start(m.lastgroup) + 1
            if m.lastgroup == "bad":
                raise DslError(f"unexpected character {m.group('bad')!r}",
                               lineno, col)
            if m.lastgroup == "num":
                num = m.group("num")
                if len(num) > MAX_POWER_DIGITS:
                    raise DslError(f"number literal longer than "
                                   f"{MAX_POWER_DIGITS} digits", lineno, col)
                sci = _EXPONENT_RE.match(line, m.end())
                if sci:
                    raise DslError(_scientific_message(num, sci), lineno, col)
            if m.lastgroup is not None:
                kind = {"num": "NUM", "ident": "IDENT", "op": "OP"}[m.lastgroup]
                tokens.append(_Token(kind, m.group(m.lastgroup), lineno, col))
                emitted = True
            pos = m.end()
        if emitted:
            tokens.append(_Token("NEWLINE", "", lineno, len(raw) + 1))
    tokens.append(_Token("EOF", "", len(text.splitlines()) + 1, 1))
    return tokens


def _scientific_message(num: str, sci: "re.Match") -> str:
    text, digits = sci.group(0), sci.group(1)
    if len(digits) <= 2 and int(digits) <= _SPELLED_EXPONENT:
        number = num + "0" * int(digits)
    else:
        number = "the number written out"
    return (f"{num}{text} looks like scientific notation, which documents do "
            f"not have: write {num}*{text} for a product, or {number}")


# -- syntax tree ------------------------------------------------------------


@dataclass(frozen=True)
class _Num:
    value: int
    line: int
    col: int


@dataclass(frozen=True)
class _Name:
    text: str
    line: int
    col: int


@dataclass(frozen=True)
class _Unary:
    operand: object
    line: int
    col: int


@dataclass(frozen=True)
class _BinOp:
    op: str
    left: object
    right: object
    line: int
    col: int


@dataclass(frozen=True)
class _RawBinding:
    kind: str
    name: str
    expr: object
    line: int
    col: int


class _Parser:
    def __init__(self, tokens: List[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind.lower()
            got = tok.text if tok.text else tok.kind.lower()
            raise DslError(f"expected {want}, found {got!r}", tok.line, tok.col)
        return self.advance()

    def skip_newlines(self) -> None:
        while self.peek().kind == "NEWLINE":
            self.advance()

    def nested(self, parse, tok: _Token):
        """Run a sub-parser one nesting level down from ``tok``."""
        if self.depth == MAX_NESTING:
            raise DslError(f"expression nested deeper than {MAX_NESTING} levels",
                           tok.line, tok.col)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    # -- statements ---------------------------------------------------------

    def document(self) -> Tuple[List[str], List[_RawBinding], int]:
        self.skip_newlines()
        head = self.expect("IDENT")
        if head.text != "chart":
            raise DslError("document must start with a chart declaration",
                           head.line, head.col)
        names = []
        while self.peek().kind == "IDENT":
            names.append(self.advance())
        if not names:
            raise DslError("chart declaration needs coordinate names",
                           head.line, head.col)
        if self.peek().kind != "NEWLINE" and self.peek().kind != "EOF":
            bad = self.peek()
            raise DslError(f"invalid coordinate name {bad.text!r}",
                           bad.line, bad.col)
        for tok in names:
            if tok.text in _KEYWORDS or _BASIS_RE.match(tok.text):
                raise DslError(f"reserved name {tok.text!r} cannot be a coordinate",
                               tok.line, tok.col)
        bindings = []
        while True:
            self.skip_newlines()
            tok = self.peek()
            if tok.kind == "EOF":
                break
            if tok.kind != "IDENT" or tok.text not in _KEYWORDS:
                raise DslError(
                    f"expected a binding keyword, found {tok.text or tok.kind!r}",
                    tok.line, tok.col)
            if tok.text == "chart":
                raise DslError("only one chart declaration is allowed",
                               tok.line, tok.col)
            self.advance()
            name = self.expect("IDENT")
            if name.text in _KEYWORDS or _BASIS_RE.match(name.text):
                raise DslError(f"reserved name {name.text!r} cannot be bound",
                               name.line, name.col)
            self.expect("OP", "=")
            expr = self.additive()
            nxt = self.peek()
            if nxt.kind not in ("NEWLINE", "EOF"):
                raise DslError(f"unexpected {nxt.text!r} after expression",
                               nxt.line, nxt.col)
            bindings.append(_RawBinding(tok.text, name.text, expr,
                                        tok.line, tok.col))
        return [t.text for t in names], bindings, head.line

    # -- expressions --------------------------------------------------------

    def additive(self):
        node = self.wedge()
        while self.peek().kind == "OP" and self.peek().text in ("+", "-"):
            op = self.advance()
            node = _BinOp(op.text, node, self.wedge(), op.line, op.col)
        return node

    def wedge(self):
        node = self.term()
        while self.peek().kind == "OP" and self.peek().text == "^^":
            op = self.advance()
            node = _BinOp("^^", node, self.term(), op.line, op.col)
        return node

    def term(self):
        node = self.unary()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in ("*", "/"):
                self.advance()
                node = _BinOp(tok.text, node, self.unary(), tok.line, tok.col)
            elif tok.kind in ("NUM", "IDENT") or (tok.kind == "OP"
                                                  and tok.text == "("):
                # juxtaposition, e.g. "(x^2+y) e1"
                node = _BinOp("*", node, self.unary(), tok.line, tok.col)
            else:
                return node

    def unary(self):
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            return _Unary(self.nested(self.unary, tok), tok.line, tok.col)
        return self.power()

    def power(self):
        node = self.atom()
        while self.peek().kind == "OP" and self.peek().text == "^":
            op = self.advance()
            sign = 1
            if self.peek().kind == "OP" and self.peek().text == "-":
                self.advance()
                sign = -1
            exp = self.expect("NUM")
            node = _BinOp("^", node, _Num(sign * int(exp.text), exp.line,
                                          exp.col), op.line, op.col)
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "NUM":
            self.advance()
            return _Num(int(tok.text), tok.line, tok.col)
        if tok.kind == "IDENT":
            self.advance()
            return _Name(tok.text, tok.line, tok.col)
        if tok.kind == "OP" and tok.text == "(":
            self.advance()
            node = self.nested(self.additive, tok)
            self.expect("OP", ")")
            return node
        got = tok.text if tok.text else tok.kind.lower()
        raise DslError(f"expected an expression, found {got!r}",
                       tok.line, tok.col)


# -- evaluation -------------------------------------------------------------


def _value_kind(v: Value) -> str:
    if isinstance(v, RationalFunc):
        return "scalar"
    if isinstance(v, Multivector):
        return "multivector"
    return "form"


def _contains_name(node) -> bool:
    pending = [node]
    while pending:
        node = pending.pop()
        if isinstance(node, _Name):
            return True
        if isinstance(node, _Unary):
            pending.append(node.operand)
        elif isinstance(node, _BinOp):
            pending.extend((node.left, node.right))
    return False


def _power_terms(p: Polynomial, exponent: int) -> int:
    """Upper bound on the number of terms of p^exponent, exponent >= 0: a sum
    of t terms to the e has at most C(t+e-1, e) terms, and v variables allow
    at most C(v+e*deg, v) monomials of degree <= e*deg.  The bound grows with
    e and passes MAX_POWER_TERMS by e = MAX_POWER_TERMS once p has two terms,
    so capping e there keeps the binomials small without changing a verdict.
    """
    t = len(p.terms)
    if t <= 1:
        return 1
    e = min(exponent, MAX_POWER_TERMS)
    v = sum(1 for i in range(p.nvars) if any(exps[i] for exps in p.terms))
    return min(comb(t + e - 1, e), comb(v + e * p.total_degree(), v))


def _coefficient_digits(p: Polynomial) -> float:
    """log10 of H = max(D, |D*p|_1), with D the common denominator of p's
    coefficients and |.|_1 the sum of absolute coefficients.  The norm is
    submultiplicative, so every coefficient of p^e is a fraction whose
    numerator and denominator are at most H^e: at most e*log10(H) digits,
    rounded down, plus one.
    """
    coeffs = p.terms.values()
    den = lcm(*(c.denominator for c in coeffs))
    return log10(max(den, sum(abs(c.numerator) * (den // c.denominator)
                              for c in coeffs)))


class _Evaluator:
    def __init__(self, chart: Chart, bindings: Dict[str, "Binding"]):
        self.chart = chart
        self.bindings = bindings

    def eval(self, node) -> Value:
        # operator chains are left-deep: walk the left spine, then fold back up
        spine = []
        while isinstance(node, _BinOp):
            spine.append(node)
            node = node.left
        if isinstance(node, _Num):
            value = RationalFunc.constant(self.chart.dim, node.value)
        elif isinstance(node, _Name):
            value = self.lookup(node)
        else:
            value = self.eval(node.operand).scale(-1)
        for op in reversed(spine):
            value = self.binop(op, value)
        return value

    def lookup(self, node: _Name) -> Value:
        name = node.text
        if name in self.chart.names:
            return RationalFunc(
                Polynomial.variable(self.chart.dim, self.chart.names.index(name)))
        m = _BASIS_RE.match(name)
        if m:
            index = int(m.group(1))
            if not 1 <= index <= self.chart.dim:
                raise DslError(f"basis index {index} out of range for "
                               f"dimension {self.chart.dim}", node.line, node.col)
            if name[0] == "e":
                return Multivector.basis_vector(self.chart, index - 1)
            return DifferentialForm.basis_form(self.chart, index - 1)
        binding = self.bindings.get(name)
        if binding is None:
            raise DslError(f"unknown identifier {name!r}", node.line, node.col)
        if binding.kind == "volume":
            raise DslError(f"volume {name!r} cannot be used in an expression",
                           node.line, node.col)
        return binding.value

    def binop(self, node: _BinOp, left: Value) -> Value:
        if node.op == "^":
            if not isinstance(left, RationalFunc):
                raise DslError("powers apply to scalar expressions only",
                               node.line, node.col)
            exponent = node.right.value
            if max(_power_terms(left.num, abs(exponent)),
                   _power_terms(left.den, abs(exponent))) > MAX_POWER_TERMS:
                raise DslError(f"power too large to expand: the result may have "
                               f"more than {MAX_POWER_TERMS} terms",
                               node.line, node.col)
            # the inverse of n/d is (d/c)/(n/c), c the leading coefficient of
            # n, so the sum bounds either sign; each log10(H) is 0 or at least
            # log10(2) > 1/4, so capping e at 4*MAX_POWER_DIGITS keeps verdicts
            e = min(abs(exponent), 4 * MAX_POWER_DIGITS)
            if e * (_coefficient_digits(left.num)
                    + _coefficient_digits(left.den)) >= MAX_POWER_DIGITS:
                raise DslError(f"power too large to expand: its coefficients "
                               f"may have more than {MAX_POWER_DIGITS} digits",
                               node.line, node.col)
            return left ** exponent
        right = self.eval(node.right)
        kinds = (_value_kind(left), _value_kind(right))
        if node.op in ("+", "-"):
            if kinds[0] != kinds[1]:
                raise DslError(f"cannot add {kinds[0]} and {kinds[1]}",
                               node.line, node.col)
            try:
                return left + right if node.op == "+" else left - right
            except ValueError as exc:
                raise DslError(str(exc), node.line, node.col) from exc
        if node.op == "*":
            if kinds == ("scalar", "scalar"):
                return left * right
            if kinds[0] == "scalar":
                return right.scale(left)
            if kinds[1] == "scalar":
                return left.scale(right)
            raise DslError("use ^^ to combine non-scalar factors",
                           node.line, node.col)
        if node.op == "/":
            if kinds[1] != "scalar":
                raise DslError("division requires a scalar divisor",
                               node.line, node.col)
            if right.is_zero():
                if _contains_name(node.right):
                    raise ZeroDivisionError("division by a zero expression")
                raise DslError("division by zero constant", node.line, node.col)
            if kinds[0] == "scalar":
                return left / right
            return left.scale(right.inverse())
        # wedge
        if kinds[0] == "scalar":
            return right * left if kinds[1] == "scalar" else right.scale(left)
        if kinds[1] == "scalar":
            return left.scale(right)
        if kinds[0] != kinds[1]:
            raise DslError("wedge of mixed kinds (multivector vs form)",
                           node.line, node.col)
        return wedge(left, right)


# -- documents --------------------------------------------------------------


@dataclass
class Binding:
    kind: str  # func | mv | form | volume | lie
    name: str
    value: object
    constants: Optional[StructureConstants] = None


@dataclass
class Document:
    chart: Chart
    bindings: List[Binding] = field(default_factory=list)

    def __post_init__(self):
        self._by_name = {b.name: b for b in self.bindings}
        if len(self._by_name) != len(self.bindings):
            raise DslError("duplicate binding names in document")

    def binding(self, name: str) -> Binding:
        b = self._by_name.get(name)
        if b is None:
            raise DslError(f"no binding named {name!r}")
        return b

    def scalar(self, name: str) -> RationalFunc:
        b = self.binding(name)
        if b.kind != "func":
            raise DslError(f"binding {name!r} is a {b.kind}, expected func")
        return b.value

    def multivector(self, name: str) -> Multivector:
        b = self.binding(name)
        if b.kind == "lie":
            return b.value
        if b.kind != "mv":
            raise DslError(f"binding {name!r} is a {b.kind}, expected mv")
        return b.value

    def lie_constants(self, name: str) -> StructureConstants:
        b = self.binding(name)
        if b.kind != "lie":
            raise DslError(f"binding {name!r} is a {b.kind}, expected lie")
        return b.constants

    def volume(self, name: Optional[str] = None) -> VolumeForm:
        if name is not None:
            b = self.binding(name)
            if b.kind != "volume":
                raise DslError(f"binding {name!r} is a {b.kind}, expected volume")
            return b.value
        volumes = [b for b in self.bindings if b.kind == "volume"]
        if not volumes:
            return VolumeForm.unit(self.chart)
        if len(volumes) > 1:
            raise DslError("multiple volume bindings; select one with --volume")
        return volumes[0].value


def _constants_from_bivector(pi: Multivector, line: int,
                             col: int) -> StructureConstants:
    n = pi.chart.dim
    entries: Dict[Tuple[int, int, int], Fraction] = {}
    for mask, coeff in pi.terms.items():
        if not coeff.den.is_one():
            raise DslError("lie binding coefficients must be polynomial",
                           line, col)
        i = (mask & -mask).bit_length() - 1
        j = mask.bit_length() - 1
        for exps, value in coeff.num.terms.items():
            if sum(exps) != 1:
                raise DslError("lie binding requires homogeneous linear "
                               "coefficients", line, col)
            entries[(i, j, exps.index(1))] = value
    try:
        return StructureConstants(n, entries)
    except ValueError as exc:
        raise DslError(str(exc), line, col) from exc


def has_long_coefficient(value: Value) -> bool:
    """True if a coefficient of the value has more than MAX_POWER_DIGITS
    digits, so that it cannot be printed."""
    scalars = [value] if isinstance(value, RationalFunc) else value.terms.values()
    return any(max(abs(c.numerator), c.denominator) >= _DIGITS_BOUND
               for rf in scalars for p in (rf.num, rf.den)
               for c in p.terms.values())


def _check_digits(raw: _RawBinding, value: Value) -> None:
    """Refuse a binding with a coefficient of more than MAX_POWER_DIGITS
    digits: a product of powers can build one that no power check sees."""
    if has_long_coefficient(value):
        raise DslError(f"a coefficient has more than {MAX_POWER_DIGITS} digits",
                       raw.line, raw.col)


def _finish_binding(raw: _RawBinding, value: Value, chart: Chart) -> Binding:
    kind = raw.kind
    if kind == "func":
        if not isinstance(value, RationalFunc):
            raise DslError("func binding must be scalar", raw.line, raw.col)
        return Binding(kind, raw.name, value)
    if kind == "mv":
        if isinstance(value, RationalFunc):
            value = Multivector.scalar(chart, value)
        if not isinstance(value, Multivector):
            raise DslError("mv binding must be a multivector", raw.line, raw.col)
        return Binding(kind, raw.name, value)
    if kind == "form":
        if isinstance(value, RationalFunc):
            value = DifferentialForm.scalar(chart, value)
        if not isinstance(value, DifferentialForm):
            raise DslError("form binding must be a differential form",
                           raw.line, raw.col)
        return Binding(kind, raw.name, value)
    if kind == "volume":
        if isinstance(value, DifferentialForm):
            if value.grade != chart.dim or set(value.terms) - {chart.full_mask}:
                raise DslError("volume form must be a top-degree form",
                               raw.line, raw.col)
            value = value.terms.get(chart.full_mask,
                                    RationalFunc.zero(chart.dim))
        if not isinstance(value, RationalFunc):
            raise DslError("volume binding must be a scalar density or a "
                           "top-degree form", raw.line, raw.col)
        if value.is_zero():
            raise DslError("volume density must be non-zero", raw.line, raw.col)
        return Binding(kind, raw.name, VolumeForm(chart, value))
    # lie
    if isinstance(value, RationalFunc) and value.is_zero():
        value = Multivector.zero(chart, 2)
    if not isinstance(value, Multivector) or (value.grade != 2
                                              and not value.is_zero()):
        raise DslError("lie binding must be a bivector", raw.line, raw.col)
    constants = _constants_from_bivector(value, raw.line, raw.col)
    return Binding(kind, raw.name, value, constants)


def parse(text: str) -> Document:
    """Parse and evaluate a document; raises DslError with positions."""
    names, raw_bindings, chart_line = _Parser(_tokenize(text)).document()
    try:
        chart = Chart(names)
    except ValueError as exc:
        raise DslError(str(exc), chart_line, 1) from exc
    by_name: Dict[str, Binding] = {}
    bindings: List[Binding] = []
    evaluator = _Evaluator(chart, by_name)
    for raw in raw_bindings:
        if raw.name in chart.names:
            raise DslError(f"name {raw.name!r} is already a coordinate",
                           raw.line, raw.col)
        if raw.name in by_name:
            raise DslError(f"duplicate binding name {raw.name!r}",
                           raw.line, raw.col)
        value = evaluator.eval(raw.expr)
        _check_digits(raw, value)
        binding = _finish_binding(raw, value, chart)
        bindings.append(binding)
        by_name[raw.name] = binding
    return Document(chart, bindings)


# -- canonical printing -----------------------------------------------------


def print_canonical(obj, chart: Optional[Chart] = None) -> str:
    """Deterministic text form; documents re-parse to an equal document."""
    if isinstance(obj, Document):
        lines = ["chart " + " ".join(obj.chart.names)]
        for b in obj.bindings:
            lines.append(f"{b.kind} {b.name} = {_binding_body(b, obj.chart)}")
        return "\n".join(lines) + "\n"
    if isinstance(obj, (Multivector, DifferentialForm)):
        return obj.to_string()
    if isinstance(obj, VolumeForm):
        return obj.density.to_string(obj.chart.names)
    if isinstance(obj, RationalFunc):
        if chart is None:
            raise ValueError("printing a bare scalar needs the chart")
        return obj.to_string(chart.names)
    raise TypeError(f"cannot print object of type {type(obj).__name__}")


def _binding_body(b: Binding, chart: Chart) -> str:
    if b.kind == "func":
        return b.value.to_string(chart.names)
    if b.kind == "volume":
        return b.value.density.to_string(chart.names)
    return b.value.to_string()


# -- JSON -------------------------------------------------------------------


def _poly_to_json(p: Polynomial) -> list:
    return [{"exps": list(exps), "coeff": str(coeff)}
            for exps, coeff in p.sorted_terms()]


def _poly_from_json(nvars: int, data: list) -> Polynomial:
    return Polynomial(nvars, {tuple(item["exps"]): item["coeff"] for item in data})


def _rf_to_json(rf: RationalFunc) -> dict:
    return {"num": _poly_to_json(rf.num), "den": _poly_to_json(rf.den)}


def _rf_from_json(nvars: int, data: dict) -> RationalFunc:
    return RationalFunc(_poly_from_json(nvars, data["num"]),
                        _poly_from_json(nvars, data["den"]))


def _terms_to_json(obj) -> list:
    return [{"blade": [i + 1 for i in blade_indices(mask)],
             "coeff": _rf_to_json(coeff)}
            for mask, coeff in obj.sorted_terms()]


def _terms_from_json(nvars: int, data: list) -> Dict[int, RationalFunc]:
    out = {}
    for item in data:
        mask = 0
        for i in item["blade"]:
            mask |= 1 << (i - 1)
        out[mask] = _rf_from_json(nvars, item["coeff"])
    return out


def value_to_json(value, chart: Chart) -> dict:
    """Kind-tagged lossless encoding of a single computation result."""
    if isinstance(value, RationalFunc):
        return {"kind": "func", "value": _rf_to_json(value)}
    if isinstance(value, Multivector):
        return {"kind": "mv", "grade": value.grade,
                "terms": _terms_to_json(value)}
    if isinstance(value, DifferentialForm):
        return {"kind": "form", "grade": value.grade,
                "terms": _terms_to_json(value)}
    if isinstance(value, VolumeForm):
        return {"kind": "volume", "density": _rf_to_json(value.density)}
    raise TypeError(f"cannot serialize {type(value).__name__}")


def document_to_json(doc: Document) -> dict:
    out = {"chart": list(doc.chart.names), "bindings": []}
    for b in doc.bindings:
        entry: dict = {"name": b.name}
        entry.update(value_to_json(b.value, doc.chart))
        if b.kind == "lie":
            entry["kind"] = "lie"
        out["bindings"].append(entry)
    return out


def document_from_json(data: dict) -> Document:
    chart = Chart(data["chart"])
    n = chart.dim
    bindings: List[Binding] = []
    for entry in data["bindings"]:
        kind = entry["kind"]
        name = entry["name"]
        if kind == "func":
            bindings.append(Binding(kind, name, _rf_from_json(n, entry["value"])))
        elif kind in ("mv", "lie"):
            value = Multivector(chart, entry["grade"],
                                _terms_from_json(n, entry["terms"]))
            if kind == "lie":
                constants = _constants_from_bivector(value, 0, 0)
                bindings.append(Binding(kind, name, value, constants))
            else:
                bindings.append(Binding(kind, name, value))
        elif kind == "form":
            value = DifferentialForm(chart, entry["grade"],
                                     _terms_from_json(n, entry["terms"]))
            bindings.append(Binding(kind, name, value))
        elif kind == "volume":
            bindings.append(Binding(
                kind, name, VolumeForm(chart, _rf_from_json(n, entry["density"]))))
        else:
            raise DslError(f"unknown binding kind {kind!r} in JSON document")
    return Document(chart, bindings)
