"""Text front end: a line-oriented declaration language for charts, scalar
functions, multivectors, forms, volumes, and Lie structure constants, plus
the canonical printer and a lossless JSON document format.

Grammar (one statement per line, `#` starts a comment; lines end at LF,
CR LF or CR, and blanks are spaces and tabs):

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
coefficient longer than that, since neither could be printed.  A power or
product whose total degree may pass the ring's MAX_DEGREE (32767) is
refused before it is computed too.

The whole text is tokenized first, so a lexical error (a character that
starts no token, an over-long literal, a number such as 1e3) is reported
ahead of any other.  After that the document is evaluated as it is read, and
the first error in reading order is reported.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd, log10
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from mvcurl.exterior import (
    Chart,
    DifferentialForm,
    Multivector,
    VolumeForm,
    blade_indices,
    wedge,
)
from mvcurl.poisson import StructureConstants
from mvcurl.ring import MAX_DEGREE, Polynomial, RationalFunc, _variables_used

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
# the parser evaluates as it reads, six stack frames per level of parentheses
# (a run of unary minus signs takes none): at this bound a document takes
# about 620 frames, ring work at the deepest level included, which leaves
# callers over 350 of Python's default recursion limit of 1000
MAX_NESTING = 100
# expanding and printing a power costs about the square of its term count:
# (x+y+1)^43 has 990 terms, (x+y+1)^80 has 3321
MAX_POWER_TERMS = 1000
# Python's default limit on the digits of an int it converts to text: a
# coefficient past it could be computed but never printed
MAX_POWER_DIGITS = 4300
_DIGITS_BOUND = 10 ** MAX_POWER_DIGITS
_BASIS_RE = re.compile(r"^[ed]([0-9]+)$")
# lines end at \n, \r\n or \r only: str.splitlines would also end them at
# \x0b, \x0c, \x1c-\x1e, \x85, U+2028 and U+2029, which are characters here
_LINE_END_RE = re.compile(r"\r\n|\r|\n")
# blanks are spaces and tabs; any other character outside a comment that
# starts no token is refused where it stands
_TOKEN_RE = re.compile(
    r"(?P<BLANK>[ \t]+)"
    r"|(?P<NUM>[0-9]+)"
    r"|(?P<IDENT>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<OP>\^\^|[-+*/^()=])"
    r"|(?P<BAD>.)")
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


class _Token(NamedTuple):
    kind: str  # NUM, IDENT, OP, NEWLINE, EOF
    text: str
    line: int
    col: int


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    lines = _LINE_END_RE.split(text)
    if not lines[-1]:
        lines.pop()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0]
        for m in _TOKEN_RE.finditer(line):
            kind, word = m.lastgroup, m.group()
            if kind == "BLANK":
                continue
            col = m.start() + 1
            if kind == "BAD":
                raise DslError(f"unexpected character {word!r}", lineno, col)
            if kind == "NUM":
                if len(word) > MAX_POWER_DIGITS:
                    raise DslError(f"number literal longer than "
                                   f"{MAX_POWER_DIGITS} digits", lineno, col)
                sci = _EXPONENT_RE.match(line, m.end())
                if sci:
                    raise DslError(_scientific_message(word, sci), lineno, col)
            tokens.append(_Token(kind, word, lineno, col))
        if tokens and tokens[-1].line == lineno:
            tokens.append(_Token("NEWLINE", "", lineno, len(raw) + 1))
    tokens.append(_Token("EOF", "", len(lines) + 1, 1))
    return tokens


def _scientific_message(num: str, sci: "re.Match") -> str:
    text, digits = sci.group(0), sci.group(1)
    if len(digits) <= 2 and int(digits) <= _SPELLED_EXPONENT:
        number = num + "0" * int(digits)
    else:
        number = "the number written out"
    return (f"{num}{text} looks like scientific notation, which documents do "
            f"not have: write {num}*{text} for a product, or {number}")


# -- parsing and evaluation -------------------------------------------------


class _Parser:
    """Recursive descent that evaluates as it reads: each expression method
    returns the value of the text it consumed, so errors come in reading
    order."""

    def __init__(self, tokens: List[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        # identifiers read so far: a zero divisor that read none is a zero
        # constant (exit 2), one that read some a zero expression (exit 3)
        self.names_read = 0
        self.chart: Optional[Chart] = None
        self.bindings: Dict[str, Binding] = {}

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

    def descend(self, tok: _Token) -> None:
        """Go one nesting level down at ``tok``."""
        if self.depth == MAX_NESTING:
            raise DslError(f"expression nested deeper than {MAX_NESTING} levels",
                           tok.line, tok.col)
        self.depth += 1

    # -- statements ---------------------------------------------------------

    def document(self) -> Document:
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
        try:
            self.chart = Chart([t.text for t in names])
        except ValueError as exc:
            raise DslError(str(exc), head.line, 1) from exc
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
            name_tok = self.expect("IDENT")
            name = name_tok.text
            if name in _KEYWORDS or _BASIS_RE.match(name):
                raise DslError(f"reserved name {name!r} cannot be bound",
                               name_tok.line, name_tok.col)
            if name in self.chart.names:
                raise DslError(f"name {name!r} is already a coordinate",
                               tok.line, tok.col)
            if name in self.bindings:
                raise DslError(f"duplicate binding name {name!r}",
                               tok.line, tok.col)
            self.expect("OP", "=")
            value = self.additive()
            nxt = self.peek()
            if nxt.kind not in ("NEWLINE", "EOF"):
                raise DslError(f"unexpected {nxt.text!r} after expression",
                               nxt.line, nxt.col)
            self.bindings[name] = _finish_binding(tok, name, value, self.chart)
        return Document(self.chart, list(self.bindings.values()))

    # -- expressions --------------------------------------------------------

    def additive(self) -> Value:
        value = self.wedge()
        while self.peek().kind == "OP" and self.peek().text in ("+", "-"):
            op = self.advance()
            value = self.binop(op, op.text, value, self.wedge())
        return value

    def wedge(self) -> Value:
        value = self.term()
        while self.peek().kind == "OP" and self.peek().text == "^^":
            op = self.advance()
            value = self.binop(op, "^^", value, self.term())
        return value

    def term(self) -> Value:
        value = self.unary()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in ("*", "/"):
                self.advance()
                names_read = self.names_read
                right = self.unary()
                value = self.binop(tok, tok.text, value, right,
                                   self.names_read > names_read)
            elif tok.kind in ("NUM", "IDENT") or (tok.kind == "OP"
                                                  and tok.text == "("):
                # juxtaposition, e.g. "(x^2+y) e1"
                value = self.binop(tok, "*", value, self.unary())
            else:
                return value

    def unary(self) -> Value:
        signs = 0
        while self.peek().kind == "OP" and self.peek().text == "-":
            self.descend(self.advance())
            signs += 1
        value = self.power()
        self.depth -= signs
        return value.scale(-1) if signs % 2 else value

    def power(self) -> Value:
        value = self.atom()
        while self.peek().kind == "OP" and self.peek().text == "^":
            op = self.advance()
            sign = 1
            if self.peek().kind == "OP" and self.peek().text == "-":
                self.advance()
                sign = -1
            exponent = sign * int(self.expect("NUM").text)
            if not isinstance(value, RationalFunc):
                raise DslError("powers apply to scalar expressions only",
                               op.line, op.col)
            if max(_power_terms(value.num, abs(exponent)),
                   _power_terms(value.den, abs(exponent))) > MAX_POWER_TERMS:
                raise DslError(f"power too large to expand: the result may have "
                               f"more than {MAX_POWER_TERMS} terms",
                               op.line, op.col)
            # the inverse of n/d is (d/c)/(n/c), c the leading coefficient of
            # n, so the sum bounds either sign; each log10(H) is 0 or at least
            # log10(2) > 1/4, so capping e at 4*MAX_POWER_DIGITS keeps verdicts
            e = min(abs(exponent), 4 * MAX_POWER_DIGITS)
            if e * (_coefficient_digits(value.num)
                    + _coefficient_digits(value.den)) >= MAX_POWER_DIGITS:
                raise DslError(f"power too large to expand: its coefficients "
                               f"may have more than {MAX_POWER_DIGITS} digits",
                               op.line, op.col)
            if exponent and max(_degrees(value)) * abs(exponent) > MAX_DEGREE:
                raise DslError(f"power too large to expand: its degree may "
                               f"pass {MAX_DEGREE}", op.line, op.col)
            value = value ** exponent
        return value

    def atom(self) -> Value:
        tok = self.advance()
        if tok.kind == "NUM":
            return RationalFunc.constant(self.chart.dim, int(tok.text))
        if tok.kind == "IDENT":
            self.names_read += 1
            return self.lookup(tok)
        if tok.kind == "OP" and tok.text == "(":
            self.descend(tok)
            value = self.additive()
            self.depth -= 1
            self.expect("OP", ")")
            return value
        got = tok.text if tok.text else tok.kind.lower()
        raise DslError(f"expected an expression, found {got!r}",
                       tok.line, tok.col)

    def lookup(self, tok: _Token) -> Value:
        name, chart = tok.text, self.chart
        if name in chart.names:
            return RationalFunc(
                Polynomial.variable(chart.dim, chart.names.index(name)))
        m = _BASIS_RE.match(name)
        if m:
            index = int(m.group(1))
            if not 1 <= index <= chart.dim:
                raise DslError(f"basis index {index} out of range for "
                               f"dimension {chart.dim}", tok.line, tok.col)
            if name[0] == "e":
                return Multivector.basis_vector(chart, index - 1)
            return DifferentialForm.basis_form(chart, index - 1)
        binding = self.bindings.get(name)
        if binding is None:
            raise DslError(f"unknown identifier {name!r}", tok.line, tok.col)
        if binding.kind == "volume":
            raise DslError(f"volume {name!r} cannot be used in an expression",
                           tok.line, tok.col)
        return binding.value

    def binop(self, tok: _Token, op: str, left: Value, right: Value,
              named_divisor: bool = False) -> Value:
        if op not in ("+", "-"):
            (ln, ld), (rn, rd) = _degrees(left), _degrees(right)
            if op == "/":
                rn, rd = rd, rn
            if max(ln + rn, ld + rd) > MAX_DEGREE:
                raise DslError(f"product too large to expand: its degree may "
                               f"pass {MAX_DEGREE}", tok.line, tok.col)
        kinds = (_value_kind(left), _value_kind(right))
        if op in ("+", "-"):
            if kinds[0] != kinds[1]:
                raise DslError(f"cannot add {kinds[0]} and {kinds[1]}",
                               tok.line, tok.col)
            try:
                return left + right if op == "+" else left - right
            except ValueError as exc:
                raise DslError(str(exc), tok.line, tok.col) from exc
        if op == "*":
            if kinds == ("scalar", "scalar"):
                return left * right
            if kinds[0] == "scalar":
                return right.scale(left)
            if kinds[1] == "scalar":
                return left.scale(right)
            raise DslError("use ^^ to combine non-scalar factors",
                           tok.line, tok.col)
        if op == "/":
            if kinds[1] != "scalar":
                raise DslError("division requires a scalar divisor",
                               tok.line, tok.col)
            if right.is_zero():
                if named_divisor:
                    raise ZeroDivisionError("division by a zero expression")
                raise DslError("division by zero constant", tok.line, tok.col)
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
                           tok.line, tok.col)
        return wedge(left, right)


# -- evaluation -------------------------------------------------------------


def _value_kind(v: Value) -> str:
    if isinstance(v, RationalFunc):
        return "scalar"
    if isinstance(v, Multivector):
        return "multivector"
    return "form"


def _power_terms(p: Polynomial, exponent: int) -> int:
    """Upper bound on the number of terms of p^exponent, exponent >= 0: a sum
    of t terms to the e has at most C(t+e-1, e) terms, and v variables allow
    at most C(v+e*deg, v) monomials of degree <= e*deg.  The bound grows with
    e and passes MAX_POWER_TERMS by e = MAX_POWER_TERMS once p has two terms,
    so capping e there keeps the binomials small without changing a verdict.
    """
    t = len(p.nums)
    if t <= 1:
        return 1
    e = min(exponent, MAX_POWER_TERMS)
    v = len(_variables_used(p))
    return min(comb(t + e - 1, e), comb(v + e * p.total_degree(), v))


def _scalars(value: Value):
    """The value's scalar coefficients: itself, or its blade coefficients."""
    return [value] if isinstance(value, RationalFunc) else value.terms.values()


def _degrees(value: Value) -> Tuple[int, int]:
    """Largest total degree of a numerator and of a denominator in the
    value; a product's numerators and denominators have at most the sums."""
    scalars = _scalars(value)
    return (max((rf.num.total_degree() for rf in scalars), default=0),
            max((rf.den.total_degree() for rf in scalars), default=0))


def _coefficient_digits(p: Polynomial) -> float:
    """log10 of H = max(D, |D*p|_1), with D the common denominator of p's
    coefficients and |.|_1 the sum of absolute coefficients.  The norm is
    submultiplicative, so every coefficient of p^e is a fraction whose
    numerator and denominator are at most H^e: at most e*log10(H) digits,
    rounded down, plus one.  In lowest terms D is ``p.den`` and D*p has
    the coefficients ``p.nums``.
    """
    return log10(max(p.den, sum(map(abs, p.nums.values()))))


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
    # c/den in lowest terms is (c/g)/(den/g), g = gcd(c, den): reduce only
    # the rare pair that passes the bound before reducing
    return any(max(abs(c), p.den) >= _DIGITS_BOUND
               and max(abs(c), p.den) // gcd(c, p.den) >= _DIGITS_BOUND
               for rf in _scalars(value) for p in (rf.num, rf.den)
               for c in p.nums.values())


def _finish_binding(tok: _Token, name: str, value: Value,
                    chart: Chart) -> Binding:
    """Check a value against its binding keyword ``tok`` and bind it."""
    kind, line, col = tok.text, tok.line, tok.col
    # a product of powers can build a coefficient that no power check sees
    if has_long_coefficient(value):
        raise DslError(f"a coefficient has more than {MAX_POWER_DIGITS} digits",
                       line, col)
    if kind == "func":
        if not isinstance(value, RationalFunc):
            raise DslError("func binding must be scalar", line, col)
        return Binding(kind, name, value)
    if kind == "mv":
        if isinstance(value, RationalFunc):
            value = Multivector.scalar(chart, value)
        if not isinstance(value, Multivector):
            raise DslError("mv binding must be a multivector", line, col)
        return Binding(kind, name, value)
    if kind == "form":
        if isinstance(value, RationalFunc):
            value = DifferentialForm.scalar(chart, value)
        if not isinstance(value, DifferentialForm):
            raise DslError("form binding must be a differential form",
                           line, col)
        return Binding(kind, name, value)
    if kind == "volume":
        if isinstance(value, DifferentialForm):
            if value.grade != chart.dim or set(value.terms) - {chart.full_mask}:
                raise DslError("volume form must be a top-degree form",
                               line, col)
            value = value.terms.get(chart.full_mask,
                                    RationalFunc.zero(chart.dim))
        if not isinstance(value, RationalFunc):
            raise DslError("volume binding must be a scalar density or a "
                           "top-degree form", line, col)
        if value.is_zero():
            raise DslError("volume density must be non-zero", line, col)
        return Binding(kind, name, VolumeForm(chart, value))
    # lie
    if isinstance(value, RationalFunc) and value.is_zero():
        value = Multivector.zero(chart, 2)
    if not isinstance(value, Multivector) or (value.grade != 2
                                              and not value.is_zero()):
        raise DslError("lie binding must be a bivector", line, col)
    constants = _constants_from_bivector(value, line, col)
    return Binding(kind, name, value, constants)


def parse(text: str) -> Document:
    """Parse and evaluate a document; raises DslError with positions."""
    return _Parser(_tokenize(text)).document()


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
