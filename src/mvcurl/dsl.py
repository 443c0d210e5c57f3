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

A ``lie`` binding is its own bivector: its coefficients must be homogeneous
linear polynomials, and the Jacobi identity is proved on it as it is bound.
Text and JSON documents go through one binding step, so a JSON document
passes the same checks as a text one; its errors carry no position.
"""

from __future__ import annotations

import re
from math import comb, gcd, log10
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from mvcurl.exterior import (
    Chart,
    DifferentialForm,
    Multivector,
    VolumeForm,
    blade_indices,
    blade_mask,
    wedge,
)
from mvcurl.poisson import NonPoissonError, require_poisson
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
# the parser evaluates as it reads, three stack frames per level of
# parentheses (a run of unary minus signs takes none): at this bound a
# document takes about 325 frames, ring work at the deepest level included,
# which leaves callers over 650 of Python's default recursion limit of 1000
MAX_NESTING = 100
# expanding and printing a power costs about the square of its term count:
# (x+y+1)^43 has 990 terms, (x+y+1)^80 has 3321
MAX_POWER_TERMS = 1000
# Python's default limit on the digits of an int it converts to text: a
# coefficient past it could be computed but never printed
MAX_POWER_DIGITS = 4300
_DIGITS_BOUND = 10 ** MAX_POWER_DIGITS
_BASIS_RE = re.compile(r"^[ed]([0-9]+)$")
_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_NAME_RE = re.compile(_NAME)
# lines end at \n, \r\n or \r only: str.splitlines would also end them at
# \x0b, \x0c, \x1c-\x1e, \x85, U+2028 and U+2029, which are characters here
_LINE_END_RE = re.compile(r"\r\n|\r|\n")
# one match per token: the blanks before it, then a number (with the
# ``e3`` of a misspelt scientific-notation number, refused), a name, an
# operator, or any other character, refused where it stands; blanks are
# spaces and tabs
_TOKEN_RE = re.compile(
    r"([ \t]*)(?:([0-9]+)([eE][0-9]+)?"
    rf"|({_NAME})"
    r"|(\^\^|[-+*/^()=])"
    r"|(.))")
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


# A token is a tuple (kind, text, line, column).  The kind of an operator is
# its own text; the other kinds are NUM, IDENT, NEWLINE and EOF.
_Token = Tuple[str, str, int, int]


def _tokenize(text: str) -> List[_Token]:
    """Every token of the text, in one regex pass per line; a character that
    starts no token, an over-long literal or a number such as 1e3 raises."""
    tokens: List[_Token] = []
    append = tokens.append
    lines = _LINE_END_RE.split(text)
    if not lines[-1]:
        lines.pop()
    for lineno, raw in enumerate(lines, start=1):
        # without trailing blanks the matches tile the line: each takes the
        # blanks before a token and the token
        col = 1
        for blank, num, sci, name, op, bad in _TOKEN_RE.findall(
                raw.split("#", 1)[0].rstrip(" \t")):
            col += len(blank)
            if name:
                append(("IDENT", name, lineno, col))
                col += len(name)
            elif op:
                append((op, op, lineno, col))
                col += len(op)
            elif num:
                if len(num) > MAX_POWER_DIGITS:
                    raise DslError(f"number literal longer than "
                                   f"{MAX_POWER_DIGITS} digits", lineno, col)
                if sci:
                    raise DslError(_scientific_message(num, sci), lineno, col)
                append(("NUM", num, lineno, col))
                col += len(num)
            else:
                raise DslError(f"unexpected character {bad!r}", lineno, col)
        if tokens and tokens[-1][2] == lineno:
            append(("NEWLINE", "", lineno, len(raw) + 1))
    append(("EOF", "", len(lines) + 1, 1))
    return tokens


def _scientific_message(num: str, text: str) -> str:
    digits = text[1:]
    if len(digits) <= 2 and int(digits) <= _SPELLED_EXPONENT:
        number = num + "0" * int(digits)
    else:
        number = "the number written out"
    return (f"{num}{text} looks like scientific notation, which documents do "
            f"not have: write {num}*{text} for a product, or {number}")


# -- parsing and evaluation -------------------------------------------------

# each token kind that continues an expression, with its binary level,
# loosest first, and the operator it applies: a number, a name or "(" right
# after an operand is a juxtaposition, a product at the level of * and /
_BINARY = {"+": (1, "+"), "-": (1, "-"), "^^": (2, "^^"), "*": (3, "*"),
           "/": (3, "/"), "NUM": (3, "*"), "IDENT": (3, "*"), "(": (3, "*")}


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
        self.symbols: Dict[str, Value] = {}  # the value of each name read

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            got = tok[1] or tok[0].lower()
            raise DslError(f"expected {kind.lower()}, found {got!r}",
                           tok[2], tok[3])
        self.pos += 1
        return tok

    def descend(self, tok: _Token) -> None:
        """Go one nesting level down at ``tok``."""
        if self.depth == MAX_NESTING:
            raise DslError(f"expression nested deeper than {MAX_NESTING} levels",
                           tok[2], tok[3])
        self.depth += 1

    # -- statements ---------------------------------------------------------

    def document(self) -> Document:
        while self.tokens[self.pos][0] == "NEWLINE":
            self.pos += 1
        head = self.expect("IDENT")
        if head[1] != "chart":
            raise DslError("document must start with a chart declaration",
                           head[2], head[3])
        names = []
        while self.tokens[self.pos][0] == "IDENT":
            names.append(self.advance())
        if not names:
            raise DslError("chart declaration needs coordinate names",
                           head[2], head[3])
        bad = self.tokens[self.pos]
        if bad[0] != "NEWLINE" and bad[0] != "EOF":
            raise DslError(f"invalid coordinate name {bad[1]!r}", bad[2], bad[3])
        self.chart = _chart([t[1] for t in names],
                            [(t[2], t[3]) for t in names], (head[2], 1))
        while True:
            while self.tokens[self.pos][0] == "NEWLINE":
                self.pos += 1
            kind, word, line, col = self.advance()
            if kind == "EOF":
                break
            if kind != "IDENT" or word not in _KEYWORDS:
                raise DslError(
                    f"expected a binding keyword, found {word or kind!r}",
                    line, col)
            if word == "chart":
                raise DslError("only one chart declaration is allowed",
                               line, col)
            name = self.expect("IDENT")
            _bind(self.bindings, self.chart, word, name[1], self.value,
                  (line, col), (name[2], name[3]))
        return Document(self.chart, list(self.bindings.values()))

    def value(self) -> Value:
        """The ``= expr`` of a binding, which must end its line."""
        self.expect("=")
        value = self.expr()
        nxt = self.tokens[self.pos]
        if nxt[0] != "NEWLINE" and nxt[0] != "EOF":
            raise DslError(f"unexpected {nxt[1]!r} after expression",
                           nxt[2], nxt[3])
        return value

    # -- expressions --------------------------------------------------------

    def expr(self) -> Value:
        """Unary operands joined by binary operators, in one precedence
        loop: ``pending`` holds each left operand whose operator waits on a
        tighter one, and an operator applies every pending one of its level
        or tighter first, so values and errors come in reading order."""
        tokens = self.tokens
        pending: List[tuple] = []
        value = self.unary()
        while True:
            tok = tokens[self.pos]
            level, op = _BINARY.get(tok[0], (0, None))
            while pending and pending[-1][0] >= level:
                _, at, applied, left, names_read = pending.pop()
                value = self.binop(at, applied, left, value,
                                   self.names_read > names_read)
            if not level:
                return value
            if op == tok[0]:
                self.pos += 1  # an operator; a juxtaposed operand stays
            pending.append((level, tok, op, value, self.names_read))
            value = self.unary()

    def unary(self) -> Value:
        """Minus signs, an atom and the powers on it."""
        tokens = self.tokens
        signs = 0
        while tokens[self.pos][0] == "-":
            self.descend(self.advance())
            signs += 1
        names_read = self.names_read
        value = self.atom()
        while tokens[self.pos][0] == "^":
            value = self.power(value, self.advance(),
                               self.names_read > names_read)
        self.depth -= signs
        return -value if signs % 2 else value

    def power(self, value: Value, op: _Token, named_base: bool) -> Value:
        """``value`` to the ``[-]NUM`` after the ``^`` at ``op``; a zero base
        to a negative power follows the rule of a zero divisor."""
        negative = self.tokens[self.pos][0] == "-"
        self.pos += negative
        e = int(self.expect("NUM")[1])
        exponent = -e if negative else e
        if not isinstance(value, RationalFunc):
            raise DslError("powers apply to scalar expressions only",
                           op[2], op[3])
        if exponent < 0 and value.is_zero():
            if named_base:
                raise ZeroDivisionError("zero expression to a negative power")
            raise DslError("zero to a negative power", op[2], op[3])
        if max(_power_terms(value.num, e),
               _power_terms(value.den, e)) > MAX_POWER_TERMS:
            raise DslError(f"power too large to expand: the result may have "
                           f"more than {MAX_POWER_TERMS} terms", op[2], op[3])
        # the inverse of n/d is (d/c)/(n/c), c the leading coefficient of
        # n, so the sum bounds either sign; each log10(H) is 0 or at least
        # log10(2) > 1/4, so capping e at 4*MAX_POWER_DIGITS keeps verdicts
        if min(e, 4 * MAX_POWER_DIGITS) * (
                _coefficient_digits(value.num)
                + _coefficient_digits(value.den)) >= MAX_POWER_DIGITS:
            raise DslError(f"power too large to expand: its coefficients "
                           f"may have more than {MAX_POWER_DIGITS} digits",
                           op[2], op[3])
        if e and max(_degrees(value)) * e > MAX_DEGREE:
            raise DslError(f"power too large to expand: its degree may "
                           f"pass {MAX_DEGREE}", op[2], op[3])
        return value ** exponent

    def atom(self) -> Value:
        kind, word, line, col = tok = self.tokens[self.pos]
        self.pos += 1
        if kind == "NUM":
            return RationalFunc.constant(self.chart.dim, int(word))
        if kind == "IDENT":
            self.names_read += 1
            value = self.symbols.get(word)
            if value is None:
                value = self.symbols[word] = self.lookup(tok)
            return value
        if kind == "(":
            self.descend(tok)
            value = self.expr()
            self.depth -= 1
            self.expect(")")
            return value
        raise DslError(f"expected an expression, found {word or kind.lower()!r}",
                       line, col)

    def lookup(self, tok: _Token) -> Value:
        name, chart = tok[1], self.chart
        if name in chart.names:
            return RationalFunc(
                Polynomial.variable(chart.dim, chart.names.index(name)))
        m = _BASIS_RE.match(name)
        if m:
            index = int(m.group(1))
            if not 1 <= index <= chart.dim:
                raise DslError(f"basis index {index} out of range for "
                               f"dimension {chart.dim}", tok[2], tok[3])
            if name[0] == "e":
                return Multivector.basis_vector(chart, index - 1)
            return DifferentialForm.basis_form(chart, index - 1)
        binding = self.bindings.get(name)
        if binding is None:
            raise DslError(f"unknown identifier {name!r}", tok[2], tok[3])
        if binding.kind == "volume":
            raise DslError(f"volume {name!r} cannot be used in an expression",
                           tok[2], tok[3])
        return binding.value

    def binop(self, tok: _Token, op: str, left: Value, right: Value,
              named_divisor: bool = False) -> Value:
        kl, kr = _KIND[type(left)], _KIND[type(right)]
        if op == "+" or op == "-":
            if kl != kr:
                raise DslError(f"cannot add {kl} and {kr}", tok[2], tok[3])
            try:
                return left + right if op == "+" else left - right
            except ValueError as exc:
                raise DslError(str(exc), tok[2], tok[3]) from exc
        (ln, ld), (rn, rd) = _degrees(left), _degrees(right)
        if op == "/":
            rn, rd = rd, rn
        if max(ln + rn, ld + rd) > MAX_DEGREE:
            raise DslError(f"product too large to expand: its degree may "
                           f"pass {MAX_DEGREE}", tok[2], tok[3])
        if op == "*":
            if kl == kr == "scalar":
                return left * right
            if kl == "scalar":
                return right.scale(left)
            if kr == "scalar":
                return left.scale(right)
            raise DslError("use ^^ to combine non-scalar factors",
                           tok[2], tok[3])
        if op == "/":
            if kr != "scalar":
                raise DslError("division requires a scalar divisor",
                               tok[2], tok[3])
            if right.is_zero():
                if named_divisor:
                    raise ZeroDivisionError("division by a zero expression")
                raise DslError("division by zero constant", tok[2], tok[3])
            if kl == "scalar":
                return left / right
            return left.scale(right.inverse())
        # wedge
        if kl == "scalar":
            return right * left if kr == "scalar" else right.scale(left)
        if kr == "scalar":
            return left.scale(right)
        if kl != kr:
            raise DslError("wedge of mixed kinds (multivector vs form)",
                           tok[2], tok[3])
        return wedge(left, right)


# -- evaluation -------------------------------------------------------------


_KIND = {RationalFunc: "scalar", Multivector: "multivector",
         DifferentialForm: "form"}


def _power_terms(p: Polynomial, exponent: int) -> int:
    """Upper bound on the number of terms of p^exponent, exponent >= 0: a sum
    of t terms to the e has at most C(t+e-1, e) terms, and v variables allow
    at most C(v+e*deg, v) monomials of degree <= e*deg.  The bound grows with
    e and passes MAX_POWER_TERMS by e = MAX_POWER_TERMS once p has two terms,
    so capping e there keeps the binomials small without changing a verdict.
    At e = 1 the first bound, t, is the smaller.
    """
    t = len(p.nums)
    if t <= 1 or exponent <= 1:
        return max(t, 1) if exponent == 1 else 1
    e = min(exponent, MAX_POWER_TERMS)
    v = len(_variables_used(p))
    return min(comb(t + e - 1, e), comb(v + e * p.total_degree(), v))


def _scalars(value: Value):
    """The value's scalar coefficients: itself, or its blade coefficients."""
    return [value] if isinstance(value, RationalFunc) else value.terms.values()


def _degrees(value: Value) -> Tuple[int, int]:
    """Largest total degree of a numerator and of a denominator in the
    value; a product's numerators and denominators have at most the sums."""
    if isinstance(value, RationalFunc):
        return value.num.total_degree(), value.den.total_degree()
    scalars = value.terms.values()
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


class Binding(NamedTuple):
    kind: str  # func | mv | form | volume | lie
    name: str
    value: object


class Document(NamedTuple):
    chart: Chart
    bindings: List[Binding]

    def binding(self, name: str) -> Binding:
        for b in self.bindings:
            if b.name == name:
                return b
        raise DslError(f"no binding named {name!r}")

    def _value(self, name: str, *kinds: str):
        b = self.binding(name)
        if b.kind not in kinds:
            raise DslError(f"binding {name!r} is a {b.kind}, expected {kinds[0]}")
        return b.value

    def scalar(self, name: str) -> RationalFunc:
        return self._value(name, "func")

    def multivector(self, name: str) -> Multivector:
        return self._value(name, "mv", "lie")

    def lie(self, name: str) -> Multivector:
        """The proven linear Poisson bivector of a lie binding."""
        return self._value(name, "lie")

    def volume(self, name: Optional[str] = None) -> VolumeForm:
        if name is not None:
            return self._value(name, "volume")
        volumes = [b for b in self.bindings if b.kind == "volume"]
        if not volumes:
            return VolumeForm.unit(self.chart)
        if len(volumes) > 1:
            raise DslError("multiple volume bindings; select one with --volume")
        return volumes[0].value


def has_long_coefficient(value: Value) -> bool:
    """True if a coefficient of the value has more than MAX_POWER_DIGITS
    digits, so that it cannot be printed."""
    # c/den in lowest terms is (c/g)/(den/g), g = gcd(c, den): reduce only
    # the rare pair that passes the bound before reducing
    return any(max(abs(c), p.den) >= _DIGITS_BOUND
               and max(abs(c), p.den) // gcd(c, p.den) >= _DIGITS_BOUND
               for rf in _scalars(value) for p in (rf.num, rf.den)
               for c in p.nums.values())


def _chart(names: List[str], name_at: Optional[List[tuple]] = None,
           at: tuple = ()) -> Chart:
    """The chart of a document of either reader.  In a text document
    ``name_at`` holds each name's (line, column) and ``at`` the chart
    line's; JSON errors carry no position."""
    for i, name in enumerate(names):
        where = name_at[i] if name_at else ()
        if not _NAME_RE.fullmatch(name):
            raise DslError(f"invalid coordinate name {name!r}", *where)
        if name in _KEYWORDS or _BASIS_RE.match(name):
            raise DslError(f"reserved name {name!r} cannot be a coordinate",
                           *where)
    try:
        return Chart(names)
    except ValueError as exc:
        raise DslError(str(exc), *at) from exc


def _bind(bindings: Dict[str, Binding], chart: Chart, kind: str, name: str,
          read: Callable[[], Value], at: tuple = (),
          name_at: tuple = ()) -> None:
    """The binding step of both readers: check ``name``, read its value with
    ``read``, check the value against ``kind`` and add the binding.  In a
    text document ``at`` and ``name_at`` are the (line, column) of the
    keyword and of the name; JSON errors carry no position."""
    if not _NAME_RE.fullmatch(name):
        raise DslError(f"invalid binding name {name!r}", *name_at)
    if name in _KEYWORDS or _BASIS_RE.match(name):
        raise DslError(f"reserved name {name!r} cannot be bound", *name_at)
    if name in chart.names:
        raise DslError(f"name {name!r} is already a coordinate", *at)
    if name in bindings:
        raise DslError(f"duplicate binding name {name!r}", *at)
    value = read()
    # a product of powers can build a coefficient that no power check sees
    if has_long_coefficient(value):
        raise DslError(f"a coefficient has more than {MAX_POWER_DIGITS} digits",
                       *at)
    if kind == "func":
        if not isinstance(value, RationalFunc):
            raise DslError("func binding must be scalar", *at)
    elif kind == "mv":
        if isinstance(value, RationalFunc):
            value = Multivector.scalar(chart, value)
        if not isinstance(value, Multivector):
            raise DslError("mv binding must be a multivector", *at)
    elif kind == "form":
        if isinstance(value, RationalFunc):
            value = DifferentialForm.scalar(chart, value)
        if not isinstance(value, DifferentialForm):
            raise DslError("form binding must be a differential form", *at)
    elif kind == "volume":
        if isinstance(value, DifferentialForm):
            if value.grade != chart.dim or set(value.terms) - {chart.full_mask}:
                raise DslError("volume form must be a top-degree form", *at)
            value = value.terms.get(chart.full_mask,
                                    RationalFunc.zero(chart.dim))
        if not isinstance(value, RationalFunc):
            raise DslError("volume binding must be a scalar density or a "
                           "top-degree form", *at)
        if value.is_zero():
            raise DslError("volume density must be non-zero", *at)
        value = VolumeForm(chart, value)
    else:  # lie
        value = _lie_bivector(value, chart, at)
    bindings[name] = Binding(kind, name, value)


def _lie_bivector(value: Value, chart: Chart, at: tuple) -> Multivector:
    """The value of a lie binding: a bivector whose coefficients are
    homogeneous linear polynomials, read on the integer kernel, and which
    is proved to satisfy the Jacobi identity."""
    if isinstance(value, (RationalFunc, Multivector)) and value.is_zero():
        value = Multivector.zero(chart, 2)
    if not isinstance(value, Multivector) or value.grade != 2:
        raise DslError("lie binding must be a bivector", *at)
    for coeff in value.terms.values():
        if not coeff.den.is_one():
            raise DslError("lie binding coefficients must be polynomial", *at)
        # the constant monomial has the packed key 0
        if coeff.num.total_degree() != 1 or 0 in coeff.num.nums:
            raise DslError("lie binding requires homogeneous linear "
                           "coefficients", *at)
    try:
        require_poisson(value)
    except NonPoissonError as exc:
        raise DslError(str(exc), *at) from exc
    return value


def parse(text: str) -> Document:
    """Parse and evaluate a document; raises DslError with positions."""
    return _Parser(_tokenize(text)).document()


# -- canonical printing -----------------------------------------------------


def print_canonical(obj, chart: Optional[Chart] = None) -> str:
    """Deterministic text form; documents re-parse to an equal document."""
    if isinstance(obj, Document):
        lines = ["chart " + " ".join(obj.chart.names)]
        for b in obj.bindings:
            lines.append(f"{b.kind} {b.name} = "
                         f"{print_canonical(b.value, obj.chart)}")
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


# -- JSON -------------------------------------------------------------------


def _poly_to_json(p: Polynomial) -> list:
    return [{"exps": list(exps),
             "coeff": f"{num}" if den == 1 else f"{num}/{den}"}
            for exps, num, den in p.sorted_terms()]


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
    return {blade_mask(i - 1 for i in item["blade"]):
            _rf_from_json(nvars, item["coeff"]) for item in data}


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


def _value_from_json(chart: Chart, entry: dict) -> Value:
    n, kind = chart.dim, entry["kind"]
    if kind == "func":
        return _rf_from_json(n, entry["value"])
    if kind == "volume":
        return _rf_from_json(n, entry["density"])
    if kind in ("mv", "lie", "form"):
        cls = DifferentialForm if kind == "form" else Multivector
        return cls(chart, entry["grade"], _terms_from_json(n, entry["terms"]))
    raise DslError(f"unknown binding kind {kind!r} in JSON document")


def document_from_json(data: dict) -> Document:
    """Read a document written by ``document_to_json``; each entry passes the
    same binding step as a text binding."""
    chart = _chart(data["chart"])
    bindings: Dict[str, Binding] = {}
    for entry in data["bindings"]:
        _bind(bindings, chart, entry["kind"], entry["name"],
              lambda: _value_from_json(chart, entry))
    return Document(chart, list(bindings.values()))
