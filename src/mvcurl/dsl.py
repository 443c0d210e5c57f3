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
ahead of any other.  A syntax pass then reads every line and raises each
grammar and name error.  A binding is evaluated when it is first read, after
the bindings it reads; ``parse`` reads them all, in document order, so the
first error in reading order is reported.

A ``lie`` binding is its own bivector: its coefficients must be homogeneous
linear polynomials, and the Jacobi identity is proved on it as it is bound.
Text and JSON documents go through one binding step, so a JSON document
passes the same checks as a text one; its errors carry no position.
"""

from __future__ import annotations

import re
from math import comb, gcd, log10
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

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
# neither the syntax pass nor evaluation recurses on nesting, so this bound
# keeps documents readable rather than the stack safe
MAX_NESTING = 100
# expanding and printing a power costs about the square of its term count:
# (x+y+1)^43 has 990 terms, (x+y+1)^80 has 3321
MAX_POWER_TERMS = 1000
# Python's default limit on the digits of an int it converts to text: a
# coefficient past it could be computed but never printed
MAX_POWER_DIGITS = 4300
_DIGITS_BOUND = 10 ** MAX_POWER_DIGITS
# one match per token: the blanks before it, then a number (with the
# ``e3`` of a misspelt scientific-notation number, refused), a name, an
# operator, or any other character, refused where it stands; blanks are
# spaces and tabs
_TOKEN_RE = re.compile(
    r"([ \t]*)(?:([0-9]+)([eE][0-9]+)?"
    r"|([A-Za-z_][A-Za-z_0-9]*)"
    r"|(\^\^|[-+*/^()=])"
    r"|(.))")
# a name spelt as a basis symbol, e1 or d2; names reaching it are ASCII
_is_basis_symbol = re.compile(r"[ed][0-9]+").fullmatch
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
    # lines end at \n, \r\n or \r only, not as in str.splitlines at \x0b,
    # \x0c, \x1c-\x1e, \x85, U+2028 or U+2029, which are characters here
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
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


# -- the syntax pass --------------------------------------------------------

# each token kind that continues an expression, with its binary level,
# loosest first, and the operator it applies: a number, a name or "(" right
# after an operand is a juxtaposition, a product at the level of * and /
_BINARY = {"+": (1, "+"), "-": (1, "-"), "^^": (2, "^^"), "*": (3, "*"),
           "/": (3, "/"), "NUM": (3, "*"), "IDENT": (3, "*"), "(": (3, "*")}


class _Line(NamedTuple):
    """A binding as the syntax pass leaves it, ``at`` its keyword."""
    kind: str
    name: str
    at: tuple
    code: list


def _expected(kind: str, tok: _Token) -> DslError:
    got = tok[1] or tok[0].lower()
    return DslError(f"expected {kind.lower()}, found {got!r}", tok[2], tok[3])


class _Reader:
    """The syntax pass: it raises each grammar and name error and compiles
    each binding's expression to postfix code of ``(op, token, argument)``
    entries, whose errors are reported at the token.  A shunting-yard emits
    each operator exactly when a left-to-right evaluation would apply it, so
    code run in order meets values and errors in reading order."""

    def read(self, tokens: List[_Token]) -> Optional[DslError]:
        """Read the chart, raising its errors, then return the first error in
        the binding lines, with ``lines`` and ``code`` read up to it."""
        self.tokens, self.lines, pos = tokens, {}, 0
        while tokens[pos][0] == "NEWLINE":
            pos += 1
        head = tokens[pos]
        if head[0] != "IDENT":
            raise _expected("IDENT", head)
        if head[1] != "chart":
            raise DslError("document must start with a chart declaration",
                           head[2], head[3])
        names = []
        while tokens[pos + 1][0] == "IDENT":
            pos += 1
            names.append(tokens[pos])
        if not names:
            raise DslError("chart declaration needs coordinate names",
                           head[2], head[3])
        bad = tokens[pos + 1]
        if bad[0] != "NEWLINE" and bad[0] != "EOF":
            raise DslError(f"invalid coordinate name {bad[1]!r}", bad[2], bad[3])
        self.chart = _chart([t[1] for t in names],
                            [(t[2], t[3]) for t in names], (head[2], 1))
        # a coordinate is built as a basis symbol is: see ``symbol``
        self.coordinates = {name: (Chart.coordinate, i)
                            for i, name in enumerate(self.chart.names)}
        try:
            while True:
                pos += 1
                while tokens[pos][0] == "NEWLINE":
                    pos += 1
                kind, word, line, col = tokens[pos]
                if kind == "EOF":
                    return None
                self.code = []
                if kind != "IDENT" or word not in _KEYWORDS:
                    raise DslError(f"expected a binding keyword, found "
                                   f"{word or kind!r}", line, col)
                if word == "chart":
                    raise DslError("only one chart declaration is allowed",
                                   line, col)
                name = tokens[pos + 1]
                if name[0] != "IDENT":
                    raise _expected("IDENT", name)
                _check_name(self.lines, self.chart, name[1], (line, col),
                            (name[2], name[3]))
                if tokens[pos + 2][0] != "=":
                    raise _expected("=", tokens[pos + 2])
                pos = self.expression(pos + 3)
                if tokens[pos][0] != "NEWLINE" and tokens[pos][0] != "EOF":
                    raise DslError(f"unexpected {tokens[pos][1]!r} after "
                                   "expression", tokens[pos][2], tokens[pos][3])
                self.lines[name[1]] = _Line(word, name[1], (line, col), self.code)
        except DslError as exc:
            return exc

    def expression(self, pos: int) -> int:
        """Compile the expression at ``pos`` onto ``code``; return the
        position after it.  An operand is minus signs and parentheses, then
        an atom and its powers.  ``pending`` holds each open parenthesis and
        each binary operator waiting on its right operand; an operator first
        emits every pending one of its level or tighter."""
        tokens, coordinates, emit = self.tokens, self.coordinates, self.code.append
        depth = names_read = signs = 0  # names_read: see ``_binop``
        pending: List[tuple] = []
        while True:
            tok = tokens[pos]
            pos += 1
            if tok[0] == "-" or tok[0] == "(":
                if depth == MAX_NESTING:
                    raise DslError(f"expression nested deeper than "
                                   f"{MAX_NESTING} levels", tok[2], tok[3])
                depth += 1
                if tok[0] == "-":
                    signs += 1
                else:
                    pending.append((-1, tok, signs, names_read))
                    signs = 0
                continue
            before = names_read
            if tok[0] == "NUM":
                emit(("atom", tok, (Chart.constant, int(tok[1]))))
            elif tok[0] == "IDENT":
                names_read += 1
                emit(("atom", tok, coordinates.get(tok[1]) or self.symbol(tok)))
            else:
                raise DslError(f"expected an expression, found "
                               f"{tok[1] or tok[0].lower()!r}", tok[2], tok[3])
            while True:  # an atom, or a parenthesised operand, is read
                tok = tokens[pos]
                while tok[0] == "^":
                    negative = tokens[pos + 1][0] == "-"
                    exponent = tokens[pos + 1 + negative]
                    if exponent[0] != "NUM":
                        raise _expected("NUM", exponent)
                    e = int(exponent[1])
                    emit(("^", tok, (-e if negative else e,
                                     names_read > before)))
                    pos += 2 + negative
                    tok = tokens[pos]
                depth -= signs
                if signs % 2:
                    emit(("neg", None, None))
                level, op = _BINARY.get(tok[0], (0, None))
                while pending and pending[-1][0] >= level:
                    _, at, applied, right_from = pending.pop()
                    emit((applied, at, names_read > right_from))
                if level:
                    if op == tok[0]:
                        pos += 1  # an operator; a juxtaposed operand stays
                    pending.append((level, tok, op, names_read))
                    signs = 0
                    break
                if not pending:
                    return pos
                if tok[0] != ")":
                    raise _expected(")", tok)
                _, _, signs, before = pending.pop()
                depth -= 1
                pos += 1

    def symbol(self, tok: _Token) -> Optional[tuple]:
        """``(constructor, index)`` of basis symbol ``tok``; None for a binding."""
        name, chart = tok[1], self.chart
        line = self.lines.get(name)  # a bound name is never a basis symbol
        if line is not None:
            if line.kind == "volume":
                raise DslError(f"volume {name!r} cannot be used in an "
                               "expression", tok[2], tok[3])
            return None
        if not _is_basis_symbol(name):
            raise DslError(f"unknown identifier {name!r}", tok[2], tok[3])
        index = int(name[1:])
        if not 1 <= index <= chart.dim:
            raise DslError(f"basis index {index} out of range for "
                           f"dimension {chart.dim}", tok[2], tok[3])
        return (Multivector.basis_vector if name[0] == "e"
                else DifferentialForm.basis_form), index - 1


# -- evaluation -------------------------------------------------------------


_KIND = {RationalFunc: "scalar", Multivector: "multivector",
         DifferentialForm: "form"}


def _power(value: Value, degrees: Optional[tuple], op: _Token, exponent: int,
           named_base: bool) -> Value:
    """``value`` to the power after the ``^`` at ``op``; a zero base follows
    the rule of a zero divisor."""
    e = abs(exponent)
    if not isinstance(value, RationalFunc):
        raise DslError("powers apply to scalar expressions only", op[2], op[3])
    if exponent < 0 and value.is_zero():
        if named_base:
            raise ZeroDivisionError("zero expression to a negative power")
        raise DslError("zero to a negative power", op[2], op[3])
    if max(_power_terms(value.num, e),
           _power_terms(value.den, e)) > MAX_POWER_TERMS:
        raise DslError(f"power too large to expand: the result may have "
                       f"more than {MAX_POWER_TERMS} terms", op[2], op[3])
    # the inverse of n/d is (d/c)/(n/c), c the leading coefficient of n, so
    # the sum bounds either sign; each log10(H) is 0 or at least
    # log10(2) > 1/4, so capping e at 4*MAX_POWER_DIGITS keeps verdicts
    if min(e, 4 * MAX_POWER_DIGITS) * (
            _coefficient_digits(value.num)
            + _coefficient_digits(value.den)) >= MAX_POWER_DIGITS:
        raise DslError(f"power too large to expand: its coefficients may "
                       f"have more than {MAX_POWER_DIGITS} digits",
                       op[2], op[3])
    if e and max(degrees or _degrees(value)) * e > MAX_DEGREE:
        raise DslError(f"power too large to expand: its degree may pass "
                       f"{MAX_DEGREE}", op[2], op[3])
    return value ** exponent


def _binop(tok: _Token, op: str, left: tuple, right: tuple,
           named_divisor: bool) -> Value:
    """``left op right`` on two ``(value, degrees)`` operands.  A zero
    divisor that read no name is a constant (exit 2), one that read some a
    zero expression (exit 3)."""
    (lv, ldeg), (rv, rdeg) = left, right
    kl, kr = _KIND[type(lv)], _KIND[type(rv)]
    if op == "+" or op == "-":
        if kl != kr:
            raise DslError(f"cannot add {kl} and {kr}", tok[2], tok[3])
        try:
            return lv + rv if op == "+" else lv - rv
        except ValueError as exc:
            raise DslError(str(exc), tok[2], tok[3]) from exc
    (ln, ld), (rn, rd) = ldeg or _degrees(lv), rdeg or _degrees(rv)
    if op == "/":
        rn, rd = rd, rn
    if max(ln + rn, ld + rd) > MAX_DEGREE:
        raise DslError(f"product too large to expand: its degree may pass "
                       f"{MAX_DEGREE}", tok[2], tok[3])
    if op == "/":
        if kr != "scalar":
            raise DslError("division requires a scalar divisor", tok[2], tok[3])
        if rv.is_zero():
            if named_divisor:
                raise ZeroDivisionError("division by a zero expression")
            raise DslError("division by zero constant", tok[2], tok[3])
        return lv / rv if kl == "scalar" else lv.scale(rv.inverse())
    # a product or a wedge with a scalar factor scales the other factor
    if kl == "scalar":
        return lv * rv if kr == "scalar" else rv.scale(lv)
    if kr == "scalar":
        return lv.scale(rv)
    if op == "*":
        raise DslError("use ^^ to combine non-scalar factors", tok[2], tok[3])
    if kl != kr:
        raise DslError("wedge of mixed kinds (multivector vs form)",
                       tok[2], tok[3])
    return wedge(lv, rv)


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


class Document:
    """A chart and its bindings in document order; a text binding is
    evaluated once, when first read, after the bindings it reads."""

    def __init__(self, chart: Chart, entries: Dict[str, Union[Binding, _Line]]):
        # _entries: a Binding once evaluated, a _Line before; _symbols: see _run
        self.chart, self._entries, self._symbols = chart, entries, {}

    @property
    def bindings(self) -> List[Binding]:
        """Every binding, evaluated, in document order."""
        for entry in list(self._entries.values()):
            if type(entry) is _Line:
                self._evaluate(entry)
        return list(self._entries.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Document):
            return NotImplemented
        return self.chart == other.chart and self.bindings == other.bindings

    def __repr__(self) -> str:
        """The chart and each entry; only an evaluated one shows its value."""
        entries = "".join(f"; {e.kind} {e.name}" + (
            f" = {print_canonical(e.value, self.chart)}" if type(e) is Binding
            else "") for e in self._entries.values())
        return f"Document(chart {' '.join(self.chart.names)}{entries})"

    def binding(self, name: str) -> Binding:
        entry = self._entries.get(name)
        if entry is None:
            raise DslError(f"no binding named {name!r}")
        if type(entry) is _Line:
            # it reads only bindings above it: one sweep up finds them all
            wanted, lines = {name}, []
            for line in reversed(list(self._entries.values())):
                if line.name in wanted and type(line) is _Line:
                    wanted.update(tok[1] for op, tok, arg in line.code
                                  if op == "atom" and arg is None)
                    lines.append(line)
            for line in reversed(lines):
                self._evaluate(line)
        return self._entries[name]

    def _evaluate(self, line: _Line) -> None:
        self._entries[line.name] = _bind(line.kind, line.name,
                                         self._run(line.code)[-1][0],
                                         self.chart, line.at)

    def _run(self, code: list) -> list:
        """The stack of ``(value, degrees)`` operands that ``code`` leaves,
        degrees None until needed; each number and name is built once."""
        chart, symbols, stack = self.chart, self._symbols, []
        for op, tok, arg in code:
            if op == "atom":
                operand = symbols.get(tok[1])
                if operand is None:
                    value = (self._entries[tok[1]].value if arg is None
                             else arg[0](chart, arg[1]))
                    operand = symbols[tok[1]] = (value, _degrees(value))
                stack.append(operand)
            elif op == "neg":
                stack[-1] = (-stack[-1][0], stack[-1][1])
            elif op == "^":
                stack.append((_power(*stack.pop(), tok, *arg), None))
            else:
                right = stack.pop()
                stack.append((_binop(tok, op, stack.pop(), right, arg), None))
        return stack

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
        """The volume binding ``name``, else the only one, else the unit
        volume; no other volume binding is evaluated."""
        if name is None:
            volumes = [n for n, e in self._entries.items() if e.kind == "volume"]
            if len(volumes) > 1:
                raise DslError("multiple volume bindings; select one with --volume")
            if not volumes:
                return VolumeForm.unit(self.chart)
            name = volumes[0]
        return self._value(name, "volume")


def has_long_coefficient(value: Value) -> bool:
    """True if a coefficient of the value has more than MAX_POWER_DIGITS
    digits, so that it cannot be printed."""
    # c/den in lowest terms is (c/g)/(den/g), g = gcd(c, den): reduce only
    # the rare pair that passes the bound before reducing
    scalars = [value] if isinstance(value, RationalFunc) else value.terms.values()
    return any(max(abs(c), p.den) >= _DIGITS_BOUND
               and max(abs(c), p.den) // gcd(c, p.den) >= _DIGITS_BOUND
               for rf in scalars for p in (rf.num, rf.den)
               for c in p.nums.values())


def _chart(names: List[str], name_at: Optional[List[tuple]] = None,
           at: tuple = ()) -> Chart:
    """The chart of a document of either reader.  In a text document
    ``name_at`` holds each name's (line, column) and ``at`` the chart
    line's; JSON errors carry no position."""
    for i, name in enumerate(names):
        where = name_at[i] if name_at else ()
        if not (isinstance(name, str) and name.isascii() and name.isidentifier()):
            raise DslError(f"invalid coordinate name {name!r}", *where)
        if name in _KEYWORDS or _is_basis_symbol(name):
            raise DslError(f"reserved name {name!r} cannot be a coordinate",
                           *where)
    try:
        return Chart(names)
    except ValueError as exc:
        raise DslError(str(exc), *at) from exc


def _check_name(bound, chart: Chart, name: str, at: tuple = (),
                name_at: tuple = ()) -> None:
    """Check a binding's name against the chart and the names ``bound``;
    ``at`` and ``name_at`` place the keyword and the name, if known."""
    if name in _KEYWORDS or _is_basis_symbol(name):
        raise DslError(f"reserved name {name!r} cannot be bound", *name_at)
    if name in chart.names:
        raise DslError(f"name {name!r} is already a coordinate", *at)
    if name in bound:
        raise DslError(f"duplicate binding name {name!r}", *at)


def _bind(kind: str, name: str, value: Value, chart: Chart,
          at: tuple = ()) -> Binding:
    """The checked binding of ``kind`` that an expression's value makes."""
    # a product of powers can build a coefficient that no power check sees
    if has_long_coefficient(value):
        raise DslError(f"a coefficient has more than {MAX_POWER_DIGITS} digits",
                       *at)
    if kind == "func":
        if not isinstance(value, RationalFunc):
            raise DslError("func binding must be scalar", *at)
    elif kind == "mv" or kind == "form":
        cls, what = ((Multivector, "a multivector") if kind == "mv"
                     else (DifferentialForm, "a differential form"))
        if isinstance(value, RationalFunc):
            value = cls.scalar(chart, value)
        if not isinstance(value, cls):
            raise DslError(f"{kind} binding must be {what}", *at)
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
    return Binding(kind, name, value)


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


def parse(text: str, *, deferred: bool = False) -> Document:
    """Read a document; raises DslError with positions.  After the syntax
    pass every binding is evaluated in document order, then the code before
    a syntax error, so the first error in reading order wins.  With
    ``deferred`` a syntax error is raised at once, and a binding is
    evaluated when it is first read."""
    reader = _Reader()
    error = reader.read(_tokenize(text))
    doc = Document(reader.chart, reader.lines)
    if not deferred:
        doc.bindings  # evaluates every binding
        if error is not None:
            doc._run(reader.code)
    if error is not None:
        raise error
    return doc


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


def _key(obj, key: str, kind: type = object):
    """obj[key], which must exist and be a ``kind``, else a DslError."""
    if not isinstance(obj, dict) or key not in obj:
        raise DslError(f"expected a JSON object with key {key!r}")
    if not isinstance(obj[key], kind):
        raise DslError(f"JSON key {key!r} holds {obj[key]!r}, not a {kind.__name__}")
    return obj[key]


def _poly_from_json(nvars: int, data: list) -> Polynomial:
    return Polynomial(nvars, {tuple(_key(t, "exps", list)): _key(t, "coeff") for t in data})


def _rf_to_json(rf: RationalFunc) -> dict:
    return {"num": _poly_to_json(rf.num), "den": _poly_to_json(rf.den)}


def _rf_from_json(nvars: int, data: dict) -> RationalFunc:
    return RationalFunc(_poly_from_json(nvars, _key(data, "num", list)),
                        _poly_from_json(nvars, _key(data, "den", list)))


def _terms_to_json(obj) -> list:
    return [{"blade": [i + 1 for i in blade_indices(mask)],
             "coeff": _rf_to_json(coeff)}
            for mask, coeff in obj.sorted_terms()]


def _terms_from_json(nvars: int, data: list) -> Dict[int, RationalFunc]:
    return {blade_mask(i - 1 for i in _key(item, "blade", list)):
            _rf_from_json(nvars, _key(item, "coeff")) for item in data}


def value_to_json(value, chart: Chart) -> dict:
    """Kind-tagged lossless encoding of a single computation result."""
    if isinstance(value, RationalFunc):
        return {"kind": "func", "value": _rf_to_json(value)}
    if isinstance(value, (Multivector, DifferentialForm)):
        return {"kind": "mv" if isinstance(value, Multivector) else "form",
                "grade": value.grade, "terms": _terms_to_json(value)}
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
        return _rf_from_json(n, _key(entry, "value"))
    if kind == "volume":
        return _rf_from_json(n, _key(entry, "density"))
    if kind in ("mv", "lie", "form"):
        cls = DifferentialForm if kind == "form" else Multivector
        return cls(chart, _key(entry, "grade", int),
                   _terms_from_json(n, _key(entry, "terms", list)))
    raise DslError(f"unknown binding kind {kind!r} in JSON document")


def document_from_json(data: dict) -> Document:
    """Read a document written by ``document_to_json``; each entry passes the
    same binding step as a text binding."""
    chart = _chart(_key(data, "chart", list))
    bindings: Dict[str, Binding] = {}
    for entry in _key(data, "bindings", list):
        kind, name = _key(entry, "kind"), _key(entry, "name", str)
        if not (name.isascii() and name.isidentifier()):  # as IDENT tokens are
            raise DslError(f"invalid binding name {name!r}")
        _check_name(bindings, chart, name)
        try:  # such as a blade outside its grade or the chart
            bindings[name] = _bind(kind, name, _value_from_json(chart, entry), chart)
        except ValueError as exc:
            raise DslError(str(exc)) from exc
    return Document(chart, bindings)
