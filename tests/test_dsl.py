"""Parser, evaluator, canonical printer, and JSON codec behavior."""

import json
import random
import sys
from fractions import Fraction
from math import comb, lcm, log10

import pytest

from mvcurl.dsl import (
    MAX_POWER_DIGITS,
    MAX_POWER_TERMS,
    DslError,
    document_from_json,
    document_to_json,
    has_long_coefficient,
    parse,
    print_canonical,
    value_to_json,
)
from mvcurl import dsl
from mvcurl.dsl import _coefficient_digits, _power_terms
from mvcurl.exterior import Chart, DifferentialForm, Multivector, VolumeForm
from mvcurl.poisson import StructureConstants, lie_poisson
from mvcurl.ring import Polynomial, RationalFunc

F = Fraction


# -- parsing and evaluation -------------------------------------------------


def test_basic_document():
    doc = parse("chart x y\nvolume V = 1\nmv P = (x^2+y+1) e1^^e2\n")
    assert doc.chart.names == ("x", "y")
    p = doc.multivector("P")
    assert p.grade == 2
    assert p.terms[0b11].num.terms == {(2, 0): F(1), (0, 1): F(1), (0, 0): F(1)}


def test_repeated_basis_vector_gives_typed_zero():
    doc = parse("chart x y\nmv X = e1 ^^ e1\n")
    x = doc.multivector("X")
    assert x.is_zero()
    assert x.grade == 2


def test_reciprocal_function_binding():
    doc = parse("chart x y\nfunc m = 1/(x^2+y^2+1)\n")
    m = doc.scalar("m")
    assert m.num.is_one()
    assert m.den.terms == {(2, 0): F(1), (0, 2): F(1), (0, 0): F(1)}


def test_precedence_and_juxtaposition():
    doc = parse("chart x y\n"
                "func a = 2x + 3/2*y\n"
                "func b = -x^2\n"
                "func c = (x+1)(y+1)\n"
                "func d = x^-1\n"
                "mv E = x e1 ^^ y e2 + e1^^e2\n")
    x = RationalFunc(Polynomial.variable(2, 0))
    y = RationalFunc(Polynomial.variable(2, 1))
    one = RationalFunc.constant(2, 1)
    assert doc.scalar("a") == x.scale(2) + y.scale(F(3, 2))
    assert doc.scalar("b") == (x * x).scale(-1)
    assert doc.scalar("c") == (x + one) * (y + one)
    assert doc.scalar("d") == x.inverse()
    # wedge binds looser than juxtaposition: (x e1) ^^ (y e2) + blade
    assert doc.multivector("E").terms[0b11] == x * y + one


def test_power_is_left_associative_on_scalars():
    doc = parse("chart x\nfunc a = x^2^3\n")
    assert doc.scalar("a") == RationalFunc(Polynomial.monomial(1, (6,)))


def test_references_between_bindings():
    doc = parse("chart x y\n"
                "func h = x^2 + 1\n"
                "mv A = h e1\n"
                "mv B = A ^^ e2\n"
                "lie g = y e1^^e2\n"
                "mv C = g\n")
    assert doc.multivector("B").terms[0b11].num.terms == {(2, 0): F(1), (0, 0): F(1)}
    assert doc.multivector("C") == doc.multivector("g")


def test_scalar_coercion_into_mv_and_form():
    doc = parse("chart x y\nmv s = x + 1\nform t = 2\n")
    assert doc.multivector("s").grade == 0
    assert doc.binding("t").value == DifferentialForm.scalar(
        doc.chart, RationalFunc.constant(2, 2))


def test_volume_from_density_and_top_form():
    doc = parse("chart x y\nvolume V = x^2 + 1\n")
    assert doc.volume("V").density.num.terms == {(2, 0): F(1), (0, 0): F(1)}
    doc2 = parse("chart x y\nvolume W = (x^2+1) d1^^d2\n")
    assert doc2.volume("W") == doc.volume("V")


def test_default_volume_selection():
    doc = parse("chart x y\nmv P = e1^^e2\n")
    assert doc.volume() == VolumeForm.unit(doc.chart)
    doc2 = parse("chart x y\nvolume V = 2\n")
    assert doc2.volume().density == RationalFunc.constant(2, 2)
    doc3 = parse("chart x y\nvolume V = 1\nvolume W = 2\n")
    with pytest.raises(DslError, match="--volume"):
        doc3.volume()
    assert doc3.volume("W").density == RationalFunc.constant(2, 2)


def test_comments_and_blank_lines():
    doc = parse("chart x y   # the plane\n\n# a constant\nfunc c = 3\n")
    assert doc.scalar("c") == RationalFunc.constant(2, 3)
    # blanks are spaces and tabs; a comment may hold any character
    doc = parse("chart\tx  y\n\t func c =\t3 \t# 3\u00a0000\n  \n")
    assert doc.scalar("c") == RationalFunc.constant(2, 3)


def test_lie_binding_constants():
    # a lie binding is its own bivector: the linear bivector of so(3)
    doc = parse("chart x y z\nlie g = z e1^^e2 + x e2^^e3 + y e3^^e1\n")
    so3 = StructureConstants(3, {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1})
    assert doc.lie("g") == lie_poisson(so3, doc.chart)
    assert doc.multivector("g") is doc.lie("g")


# -- error reporting --------------------------------------------------------


@pytest.mark.parametrize("source,fragment,line", [
    ("chart x y\nfunc a = 1/0\n", "zero constant", 2),
    ("chart e1 y\n", "reserved", 1),
    ("chart x x\n", "", 1),
    ("chart x y\nmv a = e1 ^^ d1\n", "mixed kinds", 2),
    ("chart x y\nfunc a = b + 1\n", "unknown identifier", 2),
    ("chart x y\nfunc a = 1\nfunc a = 2\n", "duplicate", 3),
    ("chart x y\nfunc x = 1\n", "coordinate", 2),
    ("chart x y\nchart z\n", "one chart", 2),
    ("chart x y\nmv a = (x\n", "expected )", 2),
    ("chart x y\nmv a = e1 e1\n", "", 2),
    ("chart x y\nlie g = x^2 e1^^e2\n", "linear", 2),
    ("chart x y\nlie g = (x + 1) e1^^e2\n", "linear", 2),
    ("chart x y\nlie g = 1/x e1^^e2\n", "polynomial", 2),
    ("chart x y\nlie g = e1\n", "bivector", 2),
    ("chart x y z\nlie g = z e1^^e2 + x e1^^e3\n", "Jacobi", 2),
    ("chart x y\nvolume V = 0\n", "non-zero", 2),
    ("chart x y\nvolume V = x d1\n", "top-degree", 2),
    ("chart x y\nfunc a = e1 + 1\n", "cannot add", 2),
    ("chart x y\nmv a = e3\n", "out of range", 2),
    ("chart x y\nfunc a = x / e1\n", "scalar divisor", 2),
    ("chart x y\nmv a = e1 ^ 2\n", "scalar", 2),
    ("chart x y\nfunc a = x + 1 !\n", "unexpected character", 2),
    ("mv a = e1\n", "chart declaration", 1),
])
def test_error_positions(source, fragment, line):
    with pytest.raises(DslError) as err:
        parse(source)
    if fragment:
        assert fragment in str(err.value)
    assert err.value.line == line


@pytest.mark.parametrize("body, col, message", [
    ("1e3 x", 8, "1e3 looks like scientific notation, which documents do not "
                 "have: write 1*e3 for a product, or 1000"),
    ("x + 25E2", 12, "25E2 looks like scientific notation, which documents do "
                     "not have: write 25*E2 for a product, or 2500"),
    ("2e1x", 8, "write 2*e1 for a product, or 20"),
    ("7e123 e1", 8, "write 7*e123 for a product, or the number written out"),
])
def test_scientific_notation_look_alikes_are_refused(body, col, message):
    with pytest.raises(DslError) as err:
        parse(f"chart x y z\nmv P = {body}\n")
    assert (err.value.line, err.value.col) == (2, col)
    assert message in err.value.message


# whitespace other than a space or a tab is not a blank: it is refused, and
# the rest of the line is never dropped
STRAY_BLANKS = ["\u00a0", "\u2009", "\u3000", "\u001f"]


@pytest.mark.parametrize("char", STRAY_BLANKS)
def test_stray_whitespace_is_refused_where_it_stands(char):
    with pytest.raises(DslError) as err:
        parse(f"chart x y\nfunc f = x{char}+ y*y\n")
    assert (err.value.line, err.value.col) == (2, 11)
    assert err.value.message == f"unexpected character {char!r}"


@pytest.mark.parametrize("char", STRAY_BLANKS)
def test_stray_whitespace_at_the_end_of_a_line_is_refused(char):
    with pytest.raises(DslError) as err:
        parse(f"chart x y{char}\nfunc f = x + y*y{char}\n")
    assert (err.value.line, err.value.col) == (1, 10)
    assert err.value.message == f"unexpected character {char!r}"
    with pytest.raises(DslError) as err:
        parse(f"chart x y\nfunc f = x + y*y{char}\n")
    assert (err.value.line, err.value.col) == (2, 17)


@pytest.mark.parametrize("source, line, col, char", [
    ("chart x y\nfunc f = x + y\x85", 2, 15, "\x85"),
    ("chart x y\nfunc f = x\u2028func g = y", 2, 11, "\u2028"),
    ("chart x y\nfunc f = x\x1c+ y", 2, 11, "\x1c"),
    ("chart x y\x0b\nfunc f = x", 1, 10, "\x0b"),
    ("chart x y\nfunc f = x\u2029", 2, 11, "\u2029"),
])
def test_unicode_line_breaks_are_characters(source, line, col, char):
    # lines end at \n, \r\n and \r only; str.splitlines ends them at more
    with pytest.raises(DslError) as err:
        parse(source)
    assert (err.value.line, err.value.col) == (line, col)
    assert err.value.message == f"unexpected character {char!r}"


def test_line_ends_and_the_end_of_input():
    for source in ("chart x y\nfunc f = x\n", "chart x y\r\nfunc f = x\r\n",
                   "chart x y\rfunc f = x\r", "chart x y\nfunc f = x"):
        assert parse(source).scalar("f") == RationalFunc.variable(2, 0)
    # inside a comment a line break character is part of the comment
    doc = parse("chart x y # a\x85b\u2028c\nfunc f = y # \x0c\n")
    assert doc.scalar("f") == RationalFunc.variable(2, 1)
    # the end of input is on the line after the last line end
    for source, line in (("", 1), ("\n\n", 3), ("\r\n\r", 3), ("\n \n", 3)):
        with pytest.raises(DslError) as err:
            parse(source)
        assert err.value.line == line


# a document with more than one error reports the first lexical error, if
# any, and otherwise the first error in reading order (more cases with exit
# codes are in test_cli.py)
@pytest.mark.parametrize("source, message, line, col", [
    ("chart x y\nfunc f = e1 + 1\nfunc g = x y)\n", "cannot add multivector "
     "and scalar", 2, 13),
    # juxtaposition binds at the level of *: e1 2 is a product before * e2
    ("chart x y\nmv P = e1 2 * e2\n", "use ^^ to combine non-scalar factors",
     2, 13),
    ("chart x y\nfunc f = q + (\nfunc g = 1e3\n", "1e3 looks like "
     "scientific notation, which documents do not have: write 1*e3 for a "
     "product, or 1000", 3, 10),
])
def test_errors_come_in_reading_order(source, message, line, col):
    with pytest.raises(DslError) as err:
        parse(source)
    assert (err.value.message, err.value.line, err.value.col) == (
        message, line, col)


def _frames() -> int:
    frame, count = sys._getframe(), 0
    while frame is not None:
        frame, count = frame.f_back, count + 1
    return count


def test_nesting_limit_leaves_room_for_callers():
    # 99 parentheses around a rational body whose own parentheses reach the
    # limit, and whose division needs a non-trivial gcd in 16 variables,
    # still parse when the call to parse is 600 frames deep
    names = [f"x{i}" for i in range(1, 17)]
    s = "+".join(names)
    source = ("chart " + " ".join(names) + "\nfunc f = " + "(" * 99
              + f"({s})^2/({s})" + ")" * 99 + "\n")

    def below(frames):
        return below(frames - 1) if frames > 1 else parse(source)

    doc = below(600 - _frames())
    assert doc.scalar("f") == sum((RationalFunc.variable(16, i)
                                   for i in range(16)), RationalFunc.zero(16))
    with pytest.raises(DslError, match="nested deeper than 100 levels"):
        parse(source.replace("func f = ", "func f = ("))


def test_a_long_chain_of_bindings_is_read_without_recursion():
    # each binding reads the one above it, so reading the last one evaluates
    # all 3000, in one sweep, from a call 600 frames deep
    source = "chart x\nfunc f0 = x\n" + "".join(
        f"func f{i} = f{i - 1} + 1\n" for i in range(1, 3000))

    def below(frames):
        if frames > 1:
            return below(frames - 1)
        return parse(source, deferred=True).scalar("f2999")

    assert below(600 - _frames()) == (RationalFunc.variable(1, 0)
                                      + RationalFunc.constant(1, 2999))


def test_a_binding_is_evaluated_once_when_first_read(monkeypatch):
    evaluated = []
    bind = dsl._bind

    def recording_bind(kind, name, *rest):
        evaluated.append(name)
        return bind(kind, name, *rest)

    monkeypatch.setattr(dsl, "_bind", recording_bind)
    doc = parse("chart x y\nfunc q = x + 1\nfunc f = 1/q\nfunc u = 1/(y-y)\n"
                "mv A = f e1\nmv B = q f e2\n", deferred=True)
    assert evaluated == []
    for name in ("B", "A", "B"):
        doc.multivector(name)
    # B's dependencies in document order, then B; A's only new one is A
    assert evaluated == ["q", "f", "B", "A"]
    with pytest.raises(ZeroDivisionError):
        doc.scalar("u")


def test_computed_zero_division_is_a_math_error():
    with pytest.raises(ZeroDivisionError):
        parse("chart x y\nfunc a = 1/(x - x)\n")
    with pytest.raises(ZeroDivisionError):
        parse("chart x y\nfunc z = 0\nfunc a = 1/z\n")


def test_volume_name_not_usable_in_expressions():
    with pytest.raises(DslError, match="expression"):
        parse("chart x y\nvolume V = 1\nfunc a = V + 1\n")


# -- canonical printing -----------------------------------------------------


def test_print_canonical_document_round_trip():
    source = ("chart x y\n"
              "volume V = 1\n"
              "func h = x^2 + y^2 + 1\n"
              "func m = (1)/(x^2 + y^2 + 1)\n"
              "mv P = (x^2 + y^2 + 1) e1^^e2\n")
    doc = parse(source)
    assert print_canonical(doc) == source
    assert parse(print_canonical(doc)) == doc


def test_print_canonical_values():
    doc = parse("chart x y\nmv A = x e1 + (-1) e2\nform w = d1^^d2\n")
    assert print_canonical(doc.multivector("A")) == "(x) e1 + (-1) e2"
    assert print_canonical(doc.binding("w").value) == "(1) d1^^d2"
    assert print_canonical(Multivector.zero(doc.chart, 2)) == "0"
    assert print_canonical(doc.volume()) == "1"
    assert print_canonical(RationalFunc.constant(2, 7), doc.chart) == "7"
    with pytest.raises(ValueError):
        print_canonical(RationalFunc.constant(2, 7))


def test_print_normalizes_once_then_is_stable():
    messy = "chart x y\nmv P = y e1^^e2 + x e1 ^^ e2 + 0 e1^^e2\n"
    first = print_canonical(parse(messy))
    assert first == "chart x y\nmv P = (x + y) e1^^e2\n"
    assert print_canonical(parse(first)) == first


# -- JSON -------------------------------------------------------------------


def test_json_document_round_trip():
    doc = parse("chart x y z\n"
                "volume V = x^2 + 1\n"
                "func m = 1/(x*y - z)\n"
                "mv P = (x - 1/3*y) e1^^e2 + z e1^^e3\n"
                "form w = x d2\n"
                "lie g = z e1^^e2\n"
                "mv Z = e1 ^^ e1\n")
    encoded = json.dumps(document_to_json(doc))
    restored = document_from_json(json.loads(encoded))
    assert restored == doc
    assert document_to_json(restored) == document_to_json(doc)
    assert restored.lie("g") == lie_poisson(
        StructureConstants(3, {(0, 1, 2): 1}), doc.chart)
    # the typed zero keeps its grade through JSON
    assert restored.multivector("Z").grade == 2


def test_json_value_encoding_uses_exact_strings():
    doc = parse("chart x y\nfunc m = 3/2*x\n")
    payload = value_to_json(doc.scalar("m"), doc.chart)
    assert payload == {"kind": "func",
                       "value": {"num": [{"exps": [1, 0], "coeff": "3/2"}],
                                 "den": [{"exps": [0, 0], "coeff": "1"}]}}


def test_json_reader_refuses_float_coefficients():
    # coefficients travel as exact strings; a JSON number such as 0.1 is a
    # binary float, never the rational its digits show
    data = document_to_json(parse("chart x y\nfunc m = 1/10*x\n"))
    assert document_from_json(data) == parse("chart x y\nfunc m = 1/10*x\n")
    data["bindings"][0]["value"]["num"][0]["coeff"] = 0.1
    with pytest.raises(TypeError, match="inexact coefficient"):
        document_from_json(data)


def _json_entries(source, **changes):
    """The JSON document of ``source`` with its last binding entry updated by
    ``changes``."""
    data = document_to_json(parse(source))
    data["bindings"][-1].update(changes)
    return data


@pytest.mark.parametrize("source, data", [
    # a grade-3 lie entry
    ("chart x y z\nlie g = x e1^^e2^^e3\n",
     _json_entries("chart x y z\nmv g = x e1^^e2^^e3\n", kind="lie")),
    # binding names that are a coordinate, a basis symbol, a duplicate
    ("chart x y\nfunc x = 1\n", _json_entries("chart x y\nfunc f = 1\n",
                                               name="x")),
    ("chart x y\nfunc e1 = 1\n", _json_entries("chart x y\nfunc f = 1\n",
                                                name="e1")),
    ("chart x y\nfunc a = 1\nfunc a = 2\n",
     _json_entries("chart x y\nfunc a = 1\nfunc b = 2\n", name="a")),
    # a zero volume density
    ("chart x y\nvolume V = 0\n",
     _json_entries("chart x y\nvolume V = 1\n",
                   density={"num": [], "den": [{"exps": [0, 0], "coeff": "1"}]})),
    # lie entries that are not linear, not polynomial or not Poisson
    ("chart x y\nlie g = x^2 e1^^e2\n",
     _json_entries("chart x y\nmv g = x^2 e1^^e2\n", kind="lie")),
    ("chart x y\nlie g = 1/x e1^^e2\n",
     _json_entries("chart x y\nmv g = 1/x e1^^e2\n", kind="lie")),
    ("chart x y z\nlie g = z e1^^e2 + x e1^^e3\n",
     _json_entries("chart x y z\nmv g = z e1^^e2 + x e1^^e3\n", kind="lie")),
    # a reserved coordinate name
    ("chart e1 y\n", {"chart": ["e1", "y"], "bindings": []}),
])
def test_json_reader_refuses_what_the_text_parser_refuses(source, data):
    with pytest.raises(DslError) as text_err:
        parse(source)
    with pytest.raises(DslError) as json_err:
        document_from_json(data)
    # the same message; a JSON error has no position
    assert json_err.value.message == text_err.value.message
    assert (json_err.value.line, json_err.value.col) == (None, None)
    assert str(json_err.value) == text_err.value.message
    assert not str(json_err.value).startswith("line ")


def test_json_reader_refuses_names_the_grammar_cannot_read():
    # such a document would print text that does not parse
    with pytest.raises(DslError, match=r"^invalid coordinate name 'x y'$"):
        document_from_json({"chart": ["x y"], "bindings": []})
    with pytest.raises(DslError, match=r"^invalid coordinate name '\u00e9'$"):
        document_from_json({"chart": ["\u00e9"], "bindings": []})
    data = _json_entries("chart x y\nfunc f = x\n", name="f 2")
    with pytest.raises(DslError, match=r"^invalid binding name 'f 2'$"):
        document_from_json(data)


def test_lie_binding_of_a_zero_is_the_zero_bivector():
    for body in ("0", "0 e1", "x e1 - x e1"):
        value = parse(f"chart x y\nlie g = {body}\n").lie("g")
        assert value.is_zero() and value.grade == 2
    with pytest.raises(DslError, match="must be a bivector"):
        parse("chart x y\nlie g = 0 d1\n")


BOUND = 10 ** MAX_POWER_DIGITS


@pytest.mark.parametrize("terms, long", [
    ({(1, 0): Fraction(1, BOUND), (0, 1): Fraction(1, 3)}, True),
    ({(1, 0): Fraction(BOUND), (0, 1): 1}, True),
    ({(1, 0): Fraction(BOUND - 1), (0, 1): 1}, False),
    # the common denominator 3·BOUND/2 passes the bound, but each
    # coefficient in lowest terms stays below it
    ({(1, 0): Fraction(2, BOUND), (0, 1): Fraction(1, 3)}, False),
    ({(1, 0): Fraction(BOUND - 1, 3), (0, 1): Fraction(1, 2)}, False),
])
def test_long_coefficients_are_judged_in_lowest_terms(terms, long):
    value = RationalFunc(Polynomial(2, terms))
    assert has_long_coefficient(value) is long
    assert has_long_coefficient(Multivector(Chart(["x", "y"]), 1, {1: value})) is long


# -- power budgets ----------------------------------------------------------


def ref_coefficient_digits(p):
    """log10 of max(D, |D*p|_1) through the Fraction view of p."""
    coeffs = p.terms.values()
    den = lcm(*(c.denominator for c in coeffs))
    return log10(max(den, sum(abs(c.numerator) * (den // c.denominator)
                              for c in coeffs)))


def ref_power_terms(p, exponent):
    """The term bound for p^exponent through the Fraction view of p."""
    t = len(p.terms)
    if t <= 1:
        return 1
    e = min(exponent, MAX_POWER_TERMS)
    v = sum(1 for i in range(p.nvars) if any(exps[i] for exps in p.terms))
    return min(comb(t + e - 1, e), comb(v + e * p.total_degree(), v))


def seeded_polynomial(rng, nvars):
    used = rng.sample(range(nvars), rng.randint(1, nvars))
    terms = {}
    for _ in range(rng.randint(0, 6)):
        exps = tuple(rng.randint(0, 4) if i in used else 0
                     for i in range(nvars))
        den = rng.choice([1, 2, 6, rng.randint(1, 10 ** 6),
                          rng.randint(1, 10 ** 40)])
        terms[exps] = Fraction(rng.randint(-10 ** rng.randint(0, 30),
                                           10 ** rng.randint(0, 30)), den)
    return Polynomial(nvars, terms)


@pytest.mark.parametrize("seed", range(40))
def test_budgets_match_the_fraction_view(seed):
    rng = random.Random(seed)
    for nvars in range(1, 5):
        for _ in range(5):
            p = seeded_polynomial(rng, nvars)
            assert _coefficient_digits(p) == ref_coefficient_digits(p)
            for exponent in (0, 1, 2, 7, 43, 10 ** 6):
                assert _power_terms(p, exponent) == ref_power_terms(p, exponent)


def test_budgets_of_named_polynomials():
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    third = Polynomial.constant(2, Fraction(1, 3))
    for p in (Polynomial.zero(2), Polynomial.constant(2, 1), third,
              x + third, x * y * third + Polynomial.constant(2, Fraction(5, 2)),
              (x + y + Polynomial.constant(2, 1)) ** 3):
        assert _coefficient_digits(p) == ref_coefficient_digits(p)
        assert _power_terms(p, 43) == ref_power_terms(p, 43)
    # (x + y + 1)^43 has C(45, 2) = 990 terms
    assert _power_terms(x + y + Polynomial.constant(2, 1), 43) == 990
    # a polynomial in x alone bounds by degree: at most 86 + 1 monomials
    x3 = Polynomial.variable(3, 0)
    assert _power_terms(x3 * x3 + x3 + Polynomial.constant(3, 1), 43) == 87
    assert _coefficient_digits(x + third) == log10(4)
