"""Parser, evaluator, canonical printer, and JSON codec behavior."""

import json
from fractions import Fraction

import pytest

from mvcurl.dsl import (
    DslError,
    document_from_json,
    document_to_json,
    parse,
    print_canonical,
    value_to_json,
)
from mvcurl.exterior import DifferentialForm, Multivector, VolumeForm
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


def test_lie_binding_constants():
    doc = parse("chart x y z\nlie g = z e1^^e2 + x e2^^e3 + y e3^^e1\n")
    constants = doc.lie_constants("g")
    assert constants.get(0, 1, 2) == 1
    assert constants.get(1, 2, 0) == 1
    assert constants.get(2, 0, 1) == 1


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
    assert restored.lie_constants("g") == doc.lie_constants("g")
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
