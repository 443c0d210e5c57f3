"""The reference computations, checked against hand-derived values and
against identities that hold independently of mvcurl."""

from fractions import Fraction
from math import comb

import oracle
from oracle import Dual


def test_dual_quotient_and_power_rules():
    pt = [Fraction(1, 2), Fraction(-3)]
    env = {}
    # f = x^2 y / (x + y)^2
    expr = ("div", ("mul", ("pow", ("var", 0), 2), ("var", 1)),
            ("pow", ("add", ("var", 0), ("var", 1)), 2))
    f = oracle.evaluate(expr, pt, env)
    x, y = pt
    s = x + y
    assert f.val == x * x * y / s ** 2
    assert f.grad[0] == (2 * x * y * s - 2 * x * x * y) / s ** 3
    assert f.grad[1] == (x * x * s - 2 * x * x * y) / s ** 3
    assert (Dual.var(2, 0, 1) ** -2).grad == (Fraction(-1, 4),)


def test_render_matches_document_syntax():
    q = oracle.linear([2, -1], 3)
    assert oracle.render(q, ("x", "y")) == "(((2 * x) + ((-1) * y)) + 3)"
    assert oracle.render(("pow", ("ref", "q"), 2), ("x",)) == "(q)^2"


def test_curl_of_vector_field_is_divergence():
    pt = [Fraction(2), Fraction(5), Fraction(-1)]
    comps = {0b001: oracle.evaluate(("mul", ("var", 0), ("var", 1)), pt, {}),
             0b100: oracle.evaluate(("pow", ("var", 2), 3), pt, {})}
    assert oracle.curl_at(comps) == {0: pt[1] + 3 * pt[2] ** 2}


def test_curl_signs_on_bivector_and_trivector():
    pt = [Fraction(2), Fraction(5), Fraction(7)]
    xy = oracle.evaluate(("mul", ("var", 0), ("var", 1)), pt, {})
    # curl(P e1^e2) = d2 P e1 - d1 P e2 on the plane
    assert oracle.curl_at({0b11: xy}) == {0b01: pt[0], 0b10: -pt[1]}
    # curl(xy e1^e2^e3) = y e2^e3 - x e1^e3
    assert oracle.curl_at({0b111: xy}) == {0b110: pt[1], 0b101: -pt[0]}


def test_closed_forms_obey_rank_nullity():
    # exactness: closed p-forms of degree j plus exact (p+1)-forms of degree
    # j-1 fill all p-forms of degree j
    for n in range(1, 5):
        for p in range(0, n + 1):
            for j in range(1, 6):
                all_forms = comb(n, p) * comb(j + n - 1, n - 1)
                image = oracle.closed_forms_dim(n, p + 1, j - 1) if p < n else 0
                assert oracle.closed_forms_dim(n, p, j) + image == all_forms


def test_curl_free_dims_known_values():
    # scalars: every polynomial; top degree: constants only
    assert oracle.curl_free_dim(3, 0, 4) == comb(7, 3)
    assert oracle.curl_free_dim(3, 3, 4) == 1
    assert [oracle.curl_free_dim(3, 1, d) for d in (1, 2, 3)] == [11, 26, 50]
    assert [oracle.curl_free_dim(3, 2, d) for d in (1, 2, 3)] == [9, 19, 34]


def test_casimir_counts():
    assert [oracle.casimir_count("so3", d) for d in range(5)] == [1, 1, 2, 2, 3]
    assert oracle.casimir_count("sl2", 6) == 4
    assert oracle.casimir_count("heisenberg", 6) == 7


def test_json_values_evaluate_exactly():
    value = {"num": [{"exps": [1, 0], "coeff": "3/2"}],
             "den": [{"exps": [0, 1], "coeff": "1"}, {"exps": [0, 0], "coeff": "1"}]}
    d = oracle.json_func_dual(value, [Fraction(2), Fraction(1)])
    assert d.val == Fraction(3, 2)
    assert d.grad == (Fraction(3, 4), Fraction(-3, 4))
