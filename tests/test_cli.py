"""CLI integration: exit codes, exact text output, and JSON payloads.

Every test drives main(argv) directly so the exit-code contract is pinned:
0 success or predicate true, 1 predicate false or empty answer, 2 usage and
validation errors, 3 mathematical failures.
"""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

from mvcurl import cli, ring
from mvcurl.cli import main
from mvcurl.dsl import MAX_POWER_DIGITS, MAX_POWER_TERMS
from mvcurl.solver import MAX_ANSATZ_SIZE

PLANAR = """\
chart x y
volume V = 1
func h = x^2 + y^2 + 1
func m = 1/h
mv P = h e1^^e2
mv X = y e1 + x e2
"""

SO3 = """\
chart x y z
volume V = 1
lie g = z e1^^e2 + x e2^^e3 + y e3^^e1
func f = x
"""

NONPOISSON = """\
chart x y z
mv Q = e1^^e2 + (-x) e1^^e3
func f = x
"""

TWO_VOLUMES = """\
chart x y
volume V = 1
volume W = x^2 + 1
mv P = e1^^e2
mv X = x e1
"""


@pytest.fixture
def planar(tmp_path):
    path = tmp_path / "planar.mv"
    path.write_text(PLANAR)
    return str(path)


@pytest.fixture
def so3(tmp_path):
    path = tmp_path / "so3.mv"
    path.write_text(SO3)
    return str(path)


@pytest.fixture
def nonpoisson(tmp_path):
    path = tmp_path / "nonpoisson.mv"
    path.write_text(NONPOISSON)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- exit code 0

def test_curl_of_hamiltonian_pair_is_printed(planar, capsys):
    code, out, _ = run(capsys, "curl", "P", "--input", planar)
    assert code == 0
    assert out == "(2*y) e1 + (-2*x) e2\n"


def test_div_prints_scalar(planar, capsys):
    code, out, _ = run(capsys, "div", "X", "--input", planar)
    assert code == 0
    assert out == "0\n"


def test_schouten_of_field_with_itself(planar, capsys):
    code, out, _ = run(capsys, "schouten", "X", "X", "--input", planar)
    assert code == 0
    assert out == "0\n"


def test_lm_check_true_exact_line(planar, capsys):
    code, out, _ = run(capsys, "lm-check", "m", "P", "--input", planar)
    assert code == 0
    assert out == "last multiplier: true (3/3 routes)\n"


def test_lm_solve_finds_reciprocal(planar, capsys):
    code, out, _ = run(capsys, "lm-solve", "P", "--input", planar,
                       "--max-degree", "0", "--denominator", "h")
    assert code == 0
    assert out == "(1)/(x^2 + y^2 + 1)\n"


def test_jacobi_zero_residual(planar, capsys):
    code, out, _ = run(capsys, "jacobi", "P", "--input", planar)
    assert code == 0
    assert out == "0\n"


def test_modular_of_planar_bivector(planar, capsys):
    code, out, _ = run(capsys, "modular", "P", "--input", planar)
    assert code == 0
    assert out == "(2*y) e1 + (-2*x) e2\n"


def test_hamiltonian_field_orientation(planar, capsys):
    code, out, _ = run(capsys, "hamiltonian", "P", "h", "--input", planar)
    assert code == 0
    # A_h = i_{dh} P with P = h e1^^e2, coefficients expanded
    assert out == "(-2*x^2*y - 2*y^3 - 2*y) e1 + (2*x^3 + 2*x*y^2 + 2*x) e2\n"


def test_casimir_battery_for_so3(so3, capsys):
    code, out, _ = run(capsys, "casimir", "g", "--input", so3,
                       "--max-degree", "2")
    assert code == 0
    assert out == "1\nx^2 + y^2 + z^2\n"


def test_unimodular_witness_for_so3(so3, capsys):
    code, out, _ = run(capsys, "unimodular", "g", "--input", so3,
                       "--max-degree", "2")
    assert code == 0
    assert out == "unimodular witness: 0\n"


def test_lie_poisson_expands_constants(so3, capsys):
    code, out, _ = run(capsys, "lie-poisson", "g", "--input", so3)
    assert code == 0
    assert out == "(z) e1^^e2 + (-y) e1^^e3 + (x) e2^^e3\n"


def test_lie_poisson_refuses_other_kinds(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("chart x y\nmv P = x e1^^e2\n"))
    code, out, err = run(capsys, "lie-poisson", "P")
    assert (code, out) == (2, "")
    assert err == "error: binding 'P' is a mv, expected lie\n"


def test_cohomology_report_lines(so3, capsys):
    code, out, _ = run(capsys, "cohomology", "g", "--input", so3,
                       "--k", "0", "--max-degree", "2")
    assert code == 0
    assert out == (
        "k: 0\n"
        "degree bound: 2\n"
        "dim exact: 10\n"
        "dim kernel: 2\n"
        "dim image from below: 0\n"
        "truncated H dim: 2\n"
        "caveat: dimensions are for the truncated complex only\n"
    )


def test_identities_all_pass(capsys):
    code, out, _ = run(capsys, "identities", "--seed", "7", "--cases", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) >= 6
    assert all(line.endswith(": pass") for line in lines)


def test_print_canonicalizes(planar, capsys):
    code, out, _ = run(capsys, "print", "--input", planar)
    assert code == 0
    assert out.startswith("chart x y\nvolume V = 1\n")
    assert "mv P = (x^2 + y^2 + 1) e1^^e2\n" in out


def test_casimir_only_constants_for_symplectic(tmp_path, capsys):
    # constants are always Casimirs, so the answer is never empty; a
    # symplectic structure admits nothing beyond them
    path = tmp_path / "symp.mv"
    path.write_text("chart x y\nmv P = e1^^e2\n")
    code, out, _ = run(capsys, "casimir", "P", "--input", str(path),
                       "--max-degree", "3")
    assert code == 0
    assert out == "1\n"


def test_reads_document_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("chart x y\nmv P = e1^^e2\n"))
    code, out, _ = run(capsys, "jacobi", "P")
    assert code == 0
    assert out == "0\n"


# ---------------------------------------------------------------- exit code 1

def test_lm_check_false_exact_line(planar, capsys):
    code, out, _ = run(capsys, "lm-check", "h", "P", "--input", planar)
    assert code == 1
    assert out == "last multiplier: false (3/3 routes)\n"


def test_jacobi_nonzero_residual(nonpoisson, capsys):
    code, out, _ = run(capsys, "jacobi", "Q", "--input", nonpoisson)
    assert code == 1
    assert out == "(-2) e1^^e2^^e3\n"


def test_lm_solve_empty_ansatz(planar, capsys):
    # polynomial multipliers of degree <= 2 for h e1^^e2: none exist
    code, out, _ = run(capsys, "lm-solve", "P", "--input", planar,
                       "--max-degree", "2")
    assert code == 1
    assert out == "no multipliers in ansatz\n"


def test_unimodular_no_witness(tmp_path, capsys):
    # affine bivector x e1^^e2 has modular field outside every Hamiltonian image
    path = tmp_path / "affine.mv"
    path.write_text("chart x y\nvolume V = 1\nmv P = x e1^^e2\n")
    code, out, _ = run(capsys, "unimodular", "P", "--input", str(path),
                       "--max-degree", "3")
    assert code == 1
    assert out == "no witness in ansatz (degree <= 3)\n"


def test_identities_report_failures(capsys, monkeypatch):
    from mvcurl.identities import IdentityResult

    def fake_run(seed, cases):
        return [IdentityResult(name="demo", cases=cases, failures=1)]

    # the handler looks the suite up in its module at each call
    monkeypatch.setattr("mvcurl.identities.run_identity_suite", fake_run)
    code, out, _ = run(capsys, "identities", "--seed", "1", "--cases", "4")
    assert code == 1
    assert out == "demo: FAIL (1/4)\n"


# ---------------------------------------------------------------- exit code 2

@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_identities_refuses_negative_cases(capsys, json_flag):
    code, out, err = run(capsys, "identities", "--cases", "-1", *json_flag)
    assert code == 2
    assert out == ""
    assert err == "error: --cases must be non-negative, got -1\n"


def test_syntax_error_in_document(tmp_path, capsys):
    path = tmp_path / "bad.mv"
    path.write_text("chart x y\nmv P = e1 ^^\n")
    code, _, err = run(capsys, "jacobi", "P", "--input", str(path))
    assert code == 2
    assert err.startswith("error: line 2")


def test_unknown_binding_name(planar, capsys):
    code, _, err = run(capsys, "curl", "nosuch", "--input", planar)
    assert code == 2
    assert "nosuch" in err


def test_missing_input_file(capsys):
    code, _, err = run(capsys, "curl", "P", "--input", "/nonexistent/doc.mv")
    assert code == 2
    assert err.startswith("error:")


def test_argparse_error_is_exit_2(planar, capsys):
    # --max-degree is required for lm-solve
    code, _, err = run(capsys, "lm-solve", "P", "--input", planar)
    assert code == 2


def test_unknown_subcommand_is_exit_2(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_lm_solve_rejects_rational_denominator(planar, capsys):
    code, _, err = run(capsys, "lm-solve", "P", "--input", planar,
                       "--max-degree", "0", "--denominator", "m")
    assert code == 2
    assert "polynomial" in err


def test_ambiguous_volume_needs_flag(tmp_path, capsys):
    path = tmp_path / "two.mv"
    path.write_text(TWO_VOLUMES)
    code, _, err = run(capsys, "div", "X", "--input", str(path))
    assert code == 2
    assert "--volume" in err


def test_volume_flag_selects_binding(tmp_path, capsys):
    path = tmp_path / "two.mv"
    path.write_text(TWO_VOLUMES)
    code, out, _ = run(capsys, "div", "X", "--input", str(path),
                       "--volume", "V")
    assert (code, out) == (0, "1\n")
    code, out, _ = run(capsys, "div", "X", "--input", str(path),
                       "--volume", "W")
    assert code == 0
    # div_W(x d/dx) = 1 + x * d/dx log(x^2+1)
    assert out == "(3*x^2 + 1)/(x^2 + 1)\n"


# ---------------------------------------------------------------- exit code 3

def test_modular_requires_poisson(nonpoisson, capsys):
    code, _, err = run(capsys, "modular", "Q", "--input", nonpoisson)
    assert code == 3
    assert err == "error: Jacobi identity fails on triple (0, 1, 2)\n"


def test_hamiltonian_requires_poisson(nonpoisson, capsys):
    code, _, err = run(capsys, "hamiltonian", "Q", "f", "--input", nonpoisson)
    assert code == 3


def test_casimir_requires_poisson(nonpoisson, capsys):
    code, _, err = run(capsys, "casimir", "Q", "--input", nonpoisson,
                       "--max-degree", "1")
    assert code == 3


def test_cohomology_rejects_nonexact_bivector(tmp_path, capsys):
    # affine bivector is Poisson but has non-zero curl
    path = tmp_path / "affine.mv"
    path.write_text("chart x y\nmv P = x e1^^e2\n")
    code, _, err = run(capsys, "cohomology", "P", "--input", str(path),
                       "--k", "0", "--max-degree", "2")
    assert code == 3
    assert "curl" in err


def test_computed_zero_division_is_exit_3(tmp_path, capsys):
    path = tmp_path / "zero.mv"
    path.write_text("chart x y\nfunc g = 1/(x - x)\n")
    code, _, err = run(capsys, "print", "--input", str(path))
    assert code == 3
    assert "zero" in err


# a zero base to a negative power follows the rule of a zero divisor: a base
# that read no name is a parse error at the ^, one that read a name is math


def print_error(tmp_path, capsys, doc):
    path = tmp_path / "power.mv"
    path.write_text(doc)
    return run(capsys, "print", "--input", str(path))


def test_zero_to_a_negative_power_is_exit_2(tmp_path, capsys):
    assert print_error(tmp_path, capsys, "chart x\nfunc f = 0^-2\n") == (
        2, "", "error: line 2, column 11: zero to a negative power\n")


def test_parenthesised_zero_to_a_negative_power_is_exit_2(tmp_path, capsys):
    assert print_error(tmp_path, capsys, "chart x\nfunc f = (0)^-1\n") == (
        2, "", "error: line 2, column 13: zero to a negative power\n")


def test_zero_expression_to_a_negative_power_is_exit_3(tmp_path, capsys):
    assert print_error(tmp_path, capsys, "chart x\nfunc f = (x-x)^-1\n") == (
        3, "", "error: zero expression to a negative power\n")


# ------------------------------------------------------------ deep documents

def curl_of(tmp_path, capsys, body):
    path = tmp_path / "deep.mv"
    path.write_text(f"chart x y\nmv P = {body}\n")
    return run(capsys, "curl", "P", "--input", str(path))


def test_long_sum_is_evaluated(tmp_path, capsys):
    assert curl_of(tmp_path, capsys, " + ".join(["x e1"] * 1200)) == (0, "1200\n", "")


def test_long_product_is_evaluated(tmp_path, capsys):
    body = " ".join(["x"] * 600) + " e1"
    assert curl_of(tmp_path, capsys, body) == (0, "600*x^599\n", "")


def test_power_of_a_monomial_is_evaluated(tmp_path, capsys):
    assert curl_of(tmp_path, capsys, "x^600 e1") == (0, "600*x^599\n", "")


@pytest.mark.parametrize("body, col", [("(x+y+1)^80 e1", 15),
                                       ("1/(x+y+1)^80 e1", 17),
                                       ("(x+y+1)^99999999999999999999 e1", 15)])
def test_power_past_the_term_budget_is_refused_early(tmp_path, capsys, body,
                                                     col):
    start = time.perf_counter()
    code, out, err = curl_of(tmp_path, capsys, body)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (f"error: line 2, column {col}: power too large to expand: "
                   f"the result may have more than {MAX_POWER_TERMS} terms\n")


def test_power_at_the_term_budget_is_evaluated(tmp_path, capsys):
    # (x+y+1)^43 has C(45, 2) = 990 terms; ^44 would have 1035
    code, out, _ = curl_of(tmp_path, capsys, "(x+y+1)^43 e1")
    assert code == 0
    assert out.startswith("43*x^42 + ")


@pytest.mark.parametrize("body, col", [("7^3000000 x e1", 9),
                                       ("(1/7)^-3000000 x e1", 13),
                                       ("(3/(2 y))^10000 x e1", 17)])
def test_power_past_the_digit_budget_is_refused_early(tmp_path, capsys, body,
                                                      col):
    start = time.perf_counter()
    code, out, err = curl_of(tmp_path, capsys, body)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (f"error: line 2, column {col}: power too large to expand: "
                   f"its coefficients may have more than {MAX_POWER_DIGITS} "
                   f"digits\n")


def test_power_at_the_digit_budget_is_evaluated(tmp_path, capsys):
    # 7^5000 has 4226 digits, within Python's 4300-digit printing limit
    assert curl_of(tmp_path, capsys, "7^5000 x e1") == (0, f"{7 ** 5000}\n", "")


def test_power_below_the_digit_budget_is_evaluated(tmp_path, capsys):
    assert curl_of(tmp_path, capsys, "7^4000 x e1") == (0, f"{7 ** 4000}\n", "")


@pytest.mark.parametrize("body, position, message", [
    ("7" * 5000 + " x e1", "line 2, column 8",
     f"number literal longer than {MAX_POWER_DIGITS} digits"),
    ("x^" + "1" * 5000 + " e1", "line 2, column 10",
     f"number literal longer than {MAX_POWER_DIGITS} digits"),
    ("7^4000 * 7^4000 x e1", "line 2, column 1",
     f"a coefficient has more than {MAX_POWER_DIGITS} digits"),
])
def test_coefficient_past_the_digit_budget_is_refused(tmp_path, capsys, body,
                                                      position, message):
    start = time.perf_counter()
    code, out, err = curl_of(tmp_path, capsys, body)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: {position}: {message}\n"


def test_scientific_notation_look_alike_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "sci.mv"
    path.write_text("chart x y z\nmv P = 1e3 x\n")
    assert run(capsys, "print", "--input", str(path)) == (
        2, "", "error: line 2, column 8: 1e3 looks like scientific notation, "
               "which documents do not have: write 1*e3 for a product, or "
               "1000\n")


def test_long_func_literal_is_refused_at_its_position(tmp_path, capsys):
    path = tmp_path / "literal.mv"
    path.write_text("chart x y\nfunc f = " + "7" * 5000 + "\n")
    assert run(capsys, "print", "--input", str(path)) == (
        2, "", f"error: line 2, column 10: number literal longer than "
               f"{MAX_POWER_DIGITS} digits\n")


def test_result_past_the_digit_budget_is_refused_before_printing(tmp_path,
                                                                 capsys):
    # each factor is accepted (2,536 digits); their bracket 7^6000 is not
    path = tmp_path / "big.mv"
    path.write_text("chart x y\nmv A = 7^3000 x e1\nmv B = 7^3000 x e2\n")
    message = (f"error: result has a coefficient of more than "
               f"{MAX_POWER_DIGITS} digits\n")
    for json_flag in ([], ["--json"]):
        assert run(capsys, "schouten", "A", "B", "--input", str(path),
                   *json_flag) == (2, "", message)


SIXTEEN = ("chart " + " ".join(f"x{i}" for i in range(1, 17))
           + "\nmv P = e1^^e2\n")


@pytest.mark.parametrize("argv, doc, size", [
    (["casimir", "g", "--max-degree", "30"], SO3, comb(33, 3)),
    (["lm-solve", "g", "--max-degree", "21"], SO3, comb(24, 3)),
    (["unimodular", "g", "--max-degree", "21"], SO3, comb(24, 3)),
    (["cohomology", "P", "--k", "2", "--max-degree", "4"], SIXTEEN,
     comb(20, 16) * comb(16, 2)),
])
def test_ansatz_past_the_budget_is_refused_early(tmp_path, capsys, argv, doc,
                                                 size):
    path = tmp_path / "doc.mv"
    path.write_text(doc)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--input", str(path))
    assert time.perf_counter() - start < 1.0
    assert size > MAX_ANSATZ_SIZE
    assert (code, out) == (2, "")
    assert err == (f"error: ansatz too large: {size} basis elements, "
                   f"more than {MAX_ANSATZ_SIZE}\n")


SO3_ZERO = SO3 + "func zero = x - x\n"


@pytest.mark.parametrize("argv, doc, code, err", [
    (["cohomology", "g", "--k", "-1", "--max-degree", "1"], SO3, 2,
     "error: grade -1 out of range for dimension 3\n"),
    (["cohomology", "g", "--k", "4", "--max-degree", "1"], SO3, 2,
     "error: grade 4 out of range for dimension 3\n"),
    (["lm-solve", "g", "--max-degree", "1", "--denominator", "zero"], SO3_ZERO,
     3, "error: ansatz denominator must be non-zero\n"),
    # the size is checked before the denominator is looked at
    (["lm-solve", "g", "--max-degree", "99999", "--denominator", "zero"],
     SO3_ZERO, 2, f"error: ansatz too large: {comb(99999 + 3, 3)} basis "
     f"elements, more than {MAX_ANSATZ_SIZE}\n"),
])
def test_ansatz_space_errors_are_exit_codes(tmp_path, capsys, argv, doc, code,
                                            err):
    path = tmp_path / "doc.mv"
    path.write_text(doc)
    result = run(capsys, *argv, "--input", str(path))
    assert result == (code, "", err)
    assert "Traceback" not in result[2]


# ------------------------------------------------- inputs that once were slow

def cliff(k):
    return (f"chart x y\nfunc f = 1/(x^2+y^2+1)^{k} + 1/(x+y)^{k}\n"
            f"mv A = f e1^^e2\n")


# the sum's denominators are coprime, and every gcd between them used to run
# a full subresultant PRS (k = 10 took 3.3 s); bounds leave about 5x headroom
@pytest.mark.parametrize("k, size, digest, bound", [
    (5, 3237, "c25563db29bb0e1f1a04c9f81307eaafdc3c7c18e035835e2872994aa321c9ff",
     0.5),
    (8, 7519, "eaeecf74ffceb35c96fbb204a103ff2dd82a352fb97346b3838a01b10ffef4e3",
     0.75),
    (10, 11767,
     "86a024403f7e4f53d4899a9b52740ec63ba9d5993df1f205af2bc38d1acf2125", 1.5),
])
def test_curl_of_reciprocal_power_sum_is_quick(tmp_path, capsys, k, size,
                                               digest, bound):
    path = tmp_path / "cliff.mv"
    path.write_text(cliff(k))
    start = time.perf_counter()
    code, out, err = run(capsys, "curl", "A", "--input", str(path))
    assert time.perf_counter() - start < bound
    assert (code, err) == (0, "")
    assert len(out.encode()) == size
    assert hashlib.sha256(out.encode()).hexdigest() == digest


FOLDED_DENOMINATOR = """\
chart x y
func D = (x^2+y^2+1)^3 (x+y+2)^2
func g = (x+y)/D
mv B = g e1^^e2
"""


def test_lm_solve_with_a_large_denominator_is_quick(tmp_path, capsys):
    # folding each residual's denominator into one common multiple used to
    # divide an ever larger product (12 s)
    path = tmp_path / "den.mv"
    path.write_text(FOLDED_DENOMINATOR)
    start = time.perf_counter()
    code, out, err = run(capsys, "lm-solve", "B", "--max-degree", "3",
                         "--denominator", "D", "--input", str(path))
    assert time.perf_counter() - start < 3.0
    assert (code, out, err) == (1, "no multipliers in ansatz\n", "")


def test_quotient_memo_is_empty_when_each_command_starts(tmp_path, capsys,
                                                         monkeypatch):
    seen = []
    parse = cli.parse

    def recording_parse(text, **options):
        seen.append(ring._quotient_parts.cache_info().currsize)
        return parse(text, **options)

    monkeypatch.setattr(cli, "parse", recording_parse)
    path = tmp_path / "cliff.mv"
    path.write_text(cliff(3))
    for _ in range(2):
        assert run(capsys, "curl", "A", "--input", str(path))[0] == 0
        assert ring._quotient_parts.cache_info().currsize
    assert seen == [0, 0]


def test_second_command_in_process_prints_what_a_fresh_process_does(
        tmp_path, capsys, monkeypatch):
    # one process runs the whole sequence, sharing one parser; each step
    # must print what it prints as the only command of a fresh process
    path = tmp_path / "den.mv"
    path.write_text(FOLDED_DENOMINATOR + "func m = 1/D\nmv A = D e1^^e2\n")
    doc = ["--input", str(path)]
    # help and usage text wrap at the width COLUMNS gives when printed
    steps = [
        ("72", ["curl", "B", *doc], 0),
        ("72", ["lm-check", "m", "B", *doc], 1),
        ("72", ["lm-solve", "A", *doc], 2),  # --max-degree is required
        ("72", ["--help"], 0),
        ("44", ["lm-solve", "--help"], 0),
        ("72", ["lm-solve", "A", "--max-degree", "0", "--denominator", "D",
                *doc], 0),
        ("72", ["lm-solve", "A", "--max-degree", "0", *doc], 1),
        ("44", ["identities", "--cases", "-1"], 2),
    ]
    for columns, argv, code in steps:
        monkeypatch.setenv("COLUMNS", columns)
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        fresh = subprocess.run([sys.executable, "-m", "mvcurl.cli", *argv],
                               capture_output=True, text=True, env=env,
                               stdin=subprocess.DEVNULL, timeout=60)
        assert fresh.returncode == code, argv
        assert bool(fresh.stderr) == (code == 2), argv
        assert run(capsys, *argv) == (code, fresh.stdout, fresh.stderr), argv


def test_each_command_parser_is_built_at_most_once_per_process(
        planar, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    first = run(capsys, "print", "--input", planar)
    assert "mvcurl" in built
    # a command's parser holds its own subparser and no other command's
    assert [p for p in built if p and p.startswith("mvcurl ")] == ["mvcurl print"]
    calls = (["curl", "P", "--input", planar], ["curl"], ["--help"],
             ["lm-solve", "P", "--max-degree", "1", "--denominator", "h",
              "--input", planar],
             ["lm-solve", "P", "--max-degree", "1", "--input", planar],
             ["identities", "--cases", "-1"])
    for argv in calls:
        run(capsys, *argv)
    parsers = len(built)
    for argv in calls:
        run(capsys, *argv)
    assert len(built) == parsers
    assert run(capsys, "print", "--input", planar) == first
    assert len(built) == parsers


def test_nesting_at_the_limit_is_evaluated(tmp_path, capsys):
    shallow = curl_of(tmp_path, capsys, "(x) e1")
    deep = curl_of(tmp_path, capsys, "(" * 100 + "x" + ")" * 100 + " e1")
    assert deep == shallow == (0, "1\n", "")


@pytest.mark.parametrize("body", ["(" * 200 + "x" + ")" * 200 + " e1",
                                  "-" * 200 + "x e1"])
def test_nesting_past_the_limit_is_a_parse_error(tmp_path, capsys, body):
    code, out, err = curl_of(tmp_path, capsys, body)
    assert (code, out) == (2, "")
    # "mv P = " takes columns 1-7; the 101st level opens at column 108
    assert err == "error: line 2, column 108: expression nested deeper than 100 levels\n"


def test_recursion_limit_is_not_an_internal_disagreement(planar, capsys,
                                                         monkeypatch):
    def too_deep(args, doc):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli._COMMANDS["print"], "run", too_deep)
    code, _, err = run(capsys, "print", "--input", planar)
    assert code == 2
    assert "internal disagreement" not in err


def test_out_of_memory_is_a_usage_error(planar, capsys, monkeypatch):
    def too_large(args, doc):
        raise MemoryError()

    monkeypatch.setattr(cli._COMMANDS["print"], "run", too_large)
    assert run(capsys, "print", "--input", planar) == (
        2, "", "error: input too large to evaluate in memory\n")


# ------------------------------------------------------------- degree budget

def test_power_at_the_degree_limit_is_evaluated(tmp_path, capsys):
    assert curl_of(tmp_path, capsys, f"x^{ring.MAX_DEGREE} e1") == (
        0, f"{ring.MAX_DEGREE}*x^{ring.MAX_DEGREE - 1}\n", "")


@pytest.mark.parametrize("body, col, what", [
    (f"x^{ring.MAX_DEGREE + 1} e1", 9, "power"),
    ("1/(x^20000)^2 e1", 19, "power"),
    ("x^100000000000 e1", 9, "power"),
    ("x^20000 * y^20000 e1", 16, "product"),
    ("x^20000 y^20000 e1", 16, "product"),
    ("(1/x^20000) / y^20000 e1", 20, "product"),
    ("x^20000 e1 ^^ y^20000 e2", 19, "product"),
])
def test_degree_past_the_limit_is_refused_early(tmp_path, capsys, body, col,
                                                what):
    start = time.perf_counter()
    code, out, err = curl_of(tmp_path, capsys, body)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (f"error: line 2, column {col}: {what} too large to expand: "
                   f"its degree may pass {ring.MAX_DEGREE}\n")


@pytest.mark.parametrize("doc, argv, message", [
    # a sum's common denominator is a product the DSL does not pre-check
    ("chart x y\nfunc f = 1/x^20000 + 1/y^20000\n", ["print"],
     "line 2, column 20: polynomial degree 40000 exceeds the limit 32767"),
    ("chart x y z\nmv P = x^20000 e1^^e2 + y^20000 e2^^e3\n", ["jacobi", "P"],
     "polynomial degree 39999 exceeds the limit 32767"),
])
def test_degree_past_the_limit_in_a_computation_is_exit_2(tmp_path, capsys,
                                                          doc, argv, message):
    path = tmp_path / "wide.mv"
    path.write_text(doc)
    assert run(capsys, *argv, "--input", str(path)) == (2, "", f"error: {message}\n")


HUGE_POWER = "chart x y\nfunc f = (x^100000000000+y)/(x^3+y)\nmv A = f e1^^e2\n"


@pytest.mark.parametrize("argv", [["print"], ["print", "--json"],
                                  ["curl", "A"]])
def test_huge_power_document_is_refused_without_a_traceback(tmp_path, argv):
    path = tmp_path / "huge.mv"
    path.write_text(HUGE_POWER)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    fresh = subprocess.run([sys.executable, "-m", "mvcurl.cli", *argv,
                            "--input", str(path)], capture_output=True,
                           text=True, env=env, stdin=subprocess.DEVNULL,
                           timeout=60)
    assert (fresh.returncode, fresh.stdout) == (2, "")
    assert fresh.stderr == ("error: line 2, column 12: power too large to "
                            f"expand: its degree may pass {ring.MAX_DEGREE}\n")


@pytest.mark.parametrize("char", ["\u00a0", "\u2009", "\u3000", "\u001f"])
def test_stray_whitespace_is_refused_not_dropped(tmp_path, capsys, char):
    # refused where it stands, not read as the end of the line ("func f = x")
    path = tmp_path / "stray.mv"
    path.write_text(f"chart x y\nfunc f = x{char}+ y*y\n", encoding="utf-8")
    assert run(capsys, "print", "--input", str(path)) == (
        2, "", f"error: line 2, column 11: unexpected character {char!r}\n")


def test_stray_whitespace_on_stdin_exits_2_without_a_traceback():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]),
               PYTHONIOENCODING="utf-8")
    fresh = subprocess.run([sys.executable, "-m", "mvcurl.cli", "print"],
                           input="chart x y\nfunc f = x\u00a0+ y\n",
                           capture_output=True, text=True, encoding="utf-8",
                           env=env, timeout=60)
    assert (fresh.returncode, fresh.stdout) == (2, "")
    assert fresh.stderr == ("error: line 2, column 11: unexpected character "
                            "'\\xa0'\n")


@pytest.mark.parametrize("doc, position, char", [
    ("chart x y\nfunc f = x + y\x85\n", "line 2, column 15", "\x85"),
    ("chart x y\nfunc f = x\u2028func g = y\n", "line 2, column 11", "\u2028"),
    ("chart x y\nfunc f = x\x1c+ y\n", "line 2, column 11", "\x1c"),
])
def test_unicode_line_break_is_refused_not_a_line_end(tmp_path, capsys, doc,
                                                      position, char):
    path = tmp_path / "break.mv"
    path.write_text(doc, encoding="utf-8")
    assert run(capsys, "print", "--input", str(path)) == (
        2, "", f"error: {position}: unexpected character {char!r}\n")


@pytest.mark.parametrize("doc, code, message", [
    ("chart x y\nfunc f = q\nfunc g = (\n", 2,
     "line 2, column 10: unknown identifier 'q'"),
    ("chart x y\nfunc z = x - x\nfunc f = 1/z\nfunc g = (\n", 3,
     "division by a zero expression"),
    ("chart x x\nfunc g = (\n", 2,
     "line 1, column 1: coordinate names must be distinct"),
    # what a line computes before its own syntax error comes first
    ("chart x y\nfunc g = 1/(x - x) + (\n", 3, "division by a zero expression"),
    ("chart x y\nfunc g = 1/(x - x))\n", 3, "division by a zero expression"),
    ("chart x y\nfunc g = (x^20000 y^20000 + (\n", 2, "line 2, column 19: "
     f"product too large to expand: its degree may pass {ring.MAX_DEGREE}"),
    ("chart x y\nmv P = (x + e1) e2 q\n", 2,
     "line 2, column 11: cannot add scalar and multivector"),
    # lexical errors still come first
    ("chart x y\nfunc f = q\nfunc g = x\u00a0\n", 2,
     "line 3, column 11: unexpected character '\\xa0'"),
])
def test_first_error_in_reading_order_is_reported(tmp_path, capsys, doc, code,
                                                  message):
    path = tmp_path / "errors.mv"
    path.write_text(doc, encoding="utf-8")
    assert run(capsys, "print", "--input", str(path)) == (
        code, "", f"error: {message}\n")


# ------------------------------------------------ the bindings a command reads

# a binding whose value raises, with the exit code and message of the error
BAD_VALUES = {
    "zero-divisor": ("func bad = 1/(x-x)", 3,
                     "division by a zero expression"),
    "power-budget": ("func bad = (x+y+1)^80", 2,
                     "line 2, column 19: power too large to expand: the "
                     f"result may have more than {MAX_POWER_TERMS} terms"),
    "kind": ("func bad = x + e1", 2,
             "line 2, column 14: cannot add scalar and multivector"),
}


def run_doc(tmp_path, capsys, doc, *argv):
    path = tmp_path / "doc.mv"
    path.write_text(doc, encoding="utf-8")
    return run(capsys, *argv, "--input", str(path))


@pytest.mark.parametrize("bad", BAD_VALUES.values(), ids=BAD_VALUES)
def test_an_unread_binding_that_fails_does_not_stop_the_command(
        tmp_path, capsys, bad):
    line, _, _ = bad
    without = run_doc(tmp_path, capsys, "chart x y\nmv P = x^2 e1\n",
                      "curl", "P")
    assert without == (0, "2*x\n", "")
    assert run_doc(tmp_path, capsys, f"chart x y\n{line}\nmv P = x^2 e1\n",
                   "curl", "P") == without


@pytest.mark.parametrize("bad", BAD_VALUES.values(), ids=BAD_VALUES)
def test_print_still_evaluates_every_binding(tmp_path, capsys, bad):
    line, code, message = bad
    assert run_doc(tmp_path, capsys, f"chart x y\n{line}\nmv P = x^2 e1\n",
                   "print") == (code, "", f"error: {message}\n")


@pytest.mark.parametrize("bad", BAD_VALUES.values(), ids=BAD_VALUES)
def test_a_read_binding_fails_with_the_error_of_one_it_reads(tmp_path,
                                                             capsys, bad):
    line, code, message = bad
    doc = f"chart x y\n{line}\nmv P = x^2 e1\nmv Q = bad e1\n"
    assert run_doc(tmp_path, capsys, doc, "curl", "Q") == (
        code, "", f"error: {message}\n")


@pytest.mark.parametrize("line, message", [
    ("func u = x)", "line 3, column 11: unexpected ')' after expression"),
    ("func u = q", "line 3, column 10: unknown identifier 'q'"),
    ("mv P = y e1", "line 3, column 1: duplicate binding name 'P'"),
    ("func e1 = x", "line 3, column 6: reserved name 'e1' cannot be bound"),
    ("func x = y", "line 3, column 1: name 'x' is already a coordinate"),
    ("func u = x\u00a0+ y", "line 3, column 11: unexpected character '\\xa0'"),
], ids=["stray-paren", "unknown-identifier", "duplicate-name", "reserved-name",
        "coordinate-clash", "no-break-space"])
def test_a_syntax_error_in_an_unread_binding_stops_every_command(
        tmp_path, capsys, line, message):
    doc = f"chart x y\nmv P = x^2 e1\n{line}\n"
    for argv in (["curl", "P"], ["print"]):
        assert run_doc(tmp_path, capsys, doc, *argv) == (
            2, "", f"error: {message}\n")


def test_the_default_volume_is_evaluated_only_when_it_is_the_one(tmp_path,
                                                                 capsys):
    doc = ("chart x y\nvolume V = 1/(x-x)\nvolume W = 1\nmv P = x^2 e1\n")
    assert run_doc(tmp_path, capsys, doc, "curl", "P", "--volume", "W") == (
        0, "2*x\n", "")
    # counting the volume bindings evaluates neither of them
    assert run_doc(tmp_path, capsys, doc, "curl", "P") == (
        2, "", "error: multiple volume bindings; select one with --volume\n")
    assert run_doc(tmp_path, capsys, doc, "curl", "P", "--volume", "V") == (
        3, "", "error: division by a zero expression\n")


# ---------------------------------------------------------------- JSON output

def test_lm_check_json(planar, capsys):
    code, out, _ = run(capsys, "lm-check", "m", "P", "--input", planar,
                       "--json")
    assert code == 0
    assert json.loads(out) == {"last_multiplier": True, "routes": 3}


def test_jacobi_json(nonpoisson, capsys):
    code, out, _ = run(capsys, "jacobi", "Q", "--input", nonpoisson, "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["poisson"] is False
    assert payload["residual"]["kind"] == "mv"
    assert payload["residual"]["grade"] == 3


def test_curl_json_is_kind_tagged(planar, capsys):
    code, out, _ = run(capsys, "curl", "P", "--input", planar, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "mv"
    assert [t["blade"] for t in payload["terms"]] == [[1], [2]]


def test_unimodular_json(so3, capsys):
    code, out, _ = run(capsys, "unimodular", "g", "--input", so3, "--json",
                       "--max-degree", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_degree"] == 2
    assert payload["witness"]["kind"] == "func"


def test_lm_solve_json(planar, capsys):
    code, out, _ = run(capsys, "lm-solve", "P", "--input", planar, "--json",
                       "--max-degree", "0", "--denominator", "h")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["solutions"]) == 1
    assert payload["solutions"][0]["kind"] == "func"


def test_cohomology_json(so3, capsys):
    code, out, _ = run(capsys, "cohomology", "g", "--input", so3, "--json",
                       "--k", "0", "--max-degree", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim_kernel"] == 2
    assert payload["truncated_h_dim"] == 2
    assert payload["caveat"] is True
    # the report's fields in declaration order, byte for byte
    assert out == ('{"k": 0, "domain_degree_bound": 2, "dim_exact_k": 10, '
                   '"dim_kernel": 2, "dim_image_from_km1": 0, '
                   '"truncated_h_dim": 2, "caveat": true}\n')


def test_identities_json(capsys):
    code, out, _ = run(capsys, "identities", "--seed", "3", "--cases", "2",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 3
    assert all(r["passed"] for r in payload["results"])


def test_print_json_round_trip(planar, capsys):
    from mvcurl.dsl import document_from_json, parse

    code, out, _ = run(capsys, "print", "--input", planar, "--json")
    assert code == 0
    assert document_from_json(json.loads(out)) == parse(PLANAR)
