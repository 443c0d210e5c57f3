"""Seeded operation lists for the three workloads, and the check of each output.

Every workload is a fixed list of mvcurl CLI invocations built from the seed
alone. A run executes the whole list (a round) a fixed number of times; no
loop is cut by the clock and nothing is drawn afresh per round. The program
receives only the generated document (on stdin) and the argument vector.

Each operation carries the exit code it must return and a check that compares
its stdout with an independent computation from ``oracle``. Checks run after
timing, in the benchmark process, which never imports mvcurl.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence

import oracle
from oracle import Dual

NAMES = ("x", "y", "z")


class CheckError(Exception):
    """An operation completed but its output is wrong."""


@dataclass
class Op:
    argv: List[str]
    doc: Optional[str]
    expect_code: int
    check: Callable[[str], None]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _points(rng: random.Random, n: int, env: Dict[str, object],
            nonzero: Sequence[str], count: int = 3) -> List[List[Fraction]]:
    """Seeded rational points at which every named formula is finite and non-zero."""
    out: List[List[Fraction]] = []
    while len(out) < count:
        pt = [Fraction(rng.randint(-7, 7), rng.randint(1, 5)) for _ in range(n)]
        try:
            if all(oracle.evaluate(env[name], pt, env).val != 0 for name in nonzero):
                out.append(pt)
        except ZeroDivisionError:
            continue
    return out


def _duals(components: Dict[int, object], pt, env) -> Dict[int, Dual]:
    return {m: oracle.evaluate(e, pt, env) for m, e in components.items()}


def _check_curl(components, env, points) -> Callable[[str], None]:
    """curl output equals sharp.d.flat of the generating formula at each point."""
    def check(stdout: str) -> None:
        payload = json.loads(stdout)
        _require(payload["kind"] == "mv", "curl did not return a multivector")
        for pt in points:
            want = oracle.curl_at(_duals(components, pt, env))
            got = oracle.json_mv_values(payload, pt)
            _require(got == want, f"curl differs from the reference at {pt}")
    return check


def _check_transport(components, env, points, count: int) -> Callable[[str], None]:
    """Exactly ``count`` multipliers, each zeroing curl(m A) at every point."""
    def check(stdout: str) -> None:
        solutions = json.loads(stdout)["solutions"]
        _require(len(solutions) == count,
                 f"{len(solutions)} multipliers, expected {count}")
        for sol in solutions:
            for pt in points:
                m = oracle.json_func_dual(sol["value"], pt)
                scaled = {mask: m * d for mask, d in _duals(components, pt, env).items()}
                residual = oracle.curl_at(scaled)
                _require(not residual, f"transport residual non-zero at {pt}")
    return check


def _check_verdict(expected: bool) -> Callable[[str], None]:
    def check(stdout: str) -> None:
        payload = json.loads(stdout)
        _require(payload == {"last_multiplier": expected, "routes": 3},
                 f"lm-check verdict {payload}, expected {expected}")
    return check


# -- rational-curl ---------------------------------------------------------------
#
# f = a1/q1^k1 + a2/q2^k2 with linear q1, q2 whose x and y coefficients have
# opposite sign patterns, so they are never proportional and f depends on x and
# y. Pole orders reach 3, where the quotient-rule gcd falls off a cliff.
#
# The coefficients come from one fixed draw. The seed flips the sign of each
# coordinate in both q (x -> -x is a ring automorphism, so the gcd work is
# unchanged) and picks the evaluation points: the documents differ per seed
# while the work per run does not, which keeps the spread between runs down to
# the machine's own. Independent coefficient draws per seed moved a
# pole-order-3 document's time by 2x.

POLE_ORDERS = {
    2: [(1, 1)] * 15 + [(1, 2), (2, 1), (1, 3)],
    3: [(1, 1)] * 2,
}


def _rational_doc(family: random.Random, rng: random.Random, n: int,
                  k1: int, k2: int) -> List[Op]:
    names = NAMES[:n]
    # distinct magnitudes within each q: equal ones (x + y, x - y) give a
    # structurally special, cheaper gcd
    c1, c2 = family.sample((1, 2, 3), n), family.sample((1, 2, 3), n)
    c01, c02 = family.randint(1, 3), family.randint(1, 3)
    a1 = family.choice((1, 2, 3))
    a2 = family.choice((-3, -2, -1, 1, 2, 3))
    signs = [rng.choice((1, -1)) for _ in range(n)]
    q1 = oracle.linear([s * c for s, c in zip(signs, c1)], c01)
    q2 = oracle.linear([s * c * (1 if i == 0 else -1)
                        for i, (s, c) in enumerate(zip(signs, c2))], c02)
    ref = lambda name: ("ref", name)
    one = ("num", 1)
    env: Dict[str, object] = {
        "q1": q1,
        "q2": q2,
        "f": ("add", ("div", ("num", a1), ("pow", ref("q1"), k1)),
              ("div", ("num", a2), ("pow", ref("q2"), k2))),
        "D": ("mul", ("pow", ref("q1"), k1), ("pow", ref("q2"), k2)),
        "g": ("div", one, ref("f")),
        "m": ("div", one, ref("f")),
        "mb": ("add", ("div", one, ref("f")), one),
    }
    # f = N / D with N = a1 q2^k2 + a2 q1^k1; the multipliers of g * top in the
    # ansatz {monomial / D, degree <= deg N} are exactly the multiples of N / D.
    numerator = ("add", ("mul", ("num", a1), ("pow", q2, k2)),
                 ("mul", ("num", a2), ("pow", q1, k1)))
    deg_n = oracle.poly_degree(oracle.poly_of(numerator, n, env))
    top = (1 << n) - 1
    a_terms = {0b11: ref("f")}
    b_terms = {top: ref("g")}
    lines = ["chart " + " ".join(names)]
    lines += [f"func {k} = {oracle.render(v, names)}" for k, v in env.items()]
    lines.append("mv A = f e1^^e2")
    lines.append("mv B = g " + "^^".join(f"e{i + 1}" for i in range(n)))
    doc = "\n".join(lines) + "\n"
    points = _points(rng, n, env, ("q1", "q2", "f"))
    return [
        Op(["curl", "A", "--json"], doc, 0, _check_curl(a_terms, env, points)),
        Op(["curl", "B", "--json"], doc, 0, _check_curl(b_terms, env, points)),
        Op(["lm-check", "m", "A", "--json"], doc, 0, _check_verdict(True)),
        Op(["lm-check", "mb", "A", "--json"], doc, 1, _check_verdict(False)),
        Op(["lm-solve", "B", "--max-degree", str(deg_n), "--denominator", "D",
            "--json"], doc, 0, _check_transport(b_terms, env, points, 1)),
    ]


def rational_curl(seed: int) -> List[Op]:
    family = random.Random("rational-curl")
    rng = random.Random(f"rational-curl:{seed}")
    ops: List[Op] = []
    for n, orders in POLE_ORDERS.items():
        for k1, k2 in orders:
            ops.extend(_rational_doc(family, rng, n, k1, k2))
    return ops


# -- identity-laws ---------------------------------------------------------------
#
# mvcurl draws the random multivectors itself from the suite seed, so the
# benchmark cannot vary them without varying the work. The suite seeds are
# therefore one fixed range and the seed only orders them: a few suites cost
# ten times the median, and with suite seeds drawn per seed the mean time of
# an operation moved by 15% between seeds.

IDENTITY_LAWS = (
    "scaled-curl-compatibility", "curl-wedge-vs-schouten", "curl-derivation-law",
    "curl-squared-zero", "d-squared-zero", "contraction-duality",
    "mirror-contraction-duality", "flat-sharp-roundtrip",
)
IDENTITY_SUITES = 240
IDENTITY_CASES = 1


def _check_identities(suite_seed: int, cases: int) -> Callable[[str], None]:
    def check(stdout: str) -> None:
        payload = json.loads(stdout)
        _require(payload["seed"] == suite_seed and payload["cases"] == cases,
                 "identity suite echoed the wrong seed or case count")
        results = payload["results"]
        _require(tuple(r["name"] for r in results) == IDENTITY_LAWS,
                 "identity suite ran an unexpected set of laws")
        for r in results:
            _require(r["cases"] == cases and r["failures"] == 0 and r["passed"],
                     f"law {r['name']}: {r['failures']}/{r['cases']} failures")
    return check


def identity_laws(seed: int) -> List[Op]:
    suites = list(range(IDENTITY_SUITES))
    random.Random(f"identity-laws:{seed}").shuffle(suites)
    return [Op(["identities", "--seed", str(s), "--cases", str(IDENTITY_CASES),
                "--json"], None, 0, _check_identities(s, IDENTITY_CASES))
            for s in suites]


# -- lie-poisson -----------------------------------------------------------------
#
# Structure constants pi^{ij} = sum_k c_ij^k x_k (i < j). The seed pushes each
# algebra forward by a flip of the sign of each coordinate: an isomorphism
# with |det| = 1, so the unit volume, the Casimir counts and the truncated
# dimensions are unchanged while the documents differ. A flip keeps every
# monomial and pivot pattern, so the work is unchanged too; permuting the
# coordinates as well changed the time of the Heisenberg operations by 25%.

ALGEBRAS = {
    "so3": {(0, 1): (0, 0, 1), (1, 2): (1, 0, 0), (0, 2): (0, -1, 0)},
    "sl2": {(0, 1): (0, 2, 0), (0, 2): (0, 0, -2), (1, 2): (1, 0, 0)},
    "heisenberg": {(0, 1): (0, 0, 1)},
}
SOLVE_DEGREES = range(1, 7)
COHOMOLOGY_DEGREES = range(1, 5)


def _pushed_bivector(constants, signs) -> Dict[int, object]:
    terms: Dict[int, List[int]] = {}
    for (i, j), coeffs in constants.items():
        row = terms.setdefault((1 << i) | (1 << j), [0, 0, 0])
        for k, ck in enumerate(coeffs):
            row[k] += signs[i] * signs[j] * signs[k] * ck
    return {mask: oracle.linear(row) for mask, row in terms.items()}


def _check_casimirs(pi, env, points, count: int) -> Callable[[str], None]:
    def check(stdout: str) -> None:
        solutions = json.loads(stdout)["solutions"]
        _require(len(solutions) == count,
                 f"{len(solutions)} Casimirs, expected {count}")
        for sol in solutions:
            for pt in points:
                f = oracle.json_func_dual(sol["value"], pt)
                field = oracle.hamiltonian_at(_duals(pi, pt, env), f)
                _require(not any(field), f"Casimir has a non-zero field at {pt}")
    return check


def _check_witness(pi, env, points) -> Callable[[str], None]:
    """The witness w satisfies pi(dw) = curl pi, both zero here (unimodular)."""
    def check(stdout: str) -> None:
        witness = json.loads(stdout)["witness"]
        _require(witness is not None, "no unimodularity witness")
        for pt in points:
            _require(not oracle.curl_at(_duals(pi, pt, env)),
                     "reference modular field is non-zero")
            w = oracle.json_func_dual(witness["value"], pt)
            field = oracle.hamiltonian_at(_duals(pi, pt, env), w)
            _require(not any(field), f"witness field non-zero at {pt}")
    return check


def _check_cohomology(k: int, d: int) -> Callable[[str], None]:
    def check(stdout: str) -> None:
        r = json.loads(stdout)
        _require(r["k"] == k and r["domain_degree_bound"] == d,
                 "cohomology echoed the wrong k or degree")
        _require(r["dim_exact_k"] == oracle.curl_free_dim(3, k, d),
                 f"dim_exact_k {r['dim_exact_k']} differs from the closed form "
                 f"{oracle.curl_free_dim(3, k, d)}")
        _require(0 <= r["dim_image_from_km1"] <= r["dim_kernel"] <= r["dim_exact_k"],
                 "image <= kernel <= exact fails")
        _require(r["truncated_h_dim"] == r["dim_kernel"] - r["dim_image_from_km1"],
                 "truncated H dimension is not kernel minus image")
    return check


def lie_poisson(seed: int) -> List[Op]:
    rng = random.Random(f"lie-poisson:{seed}")
    ops: List[Op] = []
    for algebra, constants in ALGEBRAS.items():
        signs = [rng.choice((1, -1)) for _ in range(3)]
        pi = _pushed_bivector(constants, signs)
        env: Dict[str, object] = {}
        body = " + ".join(
            f"{oracle.render(coeff, NAMES)} "
            + "^^".join(f"e{i + 1}" for i in range(3) if mask >> i & 1)
            for mask, coeff in sorted(pi.items()))
        doc = f"chart x y z\nlie g = {body}\n"
        points = _points(rng, 3, env, ())
        for d in SOLVE_DEGREES:
            count = oracle.casimir_count(algebra, d)
            ops.append(Op(["casimir", "g", "--max-degree", str(d), "--json"], doc,
                          0, _check_casimirs(pi, env, points, count)))
            ops.append(Op(["lm-solve", "g", "--max-degree", str(d), "--json"], doc,
                          0, _check_transport(pi, env, points, count)))
            ops.append(Op(["unimodular", "g", "--max-degree", str(d), "--json"], doc,
                          0, _check_witness(pi, env, points)))
        for k in range(4):
            for d in COHOMOLOGY_DEGREES:
                ops.append(Op(["cohomology", "g", "--k", str(k), "--max-degree",
                               str(d), "--json"], doc, 0, _check_cohomology(k, d)))
    return ops


WORKLOADS: Dict[str, Callable[[int], List[Op]]] = {
    "rational-curl": rational_curl,
    "identity-laws": identity_laws,
    "lie-poisson": lie_poisson,
}
