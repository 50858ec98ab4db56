import contextlib
import hashlib
import io
import json
import os
import random
import re
import string
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from gsvindex import Polynomial, parse_poly
from gsvindex import cli, localstd
from gsvindex.cli import (
    EXIT_CERTIFICATE,
    EXIT_FAILURE,
    EXIT_MISMATCH,
    EXIT_NORMALIZATION,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SHAPE,
    EXIT_TANGENCY,
    MAX_NUMERAL_DIGITS,
    cmd_compute,
    cmd_el,
    cmd_verify,
    main,
    parse_problem_file,
    parse_problem_text,
)
from gsvindex.errors import (
    C1ClassZeroError,
    CertificateError,
    DegreeCapExceededError,
    InfiniteDimensionError,
    NormalizationError,
    ParseError,
    ShapeError,
    VerificationError,
)
from gsvindex.cli import _build_arg_parser

from intersection_oracle import gsv_index, intersection_number
from problems import (
    CORPUS_DIR,
    THREE_VARIABLE_MAPS,
    dk_problem,
    hamiltonian_multiple,
    substitute_problem,
)

x = Polynomial.variable(2, 0)
y = Polynomial.variable(2, 1)


# ------------------------------------------------------------- poly parsing

def test_parse_poly_examples():
    assert parse_poly("x^2*y + y^3", ("x", "y")) == x * x * y + y ** 3
    assert parse_poly("0", ("x", "y")).is_zero
    assert parse_poly("1/2*x - 1/2*x", ("x", "y")).is_zero


def test_parse_poly_grammar_features():
    assert parse_poly("(x + y)^2", ("x", "y")) == x * x + 2 * x * y + y * y
    assert parse_poly("-3*x", ("x", "y")) == -3 * x
    assert parse_poly("2/3", ("x", "y")) == Polynomial.constant(2, "2/3")
    assert parse_poly("x^2^3", ("x", "y")) == x ** 6


def test_a_minus_sign_binds_only_to_a_numeral():
    # the grammar's rational := '-'? int ('/' nat)?: the sign belongs to the
    # numeral after it, and a '-' before a variable or '(' is an error
    names = ("x", "y")
    assert parse_poly("-3*x", names) == -3 * x
    assert parse_poly("x*-3", names) == -3 * x
    assert parse_poly("2--3", names) == Polynomial.constant(2, 5)
    assert parse_poly("-3^2", names) == Polynomial.constant(2, 9)
    for text, column in (("-x", 1), ("(-x)", 2)):
        with pytest.raises(ParseError) as err:
            parse_poly(text, names)
        assert err.value.position == column - 1
        assert "expected a rational, a variable, or '('" in str(err.value)


def test_parse_poly_rejects_bad_input():
    for text in ("x y", "2x", "x^-1", "x^(2)", "x/2", "1/0", "(x", "x +", "^2"):
        with pytest.raises(ParseError):
            parse_poly(text, ("x", "y"))


def test_parse_poly_unknown_variable_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x + w", ("x", "y"))
    assert err.value.position == 4


def test_parser_totality_fuzz():
    rng = random.Random(99)
    alphabet = string.ascii_letters + string.digits + "+-*/^() .,;#\t"
    for _ in range(400):
        text = "".join(
            rng.choice(alphabet) for _ in range(rng.randint(0, 25))
        )
        try:
            parse_poly(text, ("x", "y"))
        except ParseError:
            pass  # the only acceptable failure mode


def test_parser_rejects_an_oversized_expansion_quickly(tmp_path):
    big = tmp_path / "big.prob"
    big.write_text("ring: x, y, z\nfield: complex\n"
                   "f: (x+y+z)^5000; x*y\nX: x; y; z\nC: [1, 0; 0, 1]\n")
    start = time.perf_counter()
    code, out = cmd_compute(str(big))
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_PARSE and "expression too large" in out
    with pytest.raises(ParseError):
        parse_poly("(x+1)*" * 400 + "1", ("x", "y"))  # products add up
    assert parse_poly("x^5000", ("x", "y")) == x ** 5000
    assert parse_poly("(x+y)^39", ("x", "y")) == (x + y) ** 39
    # products of two single terms are not counted: a long sum of powers
    # costs about as much as its length
    long_sum = " + ".join(f"x^{i}*y^{i}" for i in range(2500))
    assert len(parse_poly(long_sum, ("x", "y")).terms) == 2500


def test_parser_parses_long_sums_in_linear_time():
    n = 20_000
    text = " + ".join(f"x^{i}" for i in range(1, n + 1))
    start = time.perf_counter()
    p = parse_poly(text, ("x", "y"))
    assert time.perf_counter() - start < 4.0  # 8.3 s when each + copied the sum
    assert p == Polynomial(2, {(i, 0): 1 for i in range(1, n + 1)})
    # mixed signs, with every other term cancelled by a later one
    rng = random.Random(3)
    pieces, expected = [], {}
    for i in range(4000):
        m, c = (i % 50, i // 50), rng.randint(1, 9)
        pieces.append(("+", f"{c}*x^{m[0]}*y^{m[1]}"))
        expected[m] = expected.get(m, 0) + c
        if i % 2:
            pieces.append(("-", f"{c}*x^{m[0]}*y^{m[1]}"))
            expected[m] -= c
    text = "0 " + " ".join(f"{op} {t}" for op, t in pieces)
    assert parse_poly(text, ("x", "y")) == Polynomial(2, expected)
    assert len(parse_poly(text, ("x", "y")).terms) == 2000


def test_parser_budget_weighs_coefficient_size(tmp_path):
    A, B = "7" * 101, "3" * 100 + "1"
    base = f"({A}/{B}*x + {B}/{A}*y - {A}/7*z)"
    assert len(base + "^30") == 526
    for power in ("^30", "^39"):
        path = tmp_path / "wide.prob"
        path.write_text("ring: x, y, z\nfield: complex\n"
                        f"f: {base}{power}; x*y\nX: x; y; z\nC: [1, 0; 0, 1]\n")
        start = time.perf_counter()
        code, out = cmd_compute(str(path))
        assert time.perf_counter() - start < 0.5  # 2.0 s and 6.4 s when counted by pairs
        assert code == EXIT_PARSE and "expression too large" in out
    # small coefficients keep their old allowance, wide single terms are free
    assert parse_poly("(x+y+z)^39", ("x", "y", "z")) == (
        Polynomial.variable(3, 0) + Polynomial.variable(3, 1)
        + Polynomial.variable(3, 2)) ** 39
    assert parse_poly(f"({A}*x)^40", ("x", "y")) == Polynomial(
        2, {(40, 0): int(A) ** 40})


def test_parser_budget_charges_powers_of_single_terms(tmp_path):
    path = tmp_path / "tall.prob"
    path.write_text("ring: x, y\nfield: complex\n"
                    "f: 3^20000000*x + y\nX: x; y\nC: [1]\n")
    start = time.perf_counter()
    code, out = cmd_compute(str(path))
    assert time.perf_counter() - start < 0.5  # 7.1 s when single terms were free
    assert code == EXIT_PARSE and "expression too large" in out
    for text in ("(1/3)^5000000", "(3^200000)^100", "2^1700000*2^1700000*x",
                 "2^" + "9" * 400):
        start = time.perf_counter()
        with pytest.raises(ParseError, match="expression too large"):
            parse_poly(text, ("x", "y"))
        assert time.perf_counter() - start < 0.5
    # coefficients of one word are free, wider ones are charged but admitted
    assert parse_poly("(-1)^1000000*x^1000000", ("x", "y")) == x ** 1000000
    assert parse_poly("2^64*x", ("x", "y")) == (2 ** 64) * x


def test_numerals_past_the_digit_bound_exit_2_on_every_python(tmp_path):
    # int() refuses more than 4300 digits by default from Python 3.11 on and
    # accepts any length on 3.10; the tokenizer's own bound decides on both
    assert MAX_NUMERAL_DIGITS == 4300
    long = "7" * (MAX_NUMERAL_DIGITS + 1)
    path = tmp_path / "long.prob"
    for f in (f"{long}*x + y", f"x + 1/{long}*y", f"x^{long} + y"):
        path.write_text(f"ring: x, y\nfield: complex\nf: {f}\nX: x; y\nC: [1]\n")
        code, out = cmd_compute(str(path))
        assert code == EXIT_PARSE and "numeral longer than 4300 digits" in out
    assert main(["compute", str(path)]) == EXIT_PARSE
    assert parse_poly("7" * MAX_NUMERAL_DIGITS + "*x", ("x", "y")) == (
        (10 ** MAX_NUMERAL_DIGITS - 1) // 9 * 7 * x)
    # a digit that is not a decimal digit, such as a superscript, is no numeral
    with pytest.raises(ParseError, match="unexpected character"):
        parse_poly("x^\u00b2", ("x", "y"))


def test_parentheses_nested_past_the_cap_exit_2(tmp_path, capsys):
    # each level of parentheses costs the recursive-descent parser 3 frames;
    # past MAX_NESTING the input is a parse error, never a RecursionError
    cap = cli.MAX_NESTING

    def nested(depth, text):
        return "(" * depth + text + ")" * depth

    assert parse_poly(nested(cap, "x + y"), ("x", "y")) == x + y
    path = tmp_path / "deep.prob"
    for depth in (cap, cap + 1, 1000):
        want = EXIT_OK if depth == cap else EXIT_PARSE
        path.write_text(f"ring: x, y\nfield: complex\nf: {nested(depth, 'y')}\n"
                        "X: x; 0\nC: [0]\n")
        assert main(["compute", str(path)]) == want, depth
        path.write_text(f"ring: x, y\nfield: real\ng: {nested(depth, 'x^3')}; y\n")
        assert main(["el", str(path)]) == want, depth
        err = capsys.readouterr().err
        assert (f"parentheses nested deeper than {cap} at column {cap + 1}"
                in err) == (depth > cap)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for depth in (cap + 1, 1000):
        (corpus / f"deep{depth}.prob").write_text(
            f"ring: x, y\nfield: complex\nf: {nested(depth, 'y')}\n"
            "X: x; 0\nC: [0]\n")
        (corpus / f"deep{depth}.expect").write_text("index: 1\n")
    code, out = cmd_verify(str(corpus))
    assert code == EXIT_MISMATCH
    assert out.count(f"bad problem file: in 'f': parentheses nested deeper "
                     f"than {cap}") == 2
    assert out.endswith("\n0/2 cases passed\n")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter's digit limit exists from 3.11 on")
def test_numerals_parse_under_a_lowered_digit_limit(tmp_path):
    # MAX_NUMERAL_DIGITS is the only bound on a numeral, whatever int()'s
    path = tmp_path / "long.prob"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    try:
        assert parse_poly("7" * 2000 + "*x", ("x", "y")) == (
            (10 ** 2000 - 1) // 9 * 7 * x)
        for digits, expected in ((2000, EXIT_OK),
                                 (MAX_NUMERAL_DIGITS + 1, EXIT_PARSE)):
            path.write_text("ring: x, y\nfield: complex\n"
                            f"f: {'7' * digits}*x + y\nX: x; y\nC: [1]\n")
            assert cmd_compute(str(path))[0] == expected
    finally:
        sys.set_int_max_str_digits(limit)


def _unlimited_str(n: int) -> str:
    """str(n) with the interpreter's digit limit (Python 3.11+) lifted."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(n)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def test_long_output_coefficients_are_written_exactly(tmp_path):
    sevens = "7" * 3000
    path = tmp_path / "long.prob"
    path.write_text("ring: x, y\nfield: complex\nf: x^2 - y^3\n"
                    f"X: {sevens}^2*x; y\nC: [2]\n")
    a = (10 ** 3000 - 1) // 9 * 7
    code, out = cmd_compute(str(path))
    assert code == EXIT_TANGENCY
    assert out == ("error: the vector field is not tangent; residuals of "
                   f"Xf - Cf:\n  [0] -1*y^3 + {_unlimited_str(2 * a * a - 2)}"
                   "*x^2\n")
    big = 10 ** 5000 + 1
    assert Polynomial(2, {(1, 0): Fraction(big, 3)}).render() == (
        _unlimited_str(big) + "/3*x")
    assert Polynomial(2, {(0, 0): Fraction(-1, big)}).render() == (
        "-1/" + _unlimited_str(big))


def test_parser_budget_keeps_every_shipped_input(monkeypatch):
    from problems import (cusp_instance, dk_problem, gm_family,
                          hyperbola_problem, smooth_line_problem,
                          space_curve_problem)

    problems = [dk_problem(k, m) for k, m in ((4, 3), (6, 5), (8, 6), (14, 12))]
    problems += [space_curve_problem(l) for l in range(1, 7)]
    problems += [hyperbola_problem(), smooth_line_problem(multiplicity=3)]
    for P in problems:
        polys = list(P.f) + list(P.X) + list(P.C.entries)
        for p in polys:
            assert parse_poly(p.render(P.vars), P.vars) == p
    for f, X, c in [gm_family(k, l) for k in (2, 3, 4) for l in (1, 2, 3)] + [
            cusp_instance()]:
        for p in (f, *X, c):
            assert parse_poly(p.render(("x", "y")), ("x", "y")) == p
    monkeypatch.syspath_prepend(str(CORPUS_DIR.parent / "perfbench"))
    import workloads

    for name in workloads.WORKLOADS:
        ops, _ = workloads.build(name, 1)
        for op in ops:
            if op["kind"] == "cli":
                parse_problem_text(op["text"])
                continue
            texts = op["g"] if op["kind"] == "map" else (
                op["f"] + op["X"] + [c for row in op["C"] for c in row])
            for text in texts:
                parse_poly(text, op["vars"])


# ------------------------------------------------------------ problem files

def test_problem_file_errors():
    with pytest.raises(ParseError):
        parse_problem_text("field: complex\nf: x\nX: x\nC: [0]\n")  # no ring
    with pytest.raises(ParseError):
        parse_problem_text("ring: x, y\nfield: fancy\nf: y\nX: x; 0\nC: [0]\n")
    with pytest.raises(ParseError):
        parse_problem_text("ring: x, x\nfield: real\nf: x\nX: x; x\nC: [0]\n")


def test_fuzzed_problem_files_never_crash(tmp_path):
    rng = random.Random(7)
    alphabet = string.printable
    target = tmp_path / "fuzz.prob"
    for _ in range(120):
        target.write_text(
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 80)))
        )
        code, output = cmd_compute(str(target))
        assert code in (EXIT_PARSE, EXIT_SHAPE, EXIT_TANGENCY,
                        EXIT_NORMALIZATION, EXIT_OK)
        assert output


# ----------------------------------------------------------------- commands

def test_compute_dk_json():
    code, out = cmd_compute(
        str(CORPUS_DIR / "dk_k4_m3.prob"), json_output=True, seed=1
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["index"] == 6 and doc["dim_B0"] == 12
    assert doc["dim_C0"] == 6 and doc["signature"] is None
    assert doc["c1"] == "4*x^3"


def test_compute_hyperbola_report():
    code, out = cmd_compute(
        str(CORPUS_DIR / "hyperbola_real.prob"), json_output=True,
        check_good=True, deform=True,
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["index"] == 0
    assert doc["signature"] == {"plus": 1, "minus": 1, "rank": 2}
    assert doc["goodness"]["status"] == "satisfied"
    assert doc["deformation"]["components"] == ["x^2 - t", "x*y"]


@pytest.mark.parametrize("k, m", [(5, 4), (6, 5)])
def test_compute_deform_in_mixed_coordinates(tmp_path, k, m):
    # dk(k,m) after the shear [[-1, -1], [-2, -3]]: the deformation is the
    # components over a unit denominator U, with Df . X = U C (f - t)
    p = substitute_problem(dk_problem(k, m, "real"), [[-1, -1], [-2, -3]])
    names = list(p.vars)
    path = tmp_path / "mixed.prob"
    path.write_text(f"ring: x, y\nfield: real\nf: {p.f[0].render(names)}\n"
                    f"X: {'; '.join(c.render(names) for c in p.X)}\n"
                    f"C: [{p.C.entry(0, 0).render(names)}]\n")
    code, out = cmd_compute(str(path), json_output=True, check_good=True,
                            deform=True)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["goodness"]["status"] == "satisfied"
    dnames = doc["deformation"]["vars"]
    assert dnames == ["x", "y", "t"]
    X = [parse_poly(c, dnames) for c in doc["deformation"]["components"]]
    U = parse_poly(doc["deformation"]["denominator"], dnames)
    assert not U.is_constant() and U.constant_term == 1
    f = parse_poly(p.f[0].render(names), dnames)
    C = parse_poly(p.C.entry(0, 0).render(names), dnames)
    t = Polynomial.variable(3, 2)
    assert f.diff(0) * X[0] + f.diff(1) * X[1] == U * C * (f - t)
    code, text = cmd_compute(str(path), check_good=True, deform=True)
    assert code == EXIT_OK
    assert f"deformation denominator: {doc['deformation']['denominator']}" in text


def test_compute_tangency_violation(tmp_path):
    bad = tmp_path / "bad.prob"
    bad.write_text("ring: x, y\nfield: complex\nf: y\nX: 0; 1\nC: [0]\n")
    code, out = cmd_compute(str(bad))
    assert code == EXIT_TANGENCY
    assert "residuals" in out and "1" in out


def test_compute_shape_violation(tmp_path):
    bad = tmp_path / "shape.prob"
    bad.write_text(
        "ring: x, y, z\nfield: complex\nf: x^2+y^2+z^2\nX: x; y; z\nC: [2]\n"
    )
    code, out = cmd_compute(str(bad))
    assert code == EXIT_SHAPE


def test_compute_normalization_failure(tmp_path, monkeypatch):
    monkeypatch.setattr("gsvindex.index.MAX_ATTEMPTS", 6)
    bad = tmp_path / "line.prob"
    bad.write_text("ring: x, y\nfield: complex\nf: x\nX: x; 0\nC: [1]\n")
    code, out = cmd_compute(str(bad))
    assert code == EXIT_NORMALIZATION


def test_degree_cap_in_the_complex_dimension_is_a_limit(monkeypatch):
    import gsvindex.index as index_mod

    def capped(gens, *args, **kwargs):
        raise DegreeCapExceededError("standard-basis completion passed degree cap 1")

    monkeypatch.setattr(index_mod, "quotient_dimension", capped)
    code, out = cmd_compute(str(CORPUS_DIR / "space_curve_l1.prob"))
    assert code == EXIT_NORMALIZATION and "degree cap" in out
    assert cmd_compute(str(CORPUS_DIR / "hyperbola_real.prob"))[0] == EXIT_OK


def _line_file(tmp_path):
    # (f, X_1) = (x, x) is one-dimensional in every coordinate system
    path = tmp_path / "line.prob"
    path.write_text("ring: x, y\nfield: complex\nf: x\nX: x; 0\nC: [1]\n")
    return str(path)


def test_compute_max_attempts_one_tries_exactly_one(tmp_path, monkeypatch):
    monkeypatch.setattr("gsvindex.index.MAX_ATTEMPTS", 1)
    code, out = cmd_compute(_line_file(tmp_path))
    assert code == EXIT_NORMALIZATION
    assert "out of 1 " in out
    assert "no hyperplane y_1 = 0 tried cuts the curve" in out


# X = (x, 0) vanishes on the line x = 0: on (xy) the identity and the swap
# are refuted by f alone, and the first seeded change finds B0 infinite and
# its section finite. On (xy, xz), the plane x = 0 meets every hyperplane
# in a line, so no section is finite. X = 0 on the line y = 0 makes X_1 the
# zero polynomial: B0 is infinite and the section by x = 0 finite at once
NORMALIZATION_VERDICTS = pytest.mark.parametrize("text, message, sections", [
    ("ring: x, y\nfield: complex\nf: x*y\nX: x; 0\nC: [1]\n",
     r"vanishes on a branch of the curve, so its zero on the curve is not "
     r"isolated \(coordinate change [1-3]:", 1),
    ("ring: x, y\nfield: complex\nf: x\nX: x; 0\nC: [1]\n",
     r"vanishes on a branch of the curve, so its zero on the curve is not "
     r"isolated \(coordinate change [1-3]:", 1),
    ("ring: x, y\nfield: complex\nf: y\nX: 0; 0\nC: [0]\n",
     r"vanishes on a branch of the curve, so its zero on the curve is not "
     r"isolated \(coordinate change 1:", 1),
    ("ring: x, y, z\nfield: complex\nf: x*y; x*z\nX: x; 0; 0\n"
     "C: [1, 0; 0, 1]\n",
     r"no coordinate change out of 25 made \(f, X_1\) zero-dimensional: "
     r"no hyperplane y_1 = 0 tried cuts the curve in a finite section", None),
])


@NORMALIZATION_VERDICTS
def test_normalization_failures_state_what_was_proven(tmp_path, monkeypatch,
                                                      text, message,
                                                      sections):
    import gsvindex.index as index_mod

    calls, real_dimension = [], index_mod.quotient_dimension

    def dimension(gens, *args, **kwargs):
        calls.append(len(gens))
        return real_dimension(gens, *args, **kwargs)

    monkeypatch.setattr(index_mod, "quotient_dimension", dimension)
    path = tmp_path / "case.prob"
    path.write_text(text)
    code, out = cmd_compute(str(path))
    assert code == EXIT_NORMALIZATION
    assert re.search(message, out), out
    assert "likely" not in out
    if sections is not None:
        assert len(calls) == sections


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="V = {y^2 = 0} "
                   "is not reduced, but no singular-locus test rejects it: "
                   "the index is printed with exit 0")
def test_double_line_is_not_an_isolated_curve_singularity(tmp_path):
    path = tmp_path / "double.prob"
    path.write_text("ring: x, y\nfield: real\nf: y^2\nX: x; 0\nC: [0]\n")
    code, out = cmd_compute(str(path))
    assert code == EXIT_SHAPE, out


def test_compute_has_no_max_attempts_option(tmp_path, capsys):
    # the search budget is the constant index.MAX_ATTEMPTS
    with pytest.raises(SystemExit) as info:
        main(["compute", _line_file(tmp_path), "--max-attempts", "3"])
    assert info.value.code == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "unrecognized arguments: --max-attempts 3" in err


def _hamiltonian_cases():
    """(f, h) of the fixed cases of test_index's hamiltonian multiples and
    of 12 seeded plane ones: f = x^a - y^b, and h with a nonzero linear
    part and no common component with f."""
    x3, y3, z3 = (Polynomial.variable(3, i) for i in range(3))
    cases = [([x * x - y ** 3], x), ([x * x - y ** 3], y),
             ([x ** 3 + y ** 5], x + y * y), ([x * y], x + y),
             ([x ** 3 - x * y * y], x * x + y),
             ([x * x * y + y ** 4], x * x - 2 * y ** 3),
             ([z3 - x3 * y3, x3 * x3 - y3 * y3 + z3 ** 3], x3),
             ([z3 - x3 * x3, x3 * y3], x3 + y3)]
    rng = random.Random(25)
    seeded = 0
    while seeded < 12:
        f = x ** rng.randint(2, 5) - y ** rng.randint(2, 5)
        a, b = rng.choice([(1, 0), (0, 1), (1, 1), (1, -1), (2, -3), (3, 1)])
        h = sum((rng.randint(-2, 2) * x ** i * y ** (k - i)
                 for k in (2, 3) for i in range(k + 1)), a * x + b * y)
        if intersection_number(f.terms, h.terms) is not None:
            cases.append(([f], h))
            seeded += 1
    return cases


def test_compute_composes_the_criterion_on_hamiltonian_multiples(tmp_path):
    # X = h X_f with C = 0 satisfies the sufficient criterion and is its
    # own deformation, and its GSV indices are those of the map (f, h) (see
    # test_index's hamiltonian multiples): compute --check-good --deform
    # must agree with el in both fields, and a plane complex index with
    # the intersection oracle
    for k, (f, h) in enumerate(_hamiltonian_cases()):
        P = hamiltonian_multiple(f, h)
        names = list(P.vars)
        show = lambda ps: "; ".join(p.render(names) for p in ps)
        zeros = "; ".join([", ".join(["0"] * len(f))] * len(f))
        (tmp_path / f"g{k}.prob").write_text(
            f"ring: {', '.join(names)}\ng: {show(f + [h])}\n")
        for field in ("complex", "real"):
            path = tmp_path / f"X{k}_{field}.prob"
            path.write_text(f"ring: {', '.join(names)}\nfield: {field}\n"
                            f"f: {show(f)}\nX: {show(P.X)}\nC: [{zeros}]\n")
            code, out = cmd_compute(str(path), json_output=True,
                                    check_good=True, deform=True)
            assert code == EXIT_OK, (f, h, out)
            doc = json.loads(out)
            code, out = cmd_el(str(tmp_path / f"g{k}.prob"), json_output=True,
                               mode=field)
            assert code == EXIT_OK, (f, h, out)
            assert doc["index"] == json.loads(out)["index"], (f, h, field)
            assert doc["goodness"]["status"] == "satisfied"
            assert doc["deformation"]["components"] == [
                p.render(names) for p in P.X]
            assert "denominator" not in doc["deformation"]
            if field == "complex" and len(names) == 2:
                oracle = gsv_index(f[0].terms, [c.terms for c in P.X])
                assert doc["index"] == oracle, (f, h)


def test_compute_regular_point_has_index_zero(tmp_path):
    # X(0) != 0: (f, X_1) is the unit ideal, B0 = 0 and the index is 0
    for field in ("complex", "real"):
        reg = tmp_path / f"regular_{field}.prob"
        reg.write_text(f"ring: x, y\nfield: {field}\nf: y\nX: 1; 0\nC: [0]\n")
        code, out = cmd_compute(
            str(reg), json_output=True, check_good=True, deform=True
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["index"] == 0 and doc["dim_B0"] == 0 and doc["dim_C0"] == 0


def test_compute_curve_missing_origin(tmp_path):
    off = tmp_path / "off.prob"
    off.write_text("ring: x, y\nfield: complex\nf: y - 1\nX: x; 0\nC: [0]\n")
    code, out = cmd_compute(str(off))
    assert code == EXIT_SHAPE and "origin" in out


def test_el_examples(tmp_path):
    code, out = cmd_el(
        str(CORPUS_DIR / "el_plane_quadratic_real.prob"), json_output=True
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["index"] == 2 and doc["dim_B0"] == 4
    code, out = cmd_el(
        str(CORPUS_DIR / "el_plane_quadratic_real.prob"), json_output=True,
        mode="complex",
    )
    assert json.loads(out)["index"] == 4
    simple = tmp_path / "id.prob"
    simple.write_text("ring: x, y\nfield: real\ng: x; y\n")
    code, out = cmd_el(str(simple), json_output=True)
    assert json.loads(out)["index"] == 1


def test_el_builds_one_standard_basis_per_mode(monkeypatch):
    calls = []
    original = localstd.standard_basis

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(localstd, "standard_basis", counted)
    path = str(CORPUS_DIR / "el_plane_quadratic_real.prob")
    for mode in ("real", "complex"):
        calls.clear()
        code, _ = cmd_el(path, json_output=True, mode=mode)
        assert code == EXIT_OK and len(calls) == 1, mode


def test_el_non_isolated_zero_exits_4_in_both_modes(tmp_path, capsys):
    # a line of zeros, and the zero map, whose ideal is the zero ideal
    for g in ("x; x^2", "0; 0"):
        path = tmp_path / "line.prob"
        path.write_text(f"ring: x, y\nfield: real\ng: {g}\n")
        for mode in ("real", "complex"):
            code = main(["el", str(path), "--mode", mode])
            assert code == EXIT_NORMALIZATION, (g, mode)
            err = capsys.readouterr().err
            assert err == "error: the zero of the map is not isolated\n", (
                g, mode)


def test_el_non_square_map_exits_3_in_both_modes(tmp_path, capsys):
    path = tmp_path / "plane.prob"
    path.write_text("ring: x, y, z\nfield: real\ng: x; y\n")
    for mode in ("real", "complex"):
        assert main(["el", str(path), "--mode", mode]) == EXIT_SHAPE
        err = capsys.readouterr().err
        assert err == "error: map has 2 components for 3 variables\n", mode


def test_failed_internal_certificate_has_its_own_exit_code(tmp_path,
                                                           monkeypatch):
    def corrupt(self, p):
        return [1] * len(self.index), 1

    monkeypatch.setattr(localstd.CanonicalQuotient, "integer_coordinates",
                        corrupt)
    code, out = cmd_compute(str(CORPUS_DIR / "dk_k4_m3.prob"))
    assert code == EXIT_CERTIFICATE == 6
    assert "internal certificate failed" in out
    code, out = cmd_el(str(CORPUS_DIR / "el_plane_quadratic_real.prob"))
    assert code == EXIT_CERTIFICATE and "internal certificate failed" in out
    (tmp_path / "case.prob").write_text(
        (CORPUS_DIR / "dk_k4_m3.prob").read_text())
    (tmp_path / "case.expect").write_text(
        (CORPUS_DIR / "dk_k4_m3.expect").read_text())
    code, out = cmd_verify(str(tmp_path))
    assert code == EXIT_MISMATCH and out.startswith("FAIL  case.prob")


@pytest.mark.parametrize("error, code", [
    (ShapeError, EXIT_SHAPE),
    (NormalizationError, EXIT_NORMALIZATION),
    (InfiniteDimensionError, EXIT_NORMALIZATION),
    (DegreeCapExceededError, EXIT_NORMALIZATION),
    (CertificateError, EXIT_CERTIFICATE),
    (C1ClassZeroError, EXIT_FAILURE),
    (VerificationError, EXIT_FAILURE),
])
def test_compute_and_el_share_one_exit_code_table(monkeypatch, error, code):
    import gsvindex.index as index_mod

    def fail(*args, **kwargs):
        raise error("planted failure")

    for entry in ("complex_gsv_index", "real_gsv_index", "_map_report"):
        monkeypatch.setattr(index_mod, entry, fail)
    runs = [cmd_compute(str(CORPUS_DIR / name))
            for name in ("dk_k4_m3.prob", "hyperbola_real.prob")]
    runs += [cmd_el(str(CORPUS_DIR / "el_plane_quadratic_real.prob"), mode=mode)
             for mode in ("real", "complex")]
    prefix = "internal certificate failed: " if error is CertificateError else ""
    assert runs == [(code, f"error: {prefix}planted failure\n")] * 4


def test_el_rejects_tangency_file():
    code, _ = cmd_el(str(CORPUS_DIR / "dk_k4_m3.prob"))
    assert code == EXIT_SHAPE
    code, _ = cmd_compute(str(CORPUS_DIR / "el_odd_cube.prob"))
    assert code == EXIT_SHAPE


def test_determinism_fixed_seed():
    for name in ("dk_k4_m3.prob", "hyperbola_real.prob", "cusp_real.prob"):
        path = str(CORPUS_DIR / name)
        runs = []
        for _ in range(2):
            code, out = cmd_compute(path, json_output=True, seed=7)
            assert code == EXIT_OK
            doc = json.loads(out)
            doc.pop("timing")
            runs.append(json.dumps(doc, sort_keys=True))
        assert runs[0] == runs[1]


def test_verify_shipped_corpus():
    code, out = cmd_verify(str(CORPUS_DIR))
    assert code == EXIT_OK, out
    assert "FAIL" not in out


def test_el_fails_its_post_check_when_the_jacobian_class_vanishes(monkeypatch):
    # the Jacobian of a finite map germ never vanishes in its local algebra
    # (it spans the socle), so the class is zeroed by hand; the real path
    # through the integer coordinates, choose_linear_form and _map_report
    # then runs as is, and the zero class is an internal inconsistency
    from gsvindex.algebra import FiniteAlgebra

    monkeypatch.setattr(FiniteAlgebra, "_integer_coords",
                        lambda self, p: ([0] * self.dim, 1))
    code, out = cmd_el(str(CORPUS_DIR / "el_plane_quadratic_real.prob"))
    assert code == EXIT_FAILURE
    assert out == "error: the distinguished class projects to zero in the quotient\n"


def test_a_tangent_field_without_the_deformation_property_exits_1(tmp_path):
    # the radial field on the node is tangent (Xf = 2f), but c1 = trace(DX)
    # - trace(C) = 2 - 2 = 0, so its class vanishes in C0 of dimension 1:
    # the input, not a fault of the computation, leads to this exit
    path = tmp_path / "radial_node.prob"
    path.write_text("ring: x, y\nfield: real\nf: x*y\nX: x; y\nC: [2]\n")
    code, out = cmd_compute(str(path))
    assert code == EXIT_FAILURE == 1
    assert out == "error: the distinguished class projects to zero in the quotient\n"


def test_verify_refuses_the_removed_jobs_option(capsys):
    # verify runs its cases one after another and takes no --jobs
    with pytest.raises(SystemExit) as info:
        main(["verify", "corpus", "--jobs", "2"])
    assert info.value.code == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("usage: gsvindex") and "--jobs" in err


def test_verify_flags_corrupted_expectation(tmp_path):
    (tmp_path / "case.prob").write_text(
        (CORPUS_DIR / "smooth_line.prob").read_text()
    )
    (tmp_path / "case.expect").write_text("index: 99\n")
    code, out = cmd_verify(str(tmp_path))
    assert code == EXIT_MISMATCH
    assert "FAIL" in out and "expected 99" in out


def test_verify_rejects_a_duplicate_expectation_key(tmp_path):
    (tmp_path / "case.prob").write_text(
        (CORPUS_DIR / "smooth_line.prob").read_text()
    )
    (tmp_path / "case.expect").write_text("index: 1\nindex: 99\n")
    code, out = cmd_verify(str(tmp_path))
    assert code == EXIT_MISMATCH
    assert out.startswith("FAIL  case.prob  bad expectation record: "
                          "duplicate key 'index' (line 2)\n")


def test_files_that_are_not_utf8_are_parse_errors(tmp_path):
    message = "error: 'utf-8' codec can't decode byte 0xff in position 14"
    (tmp_path / "case.prob").write_bytes(b"ring: x, y\ng: \xff; y\n")
    for command in (cmd_compute, cmd_el):
        code, out = command(str(tmp_path / "case.prob"))
        assert code == EXIT_PARSE and out.startswith(message)
    (tmp_path / "case.expect").write_text("index: 1\n")
    code, out = cmd_verify(str(tmp_path))
    assert code == EXIT_MISMATCH
    assert out.startswith("FAIL  case.prob  bad problem file: 'utf-8' codec")
    (tmp_path / "case.prob").write_text("ring: x, y\ng: x; y\n")
    (tmp_path / "case.expect").write_bytes(b"index: \xff\n")
    code, out = cmd_verify(str(tmp_path))
    assert code == EXIT_MISMATCH
    assert out.startswith("FAIL  case.prob  bad expectation record: 'utf-8'")


@pytest.mark.parametrize("readable", [1, 2])
def test_verify_reports_an_unreadable_case_as_a_failure(tmp_path, readable):
    # a directory where a .prob or .expect file should be is a FAIL line,
    # not a traceback whose exit status would read as a mismatch; the
    # readable cases beside it still run and are counted
    def copy_cases(dst, names):
        for name in names:
            for suffix in (".prob", ".expect"):
                (dst / f"{name}{suffix}").write_text(
                    (CORPUS_DIR / f"{name}{suffix}").read_text())

    good = tmp_path / "good"
    good.mkdir()
    copy_cases(good, ["dk_k4_m3", "smooth_line"][:readable])
    (good / "zz.prob").mkdir()
    (good / "zz.expect").write_text("index: 6\n")
    code, out = cmd_verify(str(good))
    assert code == EXIT_MISMATCH
    assert out.startswith("PASS  dk_k4_m3.prob  ")
    assert "\nFAIL  zz.prob  bad problem file: " in out
    assert out.count("\nPASS  ") == readable - 1
    assert out.endswith(f"\n{readable}/{readable + 1} cases passed\n")
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "dk_k4_m3.prob").write_text((CORPUS_DIR / "dk_k4_m3.prob").read_text())
    (bad / "dk_k4_m3.expect").mkdir()
    copy_cases(bad, ["smooth_line", "smooth_line_real"][:readable])
    code, out = cmd_verify(str(bad))
    assert code == EXIT_MISMATCH
    assert out.startswith("FAIL  dk_k4_m3.prob  bad expectation record: ")
    assert out.count("\nPASS  ") == readable
    assert out.endswith(f"\n{readable}/{readable + 1} cases passed\n")


def test_verify_empty_directory(tmp_path):
    code, out = cmd_verify(str(tmp_path))
    assert code == EXIT_OK and "warning" in out


def test_main_entrypoint(capsys):
    code = main(["compute", str(CORPUS_DIR / "smooth_line.prob"), "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["index"] == 1


def test_console_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "gsvindex", "el",
         str(CORPUS_DIR / "el_odd_cube.prob"), "--json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["index"] == 1


def test_el_nonvanishing_map_agrees_across_modes(tmp_path):
    # g(0) != 0: the local algebra is zero and both modes give index 0
    unit = tmp_path / "unit.prob"
    unit.write_text("ring: x, y\nfield: real\ng: 1 + x; y\n")
    for mode in ("complex", "real"):
        code, out = cmd_el(str(unit), json_output=True, mode=mode)
        assert code == EXIT_OK, out
        doc = json.loads(out)
        assert doc["index"] == 0 and doc["dim_B0"] == 0


@pytest.mark.parametrize("text, ph, el", THREE_VARIABLE_MAPS,
                         ids=[m[0] for m in THREE_VARIABLE_MAPS])
def test_el_on_maps_in_three_variables(tmp_path, text, ph, el):
    path = tmp_path / "map.prob"
    path.write_text(f"ring: x, y, z\nfield: real\ng: {text}\n")
    for mode, index in (("real", el), ("complex", ph)):
        code, out = cmd_el(str(path), json_output=True, mode=mode)
        assert code == EXIT_OK, out
        doc = json.loads(out)
        assert doc["index"] == index and doc["dim_B0"] == ph


def _parser_outcome(parser, argv):
    """(exit code, stdout, stderr) of parsing argv, help and errors included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parser.parse_args(argv)
            code = None
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_one_command_parser_reads_as_the_full_tree():
    # main registers only the named command; help, usage and error text
    # must still be those of the parser with all three commands
    prob = str(CORPUS_DIR / "smooth_line.prob")
    cases = [["compute", "-h"], ["el", "-h"], ["verify", "-h"], ["compute"],
             ["el", prob, "--mode", "q"], ["verify", "corpus", "--jobs", "0"],
             ["compute", prob, "--max-attempts", "0"], ["compute", prob, "--bogus"],
             ["-h"], [], ["bogus"], ["compute", prob, "--json", "--check-good"]]
    for argv in cases:
        full = _parser_outcome(_build_arg_parser(), argv)
        assert _parser_outcome(_build_arg_parser(argv), argv) == full, argv
        assert full[0] is None or full[1] or "usage:" in full[2], argv
    assert _parser_outcome(_build_arg_parser(["el"]), ["compute", prob])[0] == 2


def test_main_builds_each_command_parser_once(monkeypatch, tmp_path):
    # importing the package builds no parser, and so loads no locale, which
    # argparse's gettext imports on the first build
    env = dict(os.environ, PYTHONPATH=str(CORPUS_DIR.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys; import gsvindex, gsvindex.cli, gsvindex.index; "
         "print(gsvindex.cli._ARG_PARSERS, 'locale' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "{} False"
    monkeypatch.setattr(cli, "_ARG_PARSERS", {})
    built = []

    def counted(argv=()):
        built.append(argv[0] if argv else None)
        return _build_arg_parser(argv)

    monkeypatch.setattr(cli, "_build_arg_parser", counted)
    for _ in range(3):
        assert main(["compute", str(CORPUS_DIR / "smooth_line.prob")]) == EXIT_OK
    assert built == ["compute"]
    for _ in range(2):
        assert main(["el", str(CORPUS_DIR / "el_odd_cube.prob")]) == EXIT_OK
        assert main(["verify", str(tmp_path)]) == EXIT_OK
        assert main(["compute", str(CORPUS_DIR / "smooth_line.prob")]) == EXIT_OK
        for argv in ([], ["bogus"]):
            with pytest.raises(SystemExit):
                main(argv)
    assert built == ["compute", "el", "verify", None]
    assert set(cli._ARG_PARSERS) == {"compute", "el", "verify", None}


def _main_outcome(argv):
    """(exit code, stdout, stderr) of main(argv), help and errors included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_reused_parsers_answer_as_fresh_ones(monkeypatch):
    # plain-text reports carry no timing, so two rounds must print the same;
    # a parser reused after a SystemExit (help or an error) still parses
    monkeypatch.setattr(cli, "_ARG_PARSERS", {})
    prob = str(CORPUS_DIR / "smooth_line.prob")
    sequence = [["compute", prob], ["el", str(CORPUS_DIR / "el_odd_cube.prob")],
                ["verify", str(CORPUS_DIR)], ["compute", "-h"], ["compute"],
                ["compute", prob, "--bogus"], ["bogus"], []]
    first, second = ([_main_outcome(argv) for argv in sequence]
                     for _ in range(2))
    assert [code for code, _, _ in first] == [0, 0, 0, 0, 2, 2, 2, 2]
    assert first == second


def test_problem_hash_is_of_the_bytes_that_were_parsed(tmp_path, monkeypatch):
    # the report hashes the bytes read once, even when the file is rewritten
    # before the report is made; a CRLF file parses as its LF twin
    lf = CORPUS_DIR / "smooth_line.prob"
    original = lf.read_bytes()
    path = tmp_path / "a.prob"
    path.write_bytes(original)
    evaluate = cli._evaluate

    def rewriting_evaluate(*args, **kwargs):
        path.write_bytes(original + b"# rewritten\n")
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(cli, "_evaluate", rewriting_evaluate)
    code, out = cmd_compute(str(path), json_output=True)
    assert code == EXIT_OK
    assert json.loads(out)["problem_hash"] == hashlib.sha256(original).hexdigest()
    monkeypatch.undo()

    crlf = tmp_path / "crlf.prob"
    crlf.write_bytes(original.replace(b"\n", b"\r\n"))
    assert b"\r\n" in crlf.read_bytes()
    assert parse_problem_file(crlf).problem == parse_problem_file(lf).problem
    code, out = cmd_compute(str(crlf), json_output=True)
    doc, want = json.loads(out), json.loads(cmd_compute(str(lf), json_output=True)[1])
    assert code == EXIT_OK
    assert doc["problem_hash"] == hashlib.sha256(crlf.read_bytes()).hexdigest()
    for key in ("problem_hash", "timing"):
        del doc[key], want[key]
    assert doc == want


def test_problem_hash_falls_back_to_hashlib():
    # an interpreter built without its own _sha2 / _sha256 hashes the
    # report through hashlib, to the same digest
    path = CORPUS_DIR / "cusp_real.prob"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
         "from gsvindex import cli; "
         "assert cli.sha256 is sys.modules['hashlib'].sha256; "
         "sys.exit(cli.main(sys.argv[1:]))",
         "compute", "--json", str(path)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_OK, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["problem_hash"] == hashlib.sha256(path.read_bytes()).hexdigest()
