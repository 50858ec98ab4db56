import time

import pytest

from gsvindex import Polynomial, parse_poly
from gsvindex.cli import EXIT_PARSE, MAX_DEGREE, cmd_compute, main
from gsvindex.errors import ParseError
from gsvindex.localstd import DEGREE_LIMIT

x = Polynomial.variable(2, 0)
y = Polynomial.variable(2, 1)

TOO_DEEP = ("x^" + "9" * 2000, "(x^1000)^1001", "x^600000*x^600000",
            "(x + y)^" + "7" * 2000, "(x^2 + y)^500001", "x^1000001")


def test_the_degree_cap_sits_between_the_cli_inputs_and_the_packed_limit():
    assert MAX_DEGREE >= 10 ** 6
    # a product of two admitted terms stays below the guard bit
    assert 2 * MAX_DEGREE < DEGREE_LIMIT // 1000


@pytest.mark.parametrize("text", TOO_DEEP)
def test_terms_past_the_degree_cap_fail_to_parse_before_expansion(text):
    start = time.perf_counter()
    with pytest.raises(ParseError, match=f"degree above {MAX_DEGREE}"):
        parse_poly(text, ("x", "y"))
    assert time.perf_counter() - start < 0.5


def test_terms_up_to_the_degree_cap_parse():
    assert parse_poly("x^1000000", ("x", "y")) == x ** MAX_DEGREE
    assert parse_poly("x^500000*y^500000", ("x", "y")) == (
        x ** 500000 * y ** 500000)
    assert parse_poly("(x^1000)^1000 - (x^1000)^1000", ("x", "y")).is_zero
    assert parse_poly("7^1000*x", ("x", "y")) == 7 ** 1000 * x


@pytest.mark.parametrize("f, X", [
    # a tangent problem that ran for minutes before the cap
    ("y^2 - x^3000000000", "2*y; 3000000000*x^2999999999"),
    ("x^" + "9" * 2000 + " + y", "x; y"),
    ("x^600000*x^600000 + y", "x; y"),
])
def test_deep_problems_exit_2_quickly(tmp_path, capsys, f, X):
    path = tmp_path / "deep.prob"
    path.write_text(f"ring: x, y\nfield: complex\nf: {f}\nX: {X}\nC: [0]\n")
    start = time.perf_counter()
    code, out = cmd_compute(str(path))
    assert code == EXIT_PARSE and f"degree above {MAX_DEGREE}" in out
    assert main(["compute", str(path), "--json"]) == EXIT_PARSE
    assert time.perf_counter() - start < 1.0
