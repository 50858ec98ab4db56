"""The frozen-record contract of the package's ten result classes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from gsvindex import Polynomial, PolyMatrix, Problem, real_gsv_index
from gsvindex.cli import ProblemFile, parse_problem_file
from gsvindex.errors import InfiniteDimensionError, ShapeError
from gsvindex.index import (
    CoordinateNormalization,
    GoodnessResult,
    IndexReport,
    ensure_regular_sequence,
)
from gsvindex.localstd import (
    LocalOrder,
    MembershipWitness,
    StandardBasis,
    Staircase,
    staircase,
    standard_basis,
)
from gsvindex.sigform import SignatureResult

from problems import CORPUS_DIR, dk_problem, smooth_line_problem

SRC = Path(__file__).resolve().parent.parent / "src"

x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
one, zero = Polynomial.one(2), Polynomial.zero(2)
C = PolyMatrix(1, 1, [2 * x])
PROBLEM = Problem(vars=("x", "y"), f=(x * y,), X=(x, -y), C=C, field="real")
ORDER = LocalOrder(nvars=2)
NORM = CoordinateNormalization(transform=((1, 0), (0, 1)), problem=PROBLEM,
                               attempts_used=1, algebra=None)
SIG = SignatureResult(p_plus=1, p_minus=0, rank=1)

# (class, field values in order, defaults) of each record
RECORDS = [
    (ProblemFile, ["a.prob", PROBLEM, None, ("x", "y"), "real"], {}),
    (Problem, [("x", "y"), (x * y,), (x, -y), C, "complex"], {}),
    (CoordinateNormalization, [((1, 0), (0, 1)), PROBLEM, 1, None], {}),
    (GoodnessResult, ["unknown", (), (), None],
     {"minor_columns": (), "minors": (), "witnesses": None}),
    (IndexReport, [3, 1, 2, 2, SIG, x, NORM], {}),
    (LocalOrder, [3], {}),
    (StandardBasis, [ORDER, (x,), (x,), (), None], {"_certs": None}),
    (Staircase, [((0, 0),)], {}),
    (MembershipWitness, [one, (zero,)], {}),
    (SignatureResult, [2, 1, 3], {}),
]
FIELDS = {
    ProblemFile: ("path", "problem", "map_components", "variables", "field"),
    Problem: ("vars", "f", "X", "C", "field"),
    CoordinateNormalization: ("transform", "problem", "attempts_used",
                              "algebra"),
    GoodnessResult: ("status", "minor_columns", "minors", "witnesses"),
    IndexReport: ("dim_B0", "dim_B0_mod_DF", "dim_C0", "index", "signature",
                  "c1", "normalization"),
    LocalOrder: ("nvars",),
    StandardBasis: ("order", "generators", "basis", "_reducers", "_certs"),
    Staircase: ("basis_monomials",),
    MembershipWitness: ("denominator", "coefficients"),
    SignatureResult: ("p_plus", "p_minus", "rank"),
}
HIDDEN = {CoordinateNormalization: ("algebra",),
          StandardBasis: ("_reducers", "_certs")}


@pytest.mark.parametrize("cls, values, defaults", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_construction_by_position_and_keyword(cls, values, defaults):
    names = FIELDS[cls]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    mixed = cls(*values[:1], **dict(zip(names[1:], values[1:])))
    for record in (by_position, by_keyword, mixed):
        assert [getattr(record, n) for n in names] == values
    assert by_position == by_keyword == mixed
    assert hash(by_position) == hash(by_keyword)
    required = len(names) - len(defaults)
    assert names[required:] == tuple(defaults)
    with_defaults = cls(*values[:required])
    for name, default in defaults.items():
        assert getattr(with_defaults, name) == default
    shown = [n for n in names if n not in HIDDEN.get(cls, ())]
    assert hash(by_position) == hash(tuple(getattr(by_position, n)
                                             for n in shown))


@pytest.mark.parametrize("cls, values, defaults", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_bad_arguments_raise_type_error(cls, values, defaults):
    names = FIELDS[cls]
    required = len(names) - len(defaults)
    calls = [
        ((*values, 0), {}),  # one positional too many
        (values[:1], {names[0]: values[0], **dict(zip(names[1:], values[1:]))}),
        (values, {"unknown": 0}),
        (values[:required - 1], {}),  # a required field missing
    ]
    for args, kwargs in calls:
        with pytest.raises(TypeError, match=cls.__name__):
            cls(*args, **kwargs)


@pytest.mark.parametrize("cls, values, defaults", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_records_are_frozen(cls, values, defaults):
    record = cls(*values)
    name = FIELDS[cls][0]
    with pytest.raises(AttributeError):
        setattr(record, name, values[0])
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) is values[0]
    assert vars(record)  # a __dict__, for cached_property, copy and pickle


@pytest.mark.parametrize("cls, values, defaults", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_repr_names_the_shown_fields(cls, values, defaults):
    shown = ", ".join(f"{n}={v!r}" for n, v in zip(FIELDS[cls], values)
                      if n not in HIDDEN.get(cls, ()))
    assert repr(cls(*values)) == f"{cls.__name__}({shown})"


def test_the_repr_text_of_small_records():
    assert repr(SIG) == "SignatureResult(p_plus=1, p_minus=0, rank=1)"
    assert repr(ORDER) == "LocalOrder(nvars=2)"
    assert repr(GoodnessResult(status="unknown")) == (
        "GoodnessResult(status='unknown', minor_columns=(), minors=(), "
        "witnesses=None)")
    assert repr(Staircase(basis_monomials=None)) == (
        "Staircase(basis_monomials=None)")


def test_records_of_different_classes_never_compare_equal():
    records = [cls(*values) for cls, values, _ in RECORDS]
    for i, a in enumerate(records):
        for j, b in enumerate(records):
            assert (a == b) == (i == j)
            assert (a != b) == (i != j)
    # equal field values in another class, or as a plain tuple, differ too
    assert SignatureResult(p_plus=1, p_minus=0, rank=1) != (1, 0, 1)
    assert Staircase(basis_monomials=3) != LocalOrder(nvars=3)


def test_problem_and_local_order_check_their_fields():
    with pytest.raises(ValueError, match="unknown field tag 'quaternion'"):
        Problem(vars=("x", "y"), f=(x * y,), X=(x, -y), C=C, field="quaternion")
    with pytest.raises(ShapeError,
                       match="vector field has 1 components for 2 variables"):
        Problem(("x", "y"), (x * y,), (x,), C, "real")
    with pytest.raises(ShapeError, match="tangency matrix must be q x q"):
        Problem(("x", "y"), (x * y, x), (x, -y), C, "real")
    # __post_init__ builds the order's tables on either construction
    for order in (LocalOrder(3), LocalOrder(nvars=3)):
        assert order.key((0, 0, 0)) == 0
        assert order.decode(order.key((2, 1, 0))) == (2, 1, 0)
        assert order != ORDER
    assert LocalOrder(2) == ORDER


def test_hidden_fields_stay_out_of_equality_hash_and_repr():
    gens = [x * x - y ** 3, x * y]
    certified = standard_basis(gens)
    bare = standard_basis(gens, certify=False)
    assert certified._certs is not None and bare._certs is None
    assert certified == bare and hash(certified) == hash(bare)
    assert repr(certified) == repr(bare)
    assert "_reducers" not in repr(certified) and "_certs" not in repr(certified)

    problem = dk_problem(4, 3)
    norm = ensure_regular_sequence(problem)
    twin = CoordinateNormalization(
        transform=norm.transform, problem=norm.problem,
        attempts_used=norm.attempts_used, algebra=None)
    assert norm.algebra is not None
    assert norm == twin and hash(norm) == hash(twin)
    assert repr(norm) == repr(twin) and "algebra" not in repr(norm)
    assert twin != CoordinateNormalization(
        transform=norm.transform, problem=smooth_line_problem(),
        attempts_used=norm.attempts_used, algebra=None)


def test_records_holding_a_poly_matrix_hash_by_value():
    # a PolyMatrix hashes its shape and entries, so a Problem, and every
    # record that holds one, is a value that sets and dicts can hold
    twin = Problem(vars=("x", "y"), f=(x * y,), X=(x, -y),
                   C=PolyMatrix(1, 1, [x + x]), field="real")
    assert twin.C is not C and hash(twin) == hash(PROBLEM)
    assert {PROBLEM, twin} == {PROBLEM}
    files = [parse_problem_file(CORPUS_DIR / "cusp_real.prob") for _ in range(2)]
    reports = [real_gsv_index(pf.problem) for pf in files]
    for a, b in (files, reports):
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1 and {a: 1}[b] == 1


def test_standard_basis_caches_its_lift():
    sb = standard_basis([x * x - y ** 3, x * y])
    lift = sb.lift
    assert lift is not None and sb.lift is lift
    assert "lift" in vars(sb)
    assert standard_basis([x * x - y ** 3, x * y], certify=False).lift is None


def test_staircase_raises_on_an_infinite_basis_and_is_a_tuple_otherwise():
    finite = staircase(standard_basis([x * x, y]))
    assert finite == Staircase(basis_monomials=((0, 0), (1, 0)))
    assert type(finite.basis_monomials) is tuple
    with pytest.raises(InfiniteDimensionError):
        staircase(standard_basis([x * y]))


def test_importing_the_package_loads_no_dataclasses_inspect_or_hashlib():
    # -S skips the site hooks, so every module loaded comes from gsvindex's
    # own imports; dataclasses and inspect cost about 15 ms of start-up, and
    # hashlib, through OpenSSL's _hashlib, about 3.8 MB of peak RSS and 4 ms
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys; import gsvindex, gsvindex.cli, gsvindex.index; "
         "print(sorted({'dataclasses', 'inspect', 'hashlib', '_hashlib'}"
         " & set(sys.modules)))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
