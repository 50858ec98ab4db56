"""Problem-file ingestion, the index pipeline driver, and the corpus runner.

Problem files are UTF-8 and line-oriented, with `#` comments:

    ring: x, y, z
    field: complex            # or: real
    f: x^2+y^2+z^2; x*y
    X: z*(x-y)*x; z*(x-y)*y; z*(x-y)*z
    C: [2*z*(x-y), 0; 0, 2*z*(x-y)]

Classical-map files declare `g:` instead of f/X/C. Polynomial grammar
(multiplication always explicit):

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := rational | var | '(' expr ')' | factor '^' nat
    rational := '-'? int ('/' nat)?

A '-' before a numeral is its sign: -3*x, x*-3 and 2--3 parse, and -3^2
is 9. A '-' before anything else, as in -x or (-x), is a parse error.
Parentheses nest at most MAX_NESTING deep; deeper nesting is a parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from . import __version__, index as index_mod
from ._record import Record
from .errors import (
    C1ClassZeroError,
    CertificateError,
    DegreeCapExceededError,
    GsvError,
    InfiniteDimensionError,
    NormalizationError,
    ParseError,
    ShapeError,
    TangencyError,
    VerificationError,
)
from .index import IndexReport, Problem
from .poly import Polynomial, PolyMatrix, _accumulate

# hashlib loads OpenSSL's libcrypto, about 3.8 MB of peak RSS and 4 ms of
# start-up for one digest per report; the interpreter's own SHA-256 gives the
# same bytes. _sha2 is its name from 3.12 on, _sha256 before; hashlib serves
# an interpreter built without them.
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


# ---------------------------------------------------------------- tokenizer

_SYMBOLS = set("+-*/^()")
# Longest numeral accepted: the default digit limit of int() on Python 3.11+,
# enforced here so that every supported Python rejects the same inputs.
MAX_NUMERAL_DIGITS = 4300


def _tokenize(text: str):
    """Tokens as (kind, value, position); kind in {num, name, sym, end}."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j - i > MAX_NUMERAL_DIGITS:
                raise ParseError(f"numeral longer than {MAX_NUMERAL_DIGITS} "
                                 "digits", position=i)
            # Decimal converts without the interpreter's digit limit, which
            # may be set below MAX_NUMERAL_DIGITS
            tokens.append(("num", int(Decimal(text[i:j])), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append(("sym", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", position=i)
    tokens.append(("end", None, n))
    return tokens


# Work that the products in one polynomial may do in all, past which the
# input is reported as too large (exit 2) instead of being expanded. A
# product of p and q costs its term pairs times the size of the largest
# coefficient of p and of q in 64-bit words (numerator and denominator
# together); a product of two single terms is not counted, and a power of a
# single term costs the size of its coefficient in words when that is more
# than one, charged before the power is computed. The largest power
# of x+y+z it admits is the 39th, which parses in 0.3 s on a 2-core host;
# with 30-digit coefficients it is the 11th.
PARSE_PRODUCT_BUDGET = 50_000

MAX_DEGREE = 1_000_000  # of a term, checked before a product or power (exit 2)
MAX_NESTING = 100  # depth of parentheses; each level costs 3 Python frames


def _coefficient_words(p: Polynomial) -> int:
    """Size of the largest coefficient of p in 64-bit words, at least 1."""
    return 1 + max(c.numerator.bit_length() + c.denominator.bit_length()
                   for c in p.terms.values()) // 64


class _PolyParser:
    def __init__(self, text: str, names):
        self.names = list(names)
        self.index_of = {v: i for i, v in enumerate(self.names)}
        self.tokens = _tokenize(text)
        self.pos = 0
        self.budget = PARSE_PRODUCT_BUDGET
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message):
        raise ParseError(message, position=self.peek()[2])

    def parse(self) -> Polynomial:
        p = self.expr()
        if self.peek()[0] != "end":
            self.fail(f"trailing input {self.peek()[1]!r}")
        return p

    def expr(self) -> Polynomial:
        # the terms of a sum go into one map, so a sum costs its length
        acc = dict(self.term().terms)
        while self.peek()[:2] in (("sym", "+"), ("sym", "-")):
            sign = 1 if self.advance()[1] == "+" else -1
            _accumulate(acc, self.term().terms, sign)
        return Polynomial._trusted(len(self.names), acc)

    def term(self) -> Polynomial:
        p = self.factor()
        while self.peek()[:2] == ("sym", "*"):
            pos = self.advance()[2]
            p = self._product(p, self.factor(), pos)
        return p

    def _charge(self, cost: int, pos):
        self.budget -= cost
        if self.budget < 0:
            raise ParseError("expression too large", position=pos)

    def _check_degree(self, degree: int, pos):
        if degree > MAX_DEGREE:
            raise ParseError(f"degree above {MAX_DEGREE}", position=pos)

    def _product(self, p: Polynomial, q: Polynomial, pos) -> Polynomial:
        self._check_degree(p.total_degree() + q.total_degree(), pos)
        pairs = len(p.terms) * len(q.terms)
        if pairs > 1:  # a product of two single terms costs no more than a sum
            self._charge(pairs * _coefficient_words(p) * _coefficient_words(q), pos)
        return p * q

    def factor(self) -> Polynomial:
        kind, value, pos = self.peek()
        if kind == "sym" and value == "-" and self.tokens[self.pos + 1][0] == "num":
            self.advance()
            p = self._rational(negative=True)
        elif kind == "num":
            p = self._rational(negative=False)
        elif kind == "name":
            self.advance()
            if value not in self.index_of:
                raise ParseError(f"unknown variable {value!r}", position=pos)
            p = Polynomial.variable(len(self.names), self.index_of[value])
        elif kind == "sym" and value == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}",
                                 position=pos)
            self.advance()
            self.depth += 1
            p = self.expr()
            self.depth -= 1
            if self.peek()[:2] != ("sym", ")"):
                self.fail("expected ')'")
            self.advance()
        else:
            self.fail(
                "expected a rational, a variable, or '('"
                if kind != "end"
                else "unexpected end of input"
            )
        while self.peek()[:2] == ("sym", "^"):
            self.advance()
            kind, value, pos = self.peek()
            if kind != "num":
                raise ParseError("exponent must be a natural number", position=pos)
            self.advance()
            self._check_degree(p.total_degree() * value, pos)
            if len(p.terms) == 1:  # a single term: exponents and coefficient
                (m, c), = p.terms.items()
                # the words of c ** value, from v ** value having at least
                # value * (v.bit_length() - 1) + 1 bits, before it is computed
                words = 1 + sum(value * (abs(v).bit_length() - 1) + 1
                                for v in (c.numerator, c.denominator)) // 64
                if words > 1:
                    self._charge(words, pos)
                p = Polynomial(len(self.names),
                               {tuple(e * value for e in m): c ** value})
                continue
            # square-and-multiply, each product checked against the budget
            base, p = p, Polynomial.one(len(self.names))
            while value:
                if value & 1:
                    p = self._product(p, base, pos)
                value >>= 1
                if value:
                    base = self._product(base, base, pos)
        return p

    def _rational(self, negative: bool) -> Polynomial:
        kind, value, pos = self.advance()
        num = -value if negative else value
        if self.peek()[:2] == ("sym", "/"):
            self.advance()
            kind, den, dpos = self.peek()
            if kind != "num" or den == 0:
                raise ParseError(
                    "denominator must be a nonzero natural number", position=dpos
                )
            self.advance()
            return Polynomial.constant(len(self.names), Fraction(num, den))
        return Polynomial.constant(len(self.names), num)


def parse_poly(text: str, variables) -> Polynomial:
    """Parse one polynomial over the named variables (total on the grammar)."""
    return _PolyParser(text, variables).parse()


# ------------------------------------------------------------ problem files

class ProblemFile(Record):
    """A parsed problem file: either a tangency problem or a square map."""

    path: "str | None"
    problem: "Problem | None"
    map_components: "tuple | None"
    variables: tuple
    field: str


def _read_entries(text: str, keys, what: str = "key") -> dict:
    """{key: (value, lineno)} of the `key: value` lines of a problem or
    expectation file, each of `keys` at most once; `#` starts a comment."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError("expected 'key: value'", line=lineno)
        key, _, value = line.partition(":")
        key = key.strip()
        if key not in keys:
            raise ParseError(f"unknown {what} {key!r}", line=lineno)
        if key in entries:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        entries[key] = (value.strip(), lineno)
    return entries


def _parse_name_list(value: str, lineno: int):
    names = [v.strip() for v in value.split(",")]
    if not names or any(not n for n in names):
        raise ParseError("empty variable name in ring declaration", line=lineno)
    for n in names:
        if not (n[0].isalpha() or n[0] == "_") or not all(
            c.isalnum() or c == "_" for c in n
        ):
            raise ParseError(f"bad variable name {n!r}", line=lineno)
    if len(set(names)) != len(names):
        raise ParseError("duplicate variable names", line=lineno)
    return tuple(names)


def parse_problem_text(text: str, path: "str | None" = None) -> ProblemFile:
    entries = _read_entries(text, ("ring", "field", "f", "X", "C", "g"))
    if "ring" not in entries:
        raise ParseError("missing 'ring' declaration")
    variables = _parse_name_list(*entries["ring"])
    field = "complex"
    if "field" in entries:
        field, lineno = entries["field"]
        if field not in ("complex", "real"):
            raise ParseError(f"field must be complex or real, got {field!r}",
                             line=lineno)

    def polys(key, text=None, sep=";"):
        """The polynomials of key's value, or of text within it, split at sep."""
        value, lineno = entries[key]
        parts = (value if text is None else text).split(sep)
        try:
            return tuple(parse_poly(part, variables) for part in parts)
        except ParseError as exc:
            raise ParseError(f"in {key!r}: {exc}", line=lineno)

    if "g" in entries:
        if any(k in entries for k in ("f", "X", "C")):
            raise ParseError("'g' files must not declare f, X, or C")
        return ProblemFile(path=path, problem=None, map_components=polys("g"),
                           variables=variables, field=field)

    for key in ("f", "X", "C"):
        if key not in entries:
            raise ParseError(f"missing '{key}' declaration")
    f = polys("f")
    X = polys("X")
    value, lineno = entries["C"]
    if not (value.startswith("[") and value.endswith("]")):
        raise ParseError("C must be a bracketed matrix [a, b; c, d]", line=lineno)
    centries = [polys("C", row, ",") for row in value[1:-1].split(";")]
    width = len(centries[0])
    if any(len(r) != width for r in centries):
        raise ParseError("ragged tangency matrix", line=lineno)
    C = PolyMatrix(rows=len(centries), cols=width,
                   entries=[e for row in centries for e in row])
    problem = Problem(vars=variables, f=f, X=X, C=C, field=field)
    return ProblemFile(path=path, problem=problem, map_components=None,
                       variables=variables, field=field)


def parse_problem_file(path, data: "bytes | None" = None) -> ProblemFile:
    """Parse the problem file at path; data, when given, is its bytes as
    already read. Newlines are read as in text mode: \\r\\n and \\r become \\n."""
    if data is None:
        data = Path(path).read_bytes()
    text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    return parse_problem_text(text, path=str(path))


# ------------------------------------------------------------------ reports

def _report_text(p: dict) -> str:
    """The plain-text report of a payload; --json prints the payload itself."""
    lines = [f"field: {p['field']}", f"index: {p['index']}"]
    for key in ("dim_B0", "dim_B0_mod_DF", "dim_C0"):
        if p.get(key) is not None:
            lines.append(f"{key}: {p[key]}")
    if p.get("signature") is not None:
        s = p["signature"]
        lines.append(
            f"signature: {p['index']} (plus={s['plus']}, minus={s['minus']},"
            f" rank={s['rank']})"
        )
    if p.get("transform") is not None:
        rows = ["[" + ", ".join(r) + "]" for r in p["transform"]]
        lines.append("transform: " + "; ".join(rows))
    if p.get("c1") is not None:
        lines.append(f"c1: {p['c1']}")
    if p.get("goodness") is not None:
        lines.append(f"goodness: {p['goodness']['status']}")
    if p.get("deformation") is not None:
        comps = "; ".join(p["deformation"]["components"])
        lines.append(
            f"deformation ({', '.join(p['deformation']['vars'])}): {comps}"
        )
        if "denominator" in p["deformation"]:
            lines.append(
                f"deformation denominator: {p['deformation']['denominator']}")
    return "\n".join(lines) + "\n"


def _goodness_json(goodness, names):
    if goodness is None:
        return None
    if goodness.status != "satisfied":
        return {"status": "unknown"}
    witnesses = []
    for (row, col) in sorted(goodness.witnesses):
        w = goodness.witnesses[(row, col)]
        witnesses.append(
            {
                "row": row,
                "col": col,
                "denominator": w.denominator.render(names),
                "coefficients": [c.render(names) for c in w.coefficients],
            }
        )
    return {
        "status": "satisfied",
        "minor_columns": [list(cols) for cols in goodness.minor_columns],
        "minors": [m.render(names) for m in goodness.minors],
        "witnesses": witnesses,
    }


def _payload(pf: ProblemFile, rep: IndexReport, goodness, deformation,
             field: str, seed, elapsed_ms: int, problem_hash: str) -> dict:
    """The report record; a map's index leaves the GSV-only fields None,
    and goodness and deformation are as _evaluate returns them."""
    names = list(pf.variables)
    sig = rep.signature
    deformation_json = None
    if deformation is not None:
        components, dnames, unit = deformation
        deformation_json = {
            "vars": list(dnames),
            "components": [p.render(dnames) for p in components],
        }
        # X_t is the components over this unit, 1 unless a witness has one
        if not unit.is_constant():
            deformation_json["denominator"] = unit.render(names)
    return {
        "problem_hash": problem_hash,
        "field": field,
        "transform": None if rep.normalization is None else [
            [str(x) for x in row] for row in rep.normalization.transform],
        "dim_B0": rep.dim_B0,
        "dim_B0_mod_DF": rep.dim_B0_mod_DF,
        "dim_C0": rep.dim_C0,
        "index": rep.index,
        "signature": None if sig is None else {
            "plus": sig.p_plus, "minus": sig.p_minus, "rank": sig.rank},
        "c1": None if rep.c1 is None else rep.c1.render(names),
        "goodness": _goodness_json(goodness, names),
        "deformation": deformation_json,
        "seed": seed,
        "version": __version__,
        "timing": elapsed_ms,
    }


def _evaluate(pf: ProblemFile, field: str, seed, check_good=False,
              deform=False):
    """(IndexReport, goodness, deformation, elapsed ms) of a parsed file.

    The one place that picks the index, read in `field`: the complex or real
    GSV index of a tangency problem, or the Poincare-Hopf or Eisenbud-Levine
    index of a map. After the index, check_good or deform runs the sufficient
    deformability criterion on the problem as given, and deform builds the
    deformation when the criterion is satisfied; otherwise both are None.
    The time covers the computation only.
    """
    started = time.perf_counter()
    goodness = deformation = None
    if pf.map_components is None:
        P = pf.problem
        entry = (index_mod.real_gsv_index if field == "real"
                 else index_mod.complex_gsv_index)
        rep = entry(P, seed=seed)
        if check_good or deform:
            goodness = index_mod.is_good_sufficient(list(P.f), P.C)
        if deform and goodness.status == "satisfied":
            deformation = index_mod.construct_good_deformation(
                list(P.f), list(P.X), P.C, goodness, var_names=P.vars)
    else:
        rep = index_mod._map_report(pf.map_components, field == "real", seed)
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    return rep, goodness, deformation, elapsed_ms


# ----------------------------------------------------------------- commands

EXIT_OK = 0
EXIT_MISMATCH = 1  # verify: some expectation failed
EXIT_FAILURE = 1  # compute/el: a post-check, not a certificate, failed
EXIT_PARSE = 2
EXIT_SHAPE = 3
EXIT_NORMALIZATION = 4
EXIT_TANGENCY = 5
EXIT_CERTIFICATE = 6  # compute/el: an internal certificate failed

# The exit code of each failure category of compute and el. The first row
# that matches decides, so CertificateError precedes VerificationError, its
# base class.
_EXIT_CODES = (
    ((ParseError, OSError, UnicodeDecodeError), EXIT_PARSE),
    ((ShapeError,), EXIT_SHAPE),
    ((NormalizationError, InfiniteDimensionError, DegreeCapExceededError),
     EXIT_NORMALIZATION),
    ((TangencyError,), EXIT_TANGENCY),
    ((CertificateError,), EXIT_CERTIFICATE),
    ((C1ClassZeroError, VerificationError), EXIT_FAILURE),
)
_CATEGORIZED = tuple(cls for classes, _ in _EXIT_CODES for cls in classes)

_OTHER_COMMAND = {
    "compute": "this file declares a map 'g'; use the el command",
    "el": "this file declares f/X/C; use the compute command",
}


def _failure_message(exc, pf) -> str:
    if isinstance(exc, TangencyError):
        names = list(pf.variables)
        lines = ["error: the vector field is not tangent; residuals of Xf - Cf:"]
        lines += [f"  [{i}] {r.render(names)}"
                  for i, r in enumerate(exc.residuals)]
        return "\n".join(lines) + "\n"
    if isinstance(exc, CertificateError):
        return f"error: internal certificate failed: {exc}\n"
    return f"error: {exc}\n"


def _run(path, command: str, json_output: bool, seed, field=None,
         **options):
    """Parse, evaluate and report one file for compute or el.

    field overrides the file's own; returns (exit_code, output). The file
    is read once, so the report hashes the bytes that were parsed.
    """
    pf = None
    try:
        data = Path(path).read_bytes()
        pf = parse_problem_file(path, data)
        if (pf.map_components is not None) != (command == "el"):
            raise ShapeError(_OTHER_COMMAND[command])
        field = field or pf.field
        rep, goodness, deformation, elapsed_ms = _evaluate(pf, field, seed,
                                                           **options)
        payload = _payload(pf, rep, goodness, deformation, field, seed,
                           elapsed_ms, sha256(data).hexdigest())
    except _CATEGORIZED as exc:
        code = next(c for classes, c in _EXIT_CODES if isinstance(exc, classes))
        return code, _failure_message(exc, pf)
    if json_output:
        return EXIT_OK, json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return EXIT_OK, _report_text(payload)


def cmd_compute(path, *, json_output=False, seed=None, check_good=False,
                deform=False):
    """Run the tangency pipeline on one file. Returns (exit_code, output)."""
    return _run(path, "compute", json_output, seed, check_good=check_good,
                deform=deform)


def cmd_el(path, *, json_output=False, seed=None, mode=None):
    """Classical-map index of a square map file. Returns (exit_code, output)."""
    return _run(path, "el", json_output, seed, field=mode)


def _parse_expectations(path):
    entries = _read_entries(Path(path).read_text(encoding="utf-8"),
                            ("index", "dim_B0", "dim_B0_mod_DF", "signature"),
                            "expectation key")
    out = {}
    for key, (value, lineno) in entries.items():
        try:
            out[key] = int(value)
        except ValueError:
            raise ParseError(f"expectation {key!r} is not an integer",
                             line=lineno)
    return out


def _verify_case(prob_path: str):
    """Evaluate one corpus case. Returns (name, ok, detail)."""
    prob = Path(prob_path)
    name = prob.name
    expect_path = prob.with_suffix(".expect")
    if not expect_path.exists():
        return name, False, "missing expectation record"
    try:
        expected = _parse_expectations(expect_path)
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        return name, False, f"bad expectation record: {exc}"
    try:
        pf = parse_problem_file(prob)
    except (ParseError, ShapeError, OSError, UnicodeDecodeError) as exc:
        return name, False, f"bad problem file: {exc}"
    try:
        rep = _evaluate(pf, pf.field, None)[0]
    except GsvError as exc:
        return name, False, f"evaluation failed: {exc}"
    actual = {
        "index": rep.index,
        "dim_B0": rep.dim_B0,
        "dim_B0_mod_DF": rep.dim_B0_mod_DF,
        "signature": None if rep.signature is None else rep.signature.signature,
    }
    mismatches = [
        f"{key}: expected {want}, got {actual[key]}"
        for key, want in sorted(expected.items())
        if actual[key] != want
    ]
    if mismatches:
        return name, False, "; ".join(mismatches)
    summary = ", ".join(f"{k}={v}" for k, v in sorted(expected.items()))
    return name, True, summary


def cmd_verify(directory):
    """Evaluate every problem in a corpus directory against expectations,
    one case after another, in the order of their file names."""
    root = Path(directory)
    if not root.is_dir():
        return EXIT_PARSE, f"error: {directory} is not a directory\n"
    cases = sorted(str(p) for p in root.glob("*.prob"))
    if not cases:
        return EXIT_OK, f"warning: no problem files in {directory}\n"
    results = list(map(_verify_case, cases))
    failures = sum(not ok for _, ok, _ in results)
    lines = [f"{'PASS' if ok else 'FAIL'}  {name}  {detail}"
             for name, ok, detail in results]
    lines.append(f"{len(results) - failures}/{len(results)} cases passed")
    return (EXIT_MISMATCH if failures else EXIT_OK), "\n".join(lines) + "\n"


_COMMANDS = ("compute", "el", "verify")


def _build_arg_parser(argv=()):
    """The command-line parser for argv.

    When argv starts with a command name, only that command's arguments are
    registered; its help, usage and error text read as with all three, whose
    names the usage line lists either way. Otherwise (help, no arguments, an
    unknown command) the parser has all three.
    """
    parser = argparse.ArgumentParser(
        prog="gsvindex",
        description="Exact indices of vector fields tangent to curve "
        "singularities",
    )
    named = argv[0] if argv and argv[0] in _COMMANDS else None
    # with one command registered, the metavar keeps all three in the usage
    every = "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=None if named is None else every)

    if named in (None, "compute"):
        compute = sub.add_parser("compute",
                                 help="tangency-problem index pipeline")
        compute.add_argument("path", metavar="file")
        compute.add_argument("--json", action="store_true", dest="json_output")
        compute.add_argument("--seed", type=int, default=None)
        compute.add_argument("--check-good", action="store_true")
        compute.add_argument("--deform", action="store_true")

    if named in (None, "el"):
        el = sub.add_parser("el", help="classical index of a square map germ")
        el.add_argument("path", metavar="file")
        el.add_argument("--json", action="store_true", dest="json_output")
        el.add_argument("--seed", type=int, default=None)
        el.add_argument("--mode", choices=("real", "complex"), default=None)

    if named in (None, "verify"):
        verify = sub.add_parser("verify",
                                help="run a corpus of expected values")
        verify.add_argument("directory")
    return parser


# Each command's parser (None: the full tree), built on first use and reused
# by every later main call. It holds argparse configuration, never a computed
# result, so no result depends on the calls made before it.
_ARG_PARSERS = {}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    named = argv[0] if argv and argv[0] in _COMMANDS else None
    if named not in _ARG_PARSERS:
        _ARG_PARSERS[named] = _build_arg_parser(argv)
    args = vars(_ARG_PARSERS[named].parse_args(argv))
    command = {"compute": cmd_compute, "el": cmd_el,
               "verify": cmd_verify}[args.pop("command")]
    code, output = command(**args)
    stream = sys.stdout if code == EXIT_OK else sys.stderr
    stream.write(output)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
