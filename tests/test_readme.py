"""The README's library example runs as printed, the API names it lists
resolve, the public surface of gsvindex is pinned, and the package defines
nothing that only tests call or read.

A change that adds or drops a public name has to update PUBLIC_NAMES, and
so has to say so.
"""

import ast
import re
from pathlib import Path

import gsvindex

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")

# package methods and attributes that only tests reach, each with its
# reason to stay
TEST_ONLY_DEFINITIONS = {
    # README documents the lift of a standard basis, and the certificate
    # tests read it
    "StandardBasis.lift",
    # exception API: where the parse failed; test_cli reads both
    "ParseError.position", "ParseError.line",
}

# sorted(gsvindex.__all__): the names bound in gsvindex/__init__.py, the
# submodules it imports among them
PUBLIC_NAMES = [
    "C1ClassZeroError", "CoordinateNormalization", "DegreeCapExceededError",
    "FiniteAlgebra", "GoodnessResult", "GsvError", "IndexReport",
    "InfiniteDimensionError", "LocalOrder",
    "MembershipWitness", "NormalizationError", "ParseError", "PolyMatrix",
    "Polynomial", "Problem", "ProblemFile", "QuotientAlgebra",
    "ShapeError", "SignatureResult", "Staircase",
    "StandardBasis", "TangencyError", "VerificationError", "algebra",
    "annihilator_quotient", "build_algebra", "c_coefficient",
    "choose_linear_form", "cli", "complex_gsv_index",
    "construct_good_deformation", "eisenbud_levine_index",
    "ensure_regular_sequence", "errors", "ideal_membership", "index",
    "is_good_sufficient", "jacobian", "linear_substitute", "localstd",
    "minor_det", "parse_poly",
    "parse_problem_file", "poincare_hopf_complex", "poly",
    "quotient_dimension", "real_gsv_index", "sigform", "signature_of",
    "staircase", "standard_basis", "transform_vector_field",
    "verify_tangency",
]


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)


def test_the_library_example_runs_and_prints_what_it_says():
    blocks = _python_blocks()
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    report = namespace["report"]
    assert (report.index, report.dim_B0, report.dim_B0_mod_DF) == (6, 12, 6)
    # each "report.<field>  # <value>" line states what the field holds
    shown = re.findall(r"^report\.(\w+) +# (-?\d+)$", blocks[0], re.M)
    assert sorted(name for name, _ in shown) == [
        "dim_B0", "dim_B0_mod_DF", "index"]
    for name, value in shown:
        assert getattr(report, name) == int(value), name


def test_the_listed_lower_layers_resolve():
    paragraph = re.search(r"^Lower layers are exposed directly:.*?(?=\n\n)",
                          README, re.M | re.S).group()
    names = re.findall(r"`([^`]+)`", paragraph)
    assert len(names) >= 10
    for text in names:
        # a dotted name, optionally called: standard_basis(..., certify=False)
        match = re.fullmatch(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(\(.*\))?", text)
        assert match, f"{text!r} is not an API name"
        head, *attrs = match.group(1).split(".")
        assert head in gsvindex.__all__, text
        obj = getattr(gsvindex, head)
        for attr in attrs:
            obj = getattr(obj, attr)
        assert callable(obj), text


def test_the_public_names_are_pinned():
    assert sorted(gsvindex.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(gsvindex, name), name


def _package_trees():
    package = Path(gsvindex.__file__).parent
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(package.glob("*.py"))}


def _class_members(tree):
    """(class, node) for the methods of every class and the `self.<name> =`
    targets anywhere in its body."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield cls.name, node
        for node in ast.walk(cls):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                    and isinstance(node.value, ast.Name) and node.value.id == "self":
                yield cls.name, node


def test_every_package_definition_is_reached_from_the_package():
    # a function or class whose name never appears in the package as a
    # name, an attribute or an imported name is reached from tests only; so
    # is a method whose name is never an attribute, and an attribute set on
    # self that the package never reads as an attribute
    trees = _package_trees()
    used, read = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = []
    for name, tree in trees.items():
        members = {node: cls for cls, node in _class_members(tree)}
        for node in ast.walk(tree):
            if node in members:
                short = node.attr if isinstance(node, ast.Attribute) else node.name
                label, reached = f"{members[node]}.{short}", short in read
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                short = label = node.name
                reached = short in used
            else:
                continue
            dunder = short.startswith("__") and short.endswith("__")
            if not (reached or dunder or label in TEST_ONLY_DEFINITIONS):
                unused.append(f"{name}:{node.lineno} {label}")
    assert sorted(unused) == []


def test_the_package_has_no_floating_point_numbers():
    # README: "There are no floating-point numbers anywhere". poly refuses a
    # float with isinstance(value, float), which names the type and does
    # not call it
    assert "no floating-point numbers anywhere" in README
    found = []
    for name, tree in _package_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and type(node.value) is float:
                found.append(f"{name}:{node.lineno} {node.value!r}")
            elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Name) and node.func.id == "float":
                found.append(f"{name}:{node.lineno} float(...)")
    assert found == []
