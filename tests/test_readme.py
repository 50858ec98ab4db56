"""The README's library example runs as printed, the API names it lists
resolve, the public surface of gsvindex is pinned, and the package defines
nothing that only tests call.

A change that adds or drops a public name has to update PUBLIC_NAMES, and
so has to say so.
"""

import ast
import re
from pathlib import Path

import gsvindex

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")

# package definitions that only tests reach, each with its reason to stay
TEST_ONLY_DEFINITIONS = {
    # test_algebra and test_linalg compare the annihilator rows of C0 with
    # a reference nullspace
    "kernel_basis",
}

# sorted(gsvindex.__all__): the names bound in gsvindex/__init__.py, the
# submodules it imports among them
PUBLIC_NAMES = [
    "C1ClassZeroError", "CoordinateNormalization", "DegreeCapExceededError",
    "FiniteAlgebra", "GoodnessResult", "GsvError", "INFINITE", "IndexReport",
    "InfiniteDimensionError", "JacobianZeroClassError", "LocalOrder",
    "MembershipWitness", "NormalizationError", "ParseError", "PolyMatrix",
    "Polynomial", "Problem", "ProblemFile", "QuotientAlgebra",
    "ReportDocument", "ShapeError", "SignatureResult", "Staircase",
    "StandardBasis", "TangencyError", "VerificationError", "algebra",
    "annihilator_quotient", "build_algebra", "c_coefficient",
    "choose_linear_form", "cli", "complex_gsv_index",
    "construct_good_deformation", "coordinate_invariance_check",
    "cramer_identity_check", "eisenbud_levine_index",
    "ensure_regular_sequence", "errors", "gm_identity_check",
    "gm_signature_index", "ideal_membership", "index", "is_good_sufficient",
    "jacobian", "linear_substitute", "localstd", "minor_det", "negdeglex",
    "negdegrevlex", "normal_form", "parse_poly", "parse_problem_file",
    "poincare_hopf_complex", "poly", "quotient_dimension", "real_gsv_index",
    "sigform", "signature_of", "socle", "solve_multiplication", "staircase",
    "standard_basis", "transform_vector_field", "verify_tangency",
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


def test_every_package_definition_is_reached_from_the_package():
    # a function, class or method whose name never appears in the package
    # as a name, an attribute or an imported name is reached from tests only
    package = Path(gsvindex.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = sorted(
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used | TEST_ONLY_DEFINITIONS)
    assert unused == []
