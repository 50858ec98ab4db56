import copy
import pickle
import random
from fractions import Fraction
from itertools import combinations

import pytest

from gsvindex import (
    GoodnessResult,
    MembershipWitness,
    Polynomial,
    PolyMatrix,
    Problem,
    build_algebra,
    c_coefficient,
    complex_gsv_index,
    construct_good_deformation,
    eisenbud_levine_index,
    ensure_regular_sequence,
    is_good_sufficient,
    jacobian,
    parse_poly,
    poincare_hopf_complex,
    quotient_dimension,
    real_gsv_index,
    verify_tangency,
)
from gsvindex.cli import EXIT_NORMALIZATION, cmd_el, parse_problem_file
from gsvindex.errors import (
    C1ClassZeroError,
    DegreeCapExceededError,
    InfiniteDimensionError,
    NormalizationError,
    ShapeError,
    TangencyError,
    VerificationError,
)
from gsvindex.index import annihilator_quotient, minor_det, random_unimodular
from gsvindex.poly import permutation_of

from graded_oracle import graded_quotient_data
from intersection_oracle import gsv_index, intersection_number
from problems import (
    CORPUS_DIR,
    THREE_VARIABLE_MAPS,
    as_problem,
    coordinate_invariance_check,
    cramer_identity_check,
    cusp_instance,
    dk_problem,
    gm_family,
    gm_identity_check,
    gm_signature_index,
    hamiltonian_multiple,
    hyperbola_problem,
    smooth_line_problem,
    socle,
    space_curve_problem,
    substitute_problem,
)
from reference_linalg import _ref_det, _ref_inverse

x = Polynomial.variable(2, 0)
y = Polynomial.variable(2, 1)
zero2 = Polynomial.zero(2)
one2 = Polynomial.one(2)


# ----------------------------------------------------------------- tangency

def test_tangency_dk_family():
    p = dk_problem(4, 3)
    ok, residuals = verify_tangency(p.f, p.X, p.C)
    assert ok and all(r.is_zero for r in residuals)


def test_tangency_space_curve():
    p = space_curve_problem()
    ok, _ = verify_tangency(p.f, p.X, p.C)
    assert ok


def test_tangency_failure_reports_residual():
    ok, residuals = verify_tangency(
        (y,), (zero2, one2), PolyMatrix(1, 1, [zero2])
    )
    assert not ok and residuals[0] == one2


# ------------------------------------------------------------ normalization

def test_problems_survive_pickle_and_deepcopy():
    for P in (space_curve_problem(2), dk_problem(5, 4, "real")):
        for back in (pickle.loads(pickle.dumps(P)), copy.deepcopy(P)):
            assert back == P
            assert complex_gsv_index(back).index == complex_gsv_index(P).index


def test_normalization_identity_for_dk():
    norm = ensure_regular_sequence(dk_problem(4, 3))
    assert permutation_of(norm.transform) == (0, 1) and norm.attempts_used == 1


def test_normalization_permutes_space_curve():
    norm = ensure_regular_sequence(space_curve_problem())
    assert permutation_of(norm.transform) not in (None, (0, 1, 2))
    # the permuted first component must be the original third one, pulled back
    assert norm.problem.X[0].total_degree() == 3


def test_normalization_identity_for_smooth_line():
    norm = ensure_regular_sequence(smooth_line_problem())
    assert permutation_of(norm.transform) == (0, 1)


def test_normalization_failure(monkeypatch):
    monkeypatch.setattr("gsvindex.index.MAX_ATTEMPTS", 6)
    # X = (x, 0) is nowhere transverse on {x = 0}: (f, X1) = (x, x) is 1-dim
    p = Problem(
        vars=("x", "y"), f=(x,), X=(x, zero2), C=PolyMatrix(1, 1, [one2]),
        field="complex",
    )
    with pytest.raises(NormalizationError):
        ensure_regular_sequence(p)


def _line_problem():
    # X = (x, 0) is nowhere transverse on {x = 0}: (f, X1) = (x, x) is 1-dim
    return Problem(
        vars=("x", "y"), f=(x,), X=(x, zero2), C=PolyMatrix(1, 1, [one2]),
        field="complex",
    )


def test_normalization_failure_on_the_line_is_a_proven_verdict(monkeypatch):
    # the identity's y_1 = x divides f; after the swap (f, X_1) = (y_2, 0)
    # is infinite while the section (y_2, y_1) is finite: X vanishes on the
    # line, and the search stops there instead of trying four more changes
    monkeypatch.setattr("gsvindex.index.MAX_ATTEMPTS", 6)
    with pytest.raises(NormalizationError) as info:
        ensure_regular_sequence(_line_problem())
    message = str(info.value)
    assert "vanishes on a branch" in message and "not isolated" in message
    assert "coordinate change 2:" in message


def test_normalization_honours_max_attempts_of_one(monkeypatch):
    monkeypatch.setattr("gsvindex.index.MAX_ATTEMPTS", 1)
    with pytest.raises(NormalizationError) as info:
        ensure_regular_sequence(_line_problem())
    message = str(info.value)
    assert "out of 1 " in message
    assert "no hyperplane y_1 = 0 tried cuts the curve" in message


def test_index_entry_points_take_a_problem_and_a_seed_only():
    # the criterion runs through is_good_sufficient and
    # construct_good_deformation, and the search budget is MAX_ATTEMPTS
    P = dk_problem(4, 3)
    with pytest.raises(TypeError):
        complex_gsv_index(P, check_goodness=True)
    with pytest.raises(TypeError):
        real_gsv_index(P, build_deformation=True)
    with pytest.raises(TypeError):
        ensure_regular_sequence(P, max_attempts=6)


def test_normalization_failure_reports_degree_cap_as_a_limit(monkeypatch):
    import gsvindex.index as index_mod

    def capped(gens, *args, **kwargs):
        raise DegreeCapExceededError("degree cap exceeded")

    monkeypatch.setattr(index_mod, "build_algebra", capped)
    monkeypatch.setattr(index_mod, "MAX_ATTEMPTS", 3)
    # on dk(4,3), f = y (x^2 + y^2): the swap's y_1 divides f, which makes
    # that section infinite with no standard basis. No line divides the
    # cusp's f, so every attempt reaches the capped completion
    cusp = as_problem(x * x - y ** 3, (3 * x, 2 * y), 6 * one2)
    for P, counts in ((dk_problem(4, 3), ": 2 hit the degree cap, "),
                      (cusp, ": 3 hit the degree cap, ")):
        with pytest.raises(NormalizationError) as info:
            ensure_regular_sequence(P)
        message = str(info.value)
        assert counts in message
        assert "not isolated" not in message
    # a cap on the section of an infinite B0 is a limit too: on the line
    # the identity is refuted by f alone, and the swap's section is capped
    monkeypatch.undo()
    monkeypatch.setattr(index_mod, "quotient_dimension", capped)
    monkeypatch.setattr(index_mod, "MAX_ATTEMPTS", 2)
    with pytest.raises(NormalizationError) as info:
        ensure_regular_sequence(_line_problem())
    message = str(info.value)
    assert ": 1 hit the degree cap, " in message
    assert "not isolated" not in message


def test_normalization_accepts_the_first_candidate_with_a_finite_b0():
    from gsvindex.index import _normalize_with

    P = space_curve_problem(1)
    norm = ensure_regular_sequence(P)
    # permutations 1 to 3 put x or y first, which divides f_2 = xy; the
    # fourth, z first, is accepted
    A = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    assert norm == _normalize_with(P, A, 4)  # transform, problem, attempts
    # (x, y) and X = (x, y, 0): the curve is the z-axis, which every
    # hyperplane y_1 = 0 of the search cuts in a point, and X vanishes on it
    u, v = Polynomial.variable(3, 0), Polynomial.variable(3, 1)
    zero3 = Polynomial.zero(3)
    one3 = Polynomial.one(3)
    line = Problem(vars=("x", "y", "z"), f=(u, v), X=(u, v, zero3),
                   C=PolyMatrix(2, 2, [one3, zero3, zero3, one3]),
                   field="complex")
    with pytest.raises(NormalizationError, match="vanishes on a branch"):
        ensure_regular_sequence(line)


def test_normalization_general_change_for_sheared_node():
    # (x y, x^2) is not zero-dimensional, nor (x y, -y^2) after the swap
    pf = parse_problem_file(CORPUS_DIR / "node_sheared_real.prob")
    norm = ensure_regular_sequence(pf.problem)
    assert norm.attempts_used == 3 and permutation_of(norm.transform) is None
    assert norm.transform == ((1, 2), (1, 1))
    assert norm.algebra.dim == 4


# The coordinate change as every attempt applied it before changes were
# applied by kind: each polynomial expanded over the rationals, with its
# own determinant check, and the accumulated sum copied once per term.

def _reference_expand(p, images):
    tgt = images[0].nvars
    out = Polynomial.zero(tgt)
    powers = [{0: Polynomial.one(tgt)} for _ in range(p.nvars)]
    for m, c in p.terms.items():
        part = Polynomial.constant(tgt, c)
        for i, e in enumerate(m):
            if e:
                cache = powers[i]
                if e not in cache:
                    best = max(k for k in cache if k <= e)
                    acc = cache[best]
                    for k in range(best + 1, e + 1):
                        acc = acc * images[i]
                        cache[k] = acc
                part = part * cache[e]
        out = out + part
    return out


def _reference_linear_substitute(p, A):
    n = p.nvars
    A = [[Fraction(v) for v in row] for row in A]
    if _ref_det(A) == 0:
        raise ValueError("singular substitution matrix")
    images = []
    for i in range(n):
        img = Polynomial.zero(n)
        for j, c in enumerate(A[i]):
            if c:
                img = img + Polynomial.variable(n, j).scale(c)
        images.append(img)
    return _reference_expand(p, images)


def _reference_transform_vector_field(X, A):
    n = X[0].nvars
    A = [[Fraction(v) for v in row] for row in A]
    Ainv = _ref_inverse(A)
    pulled = [_reference_linear_substitute(comp, A) for comp in X]
    out = []
    for i in range(n):
        acc = Polynomial.zero(n)
        for j in range(n):
            if Ainv[i][j]:
                acc = acc + pulled[j].scale(Ainv[i][j])
        out.append(acc)
    return out


def _reference_substitute_problem(problem, A):
    f2 = tuple(_reference_linear_substitute(p, A) for p in problem.f)
    X2 = tuple(_reference_transform_vector_field(list(problem.X), A))
    C2 = PolyMatrix(problem.C.rows, problem.C.cols,
                    [_reference_linear_substitute(e, A) for e in problem.C.entries])
    return Problem(vars=problem.vars, f=f2, X=X2, C=C2, field=problem.field)


def _assert_same_terms(got, want):
    """Equal polynomials, with their terms in the same order."""
    assert got == want
    for a, b in zip(got, want):
        assert list(a.terms) == list(b.terms)


def test_substitution_matches_the_expanding_reference():
    # f and X as every attempt substitutes them, and C as the normalization
    # substitutes it for a change whose B0 is finite
    from gsvindex.index import _candidate_transforms, _normalize_with
    from gsvindex.poly import (LinearChange, linear_substitute,
                               transform_vector_field)

    problems = [pf.problem for pf in map(parse_problem_file,
                                         sorted(CORPUS_DIR.glob("*.prob")))
                if pf.problem is not None]
    problems += [dk_problem(k, k - 1) for k in (4, 5, 6)]
    problems += [space_curve_problem(l) for l in range(1, 7)]
    kinds = set()
    for P in problems:
        for seed in (0, 3):
            for A in _candidate_transforms(P.nvars, seed, 12):
                want = _reference_substitute_problem(P, A)
                change = LinearChange(A)
                f = tuple(linear_substitute(p, change) for p in P.f)
                X = tuple(transform_vector_field(P.X, change))
                _assert_same_terms(f + X, want.f + want.X)
                try:
                    C = _normalize_with(P, A, 1).problem.C
                except (InfiniteDimensionError, DegreeCapExceededError):
                    continue
                _assert_same_terms(C.entries, want.C.entries)
                kinds.add(permutation_of(A) is not None)
    assert kinds == {True, False}  # both kinds of change are compared


def test_attempts_transform_only_what_they_need(monkeypatch):
    import gsvindex.index as index_mod
    from gsvindex.index import _normalize_with

    events = []
    real_substitute, real_build = (index_mod.linear_substitute,
                                   index_mod.build_algebra)

    def substitute(p, A):
        events.append("C" if any(p is e for e in P.C.entries) else "p")
        return real_substitute(p, A)

    def build(gens):
        events.append("build")
        return real_build(gens)

    monkeypatch.setattr(index_mod, "linear_substitute", substitute)
    monkeypatch.setattr(index_mod, "build_algebra", build)
    P = space_curve_problem(6)
    norm = ensure_regular_sequence(P)
    assert norm.attempts_used > 1 and permutation_of(norm.transform) != (0, 1, 2)
    last_build = len(events) - 1 - events[::-1].index("build")
    # only the accepted attempt is built: the earlier ones put x or y
    # first, which divides f_2 = xy
    assert events.count("build") == 1
    # C is substituted once, entry by entry, after the accepted attempt only
    assert events[last_build + 1:] == ["C"] * len(P.C.entries)
    assert "C" not in events[:last_build]

    # the identity substitutes nothing and hands back the problem itself;
    # here x divides f_2 = xy, so it is refuted with no build either
    events.clear()
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(InfiniteDimensionError):
        _normalize_with(P, identity, 1)
    assert events == []
    D = dk_problem(6, 5)
    assert _normalize_with(D, ((1, 0), (0, 1)), 1).problem is D
    assert ensure_regular_sequence(D).problem is D


def _reference_search(P, max_attempts=25):
    """The (transform, attempts_used) that a search building every
    candidate accepts, with no section test and no refutation; None when
    no candidate's B0 is finite."""
    from gsvindex.index import _candidate_transforms

    for attempts, A in enumerate(
            _candidate_transforms(P.nvars, 0, max_attempts), start=1):
        Q = _reference_substitute_problem(P, A)
        try:
            build_algebra(list(Q.f) + [Q.X[0]])
        except (InfiniteDimensionError, DegreeCapExceededError):
            continue
        return A, attempts
    return None


def test_refuting_y1_dividing_f_never_refutes_a_finite_candidate(monkeypatch):
    # a candidate whose y_1 divides some f_i is refuted with no standard
    # basis; its (f, X_1) must be infinite, and the search must accept what
    # one that builds every candidate accepts. Where the search stops with
    # a verdict or gives up, that one accepts nothing either
    import gsvindex.index as index_mod
    from gsvindex.index import _candidate_transforms, _normalize_with

    class Built(Exception):
        pass

    def build(gens):  # a candidate the rule lets through, not completed
        raise Built

    x3, y3, z3 = (Polynomial.variable(3, i) for i in range(3))
    zero3 = Polynomial.zero(3)
    problems = [pf.problem for pf in map(parse_problem_file,
                                         sorted(CORPUS_DIR.glob("*.prob")))
                if pf.problem is not None]
    for k, m in ((4, 3), (5, 4), (6, 5), (7, 5), (8, 6)):
        P = dk_problem(k, m)
        problems += [P, substitute_problem(P, [[-1, -1], [-2, -3]])]
    problems += [space_curve_problem(l) for l in range(1, 7)]
    problems += [hamiltonian_multiple(f, h) for f, h in (
        ([x * x - y ** 3], x), ([x * x - y ** 3], y),
        ([x ** 3 + y ** 5], x + y * y), ([x * y], x + y),
        ([x ** 3 - x * y * y], x * x + y),
        ([x * x * y + y ** 4], x * x - 2 * y ** 3),
        ([z3 - x3 * y3, x3 * x3 - y3 * y3 + z3 ** 3], x3),
        ([z3 - x3 * x3, x3 * y3], x3 + y3))]
    problems += [_euler_problem(f, X, c, "complex") for f, X, c in (
        (x * y, (x, y), 2), (x * x - y ** 3, (3 * x, 2 * y), 6),
        (x ** 3 + y ** 5, (5 * x, 3 * y), 15), (x ** 3 - x * y * y, (x, y), 3))]
    one3 = Polynomial.one(3)
    problems += [_line_problem(), Problem(
        vars=("x", "y", "z"), f=(x3, y3), X=(x3, y3, zero3),
        C=PolyMatrix(2, 2, [zero3] * 4), field="complex"), Problem(
        vars=("x", "y", "z"), f=(x3 * y3, x3 * z3), X=(x3, zero3, zero3),
        C=PolyMatrix(2, 2, [one3, zero3, zero3, one3]), field="complex")]
    refuted = built = 0
    for P in problems:
        monkeypatch.setattr(index_mod, "build_algebra", build)
        for A in _candidate_transforms(P.nvars, 0, 8):
            Q = _reference_substitute_problem(P, A)
            divides = any(all(m[0] for m in p.terms) for p in Q.f)
            try:
                _normalize_with(P, A, 1)
            except InfiniteDimensionError:
                refuted += 1
                assert divides
                with pytest.raises(InfiniteDimensionError):
                    quotient_dimension(list(Q.f) + [Q.X[0]])
            except Built:
                built += 1
                assert not divides
        monkeypatch.undo()
        try:
            norm = ensure_regular_sequence(P)
            got = norm.transform, norm.attempts_used
        except NormalizationError:
            got = None
        assert got == _reference_search(P)
    assert refuted and built


# ---------------------------------------------------------- c coefficients

def test_c_coefficient_zero_matrices():
    Z2 = PolyMatrix(2, 2, [zero2] * 4)
    Z1 = PolyMatrix(1, 1, [zero2])
    assert c_coefficient(Z2, Z1).is_zero


def test_c_coefficient_k1_is_trace_difference():
    p = dk_problem(4, 3)
    DX = jacobian(list(p.X), 2)
    # independent oracle: symbolic differentiation by hand
    trace_DX = (2 * x ** 4).diff(0) + (2 * x ** 3 * y).diff(1)
    assert trace_DX == 10 * x ** 3
    assert c_coefficient(DX, PolyMatrix(1, 1, [zero2])) == trace_DX
    c1 = c_coefficient(DX, p.C)
    assert c1 == trace_DX - 6 * x ** 3
    assert c1 == 4 * x ** 3


def test_c_coefficient_higher_order_against_series_expansion():
    # 1x1 case: det(1+t a)/det(1+t c) = (1 + t a)(1 - t c + t^2 c^2 - ...)
    a, c = x + y, x - y
    DX = PolyMatrix(1, 1, [a])
    C = PolyMatrix(1, 1, [c])
    assert c_coefficient(DX, C) == a - c


def _principal_minor_sum(M, i):
    """e_i(M): the sum of the principal i x i minors."""
    return sum((minor_det(M, list(S), list(S))
                for S in combinations(range(M.rows), i)), zero2)


def test_c_coefficient_satisfies_principal_minor_identity():
    # det(1 + t DX) = det(1 + t C) * sum_k c_k t^k, at the coefficient of t:
    # e_1(DX) = e_1(C) + c_1
    rng = random.Random(20)

    def rpoly():
        p = zero2
        for _ in range(rng.randint(0, 3)):
            p = p + Polynomial.term(
                2, (rng.randint(0, 2), rng.randint(0, 2)),
                Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
            )
        return p

    for a, b in ((2, 1), (3, 2)):
        for _ in range(4):
            DX = PolyMatrix(a, a, [rpoly() for _ in range(a * a)])
            C = PolyMatrix(b, b, [rpoly() for _ in range(b * b)])
            assert (_principal_minor_sum(DX, 1)
                    == _principal_minor_sum(C, 1) + c_coefficient(DX, C))


# ------------------------------------------------------------- complex GSV

def test_complex_index_smooth_line():
    rep = complex_gsv_index(smooth_line_problem())
    assert rep.index == 1 and rep.dim_B0 == 1 and rep.dim_B0_mod_DF == 0
    assert rep.dim_C0 == rep.dim_B0 - rep.dim_B0_mod_DF


def test_complex_index_dk_paper_values():
    rep = complex_gsv_index(dk_problem(4, 3))
    assert (rep.dim_B0, rep.dim_B0_mod_DF, rep.index) == (12, 6, 6)


def test_complex_index_space_curve_frozen_oracle_value():
    # frozen from the independent graded oracle before the main build
    rep = complex_gsv_index(space_curve_problem())
    assert rep.index == 4 and rep.index >= 1
    assert (rep.dim_B0, rep.dim_B0_mod_DF) == (12, 8)
    assert permutation_of(rep.normalization.transform) is not None


def test_space_curve_oracle_agreement_in_normalized_coordinates():
    norm = ensure_regular_sequence(space_curve_problem())
    P = norm.problem
    gens = [
        {m: c for m, c in p.terms.items()} for p in list(P.f) + [P.X[0]]
    ]
    DF = minor_det(jacobian(list(P.f), 3), [0, 1], [1, 2])
    mult = {m: c for m, c in DF.terms.items()}
    dim_b, rank, dim_mod = graded_quotient_data(3, gens, mult)
    rep = complex_gsv_index(space_curve_problem())
    assert (rep.dim_B0, rep.index, rep.dim_B0_mod_DF) == (dim_b, rank, dim_mod)


def test_complex_index_rejects_wrong_shape():
    u, v, w = (Polynomial.variable(3, i) for i in range(3))
    p = Problem(
        vars=("x", "y", "z"),
        f=(u * u + v * v + w * w,),
        X=(u, v, w),
        C=PolyMatrix(1, 1, [Polynomial.constant(3, 2)]),
        field="complex",
    )
    with pytest.raises(ShapeError):
        complex_gsv_index(p)


def test_complex_index_rejects_non_tangent():
    p = Problem(
        vars=("x", "y"), f=(y,), X=(zero2, one2), C=PolyMatrix(1, 1, [zero2]),
        field="complex",
    )
    with pytest.raises(TangencyError):
        complex_gsv_index(p)


# ---------------------------------------------------------------- real GSV

def test_real_index_hyperbola_is_zero():
    rep = real_gsv_index(hyperbola_problem())
    assert rep.index == 0
    assert rep.signature.rank == rep.dim_C0 == 2
    assert rep.dim_B0 == 4


def test_real_index_smooth_line():
    assert real_gsv_index(smooth_line_problem("real")).index == 1


def test_real_index_degenerate_line_zero():
    rep = real_gsv_index(smooth_line_problem("real", multiplicity=2))
    assert rep.index == 0 and rep.dim_C0 == 2


def test_real_index_l_independence():
    for problem in (hyperbola_problem(), dk_problem(4, 3, "real")):
        values = {real_gsv_index(problem, seed=s).index for s in range(20)}
        assert len(values) == 1
        default = real_gsv_index(problem).index
        assert values == {default}


def test_real_index_parity_and_bound():
    for problem in (
        hyperbola_problem(),
        dk_problem(4, 3, "real"),
        dk_problem(5, 3, "real"),
        smooth_line_problem("real"),
        smooth_line_problem("real", multiplicity=2),
        as_problem(*cusp_instance()),
    ):
        rep = real_gsv_index(problem)
        assert abs(rep.index) <= rep.dim_C0
        assert (rep.index - rep.dim_C0) % 2 == 0
        if rep.dim_C0 > 0:
            assert rep.signature.rank == rep.dim_C0  # non-degenerate pairing


def test_complex_and_real_entry_points_share_one_pipeline():
    tangency_files = [
        pf for pf in map(parse_problem_file, sorted(CORPUS_DIR.glob("*.prob")))
        if pf.problem is not None
    ]
    assert len(tangency_files) >= 7
    for pf in tangency_files:
        P = pf.problem
        cx = complex_gsv_index(
            Problem(vars=P.vars, f=P.f, X=P.X, C=P.C, field="complex"))
        re = real_gsv_index(
            Problem(vars=P.vars, f=P.f, X=P.X, C=P.C, field="real"))
        for key in ("dim_B0", "dim_B0_mod_DF", "dim_C0", "c1"):
            assert getattr(cx, key) == getattr(re, key), (pf.path, key)
        assert cx.normalization.transform == re.normalization.transform
        assert cx.index == cx.dim_C0 and cx.signature is None
        assert re.signature.rank == re.dim_C0, pf.path


# ------------------------------------------------------------ socle and c1

def test_c1_spans_socle_of_quotient():
    for problem in (
        dk_problem(4, 3),
        dk_problem(5, 3),
        hyperbola_problem(),
        space_curve_problem(),
        as_problem(*cusp_instance(), field="real"),
    ):
        norm = ensure_regular_sequence(problem)
        P = norm.problem
        n, q = len(P.vars), len(P.f)
        B0 = build_algebra(list(P.f) + [P.X[0]])
        DF = minor_det(jacobian(list(P.f), n), list(range(q)), list(range(1, n)))
        C0 = annihilator_quotient(B0, DF)
        if C0.dim == 0:
            continue
        c1 = c_coefficient(jacobian(list(P.X), n), P.C)
        cls = C0.coords(c1)
        assert any(v != 0 for v in cls)
        soc = socle(C0)
        assert len(soc) == 1
        pivot = next(i for i, v in enumerate(soc[0]) if v != 0)
        scaled = [v * cls[pivot] for v in soc[0]]
        assert scaled == [v * soc[0][pivot] for v in cls]


def test_exact_sequence_against_independent_staircase():
    # dim B0/(DF) from the report must match the staircase dimension of the
    # enlarged ideal, computed by a separate standard-basis run
    from gsvindex import quotient_dimension

    for problem in (dk_problem(4, 3), hyperbola_problem(), space_curve_problem()):
        norm = ensure_regular_sequence(problem)
        P = norm.problem
        n, q = len(P.vars), len(P.f)
        DF = minor_det(jacobian(list(P.f), n), list(range(q)), list(range(1, n)))
        rep = (
            complex_gsv_index(problem)
            if problem.field == "complex"
            else real_gsv_index(problem)
        )
        enlarged = quotient_dimension(list(P.f) + [P.X[0], DF])
        assert rep.dim_B0_mod_DF == enlarged


# ------------------------------------------------------------ classical ops

def test_poincare_hopf_examples():
    assert poincare_hopf_complex([x, y]) == 1
    assert poincare_hopf_complex([x * x, y]) == 2
    assert poincare_hopf_complex([x * x - y * y, 2 * x * y]) == 4


def test_eisenbud_levine_examples():
    assert eisenbud_levine_index([x, y])[0] == 1
    assert eisenbud_levine_index([x ** 3, y])[0] == 1
    idx, sig = eisenbud_levine_index([x * x - y * y, 2 * x * y])
    assert idx == 2 and sig.rank == 4


def test_eisenbud_levine_seeded_stability():
    values = {
        eisenbud_levine_index([x * x - y * y, 2 * x * y], seed=s)[0]
        for s in range(20)
    }
    assert values == {2}


@pytest.mark.parametrize("text, ph, el", THREE_VARIABLE_MAPS,
                         ids=[m[0] for m in THREE_VARIABLE_MAPS])
def test_map_indices_in_three_variables(text, ph, el):
    g = [parse_poly(part, ["x", "y", "z"]) for part in text.split(";")]
    assert poincare_hopf_complex(g) == ph
    for seed in (None, 1, 5):
        idx, sig = eisenbud_levine_index(g, seed=seed)
        assert idx == el and sig.rank == ph


def test_map_indices_refuse_empty_and_non_square_maps():
    for g in ([], [x], [x, y, x * y]):
        for entry in (poincare_hopf_complex, eisenbud_levine_index):
            with pytest.raises(ShapeError, match=r"^map has \d+ components"):
                entry(g)


def test_generators_from_different_rings_are_refused():
    # x in two variables and y in three: an unchecked LocalOrder.key zips
    # the longer exponent tuple against the shorter weights
    x2, y3 = Polynomial.variable(2, 0), Polynomial.variable(3, 1)
    for g in ([x2, y3], [y3, x2]):
        with pytest.raises(ValueError, match="different rings"):
            quotient_dimension(g)
    with pytest.raises(ValueError, match="different rings"):
        poincare_hopf_complex([x2, y3])
    # a first component in three variables fails the map's shape check
    with pytest.raises(ShapeError, match="2 components for 3 variables"):
        poincare_hopf_complex([y3, x2])


def test_map_indices_share_one_non_isolated_error(tmp_path):
    # (xy, xy) vanishes on both axes: no field may report a finite quotient
    messages = set()
    for entry in (poincare_hopf_complex, eisenbud_levine_index):
        with pytest.raises(InfiniteDimensionError) as info:
            entry([x * y, x * y])
        messages.add(str(info.value))
    assert messages == {"the zero of the map is not isolated"}
    path = tmp_path / "axes.prob"
    path.write_text("ring: x, y\nfield: real\ng: x*y; x*y\n")
    for mode in ("real", "complex"):
        assert cmd_el(str(path), mode=mode) == (
            EXIT_NORMALIZATION, "error: the zero of the map is not isolated\n")


# ----------------------------------------------------------------- goodness

def test_goodness_dk():
    p = dk_problem(4, 3)
    result = is_good_sufficient(list(p.f), p.C)
    assert result.status == "satisfied"
    w = result.witnesses[(0, 0)]
    lhs = w.denominator * p.C.entry(0, 0)
    rhs = Polynomial.zero(2)
    for c, minor in zip(w.coefficients, result.minors):
        rhs = rhs + c * minor
    assert lhs == rhs


def test_goodness_hyperbola_witness():
    result = is_good_sufficient([x * x - y * y], PolyMatrix(1, 1, [2 * x]))
    assert result.status == "satisfied"
    w = result.witnesses[(0, 0)]
    # alpha = (1, 0) over the partials (2x, -2y)
    assert w.denominator == one2
    assert w.coefficients == (one2, zero2)


def test_goodness_unknown_for_unit_entry():
    result = is_good_sufficient([x ** 3 + y ** 3], PolyMatrix(1, 1, [one2]))
    assert result.status == "unknown"


def test_goodness_space_curve():
    p = space_curve_problem()
    assert is_good_sufficient(list(p.f), p.C).status == "satisfied"


# Euler-type fields lack the deformation property, so dim C0 is not their
# GSV index. Their true index is the Milnor fiber's Euler characteristic
# 1 - mu (Gomez-Mont, Seade and Verjovsky, Math. Ann. 291, 1991), with mu
# written out: 1 for the A1 node, (a - 1)(b - 1) for x^a + y^b, 4 for D4.
EULER_FIELDS = pytest.mark.parametrize("f, X, c, mu, half_branches", [
    (x * y, (x, y), 2, 1, 4),
    (x * x - y ** 3, (3 * x, 2 * y), 6, 2, 2),
    (x ** 3 + y ** 5, (5 * x, 3 * y), 15, 8, 2),
    (x ** 3 - x * y * y, (x, y), 3, 4, 6),
], ids=["node", "cusp", "E8", "D4"])


def _euler_problem(f, X, c, field):
    return Problem(vars=("x", "y"), f=(f,), X=X,
                   C=PolyMatrix(1, 1, [c * one2]), field=field)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="dim C0 = 1 "
                   "is printed as the index of a field without the "
                   "deformation property")
@EULER_FIELDS
def test_euler_field_index_is_one_minus_milnor_number(f, X, c, mu,
                                                      half_branches):
    assert complex_gsv_index(_euler_problem(f, X, c, "complex")).index == 1 - mu


# The real GSV index is (#half-branches where X points out - #where it
# points in)/2. X is radial, so it points out on every half-branch, and the
# index is half their number, counted by hand: the node's two lines, the
# cusp's and E8's single branch, D4's three lines. On the node the tool
# raises C1ClassZeroError instead, which fails the test as well.
@pytest.mark.xfail(strict=True, raises=(AssertionError, C1ClassZeroError),
                   reason="the signature on C0 is printed as the index of a "
                   "field without the deformation property")
@EULER_FIELDS
def test_euler_field_real_index_is_half_the_half_branches(f, X, c, mu,
                                                          half_branches):
    assert real_gsv_index(_euler_problem(f, X, c, "real")).index == \
        half_branches // 2


def test_hamiltonian_field_on_the_node_has_index_zero():
    # (x, -y) = (f_y, -f_x) for f = xy has the deformation property
    P = Problem(vars=("x", "y"), f=(x * y,), X=(x, -y),
                C=PolyMatrix(1, 1, [Polynomial.zero(2)]), field="complex")
    assert complex_gsv_index(P).index == 0


def test_intersection_oracle_on_textbook_values_and_euler_fields():
    # transversal lines, a line tangent to a parabola, Fulton's worked
    # example (Algebraic Curves, 3.3), a shared component, and the true
    # indices 1 - mu of the Euler fields pinned above
    assert intersection_number({(0, 1): 1}, {(1, 0): 1}) == 1
    assert intersection_number({(0, 1): 1, (2, 0): -1}, {(0, 1): 1}) == 2
    E = (x * x + y * y) ** 2 + 3 * x * x * y - y ** 3
    F = (x * x + y * y) ** 3 - 4 * x * x * y * y
    assert intersection_number(E.terms, F.terms) == 14
    assert intersection_number((x * x - y * y).terms, (x + y).terms) is None
    for f, X, index in ((x * y, (x, y), 0), (x * x - y ** 3, (3 * x, 2 * y), -1),
                        (x ** 3 + y ** 5, (5 * x, 3 * y), -7)):
        assert gsv_index(f.terms, [c.terms for c in X]) == index


def test_hamiltonian_multiples_have_the_indices_of_the_map_f_h():
    # X = h X_f is tangent to every fiber with C = 0, so it has the
    # deformation property, and its zeros on the Milnor fiber are those of
    # h: its complex and real GSV indices are dim O/(f, h) and the
    # Eisenbud-Levine index of (f, h) (Brasselet, Seade and Suwa, Vector
    # Fields on Singular Varieties, LNM 1987, 2009). In the plane
    # dim O/(f, h) is also the intersection number I(f, h)
    x3, y3, z3 = (Polynomial.variable(3, i) for i in range(3))
    cases = [  # f, h, complex and real index
        ([x * x - y ** 3], x, 3, 1),
        ([x * x - y ** 3], y, 2, 0),
        ([x ** 3 + y ** 5], x + y * y, 5, -1),
        ([x * y], x + y, 2, 0),
        ([x ** 3 - x * y * y], x * x + y, 3, 1),
        ([x * x * y + y ** 4], x * x - 2 * y ** 3, 8, 0),
        ([z3 - x3 * y3, x3 * x3 - y3 * y3 + z3 ** 3], x3, 2, 0),
        ([z3 - x3 * x3, x3 * y3], x3 + y3, 2, 0),
    ]
    for f, h, cx, re in cases:
        assert quotient_dimension(f + [h]) == cx
        assert eisenbud_levine_index(f + [h])[0] == re
        if h.nvars == 2:
            assert intersection_number(f[0].terms, h.terms) == cx
        assert complex_gsv_index(hamiltonian_multiple(f, h)).index == cx
        assert real_gsv_index(hamiltonian_multiple(f, h, "real")).index == re


def test_complex_index_agrees_with_the_intersection_oracle():
    # GSV = 1 - mu + I(f, X(l)) - I(f, l) by Fulton's algorithm, sharing no
    # code with the engine, wherever the sufficient criterion holds, so
    # that dim C0 is the index
    problems = [Problem(vars=P.vars, f=P.f, X=P.X, C=P.C, field="complex")
                for P in (parse_problem_file(path).problem
                          for path in sorted(CORPUS_DIR.glob("*.prob")))
                if P is not None and P.nvars == 2]
    assert len(problems) == 7
    for k, m in ((4, 3), (5, 4), (6, 5), (7, 5), (8, 6)):
        P = dk_problem(k, m)
        problems += [P, substitute_problem(P, random_unimodular(
            2, random.Random(1)))]
    problems += [as_problem(*gm_family(k, l), field="complex")
                 for k, l in ((2, 3), (3, 4), (2, 5), (4, 2))]
    problems.append(Problem(vars=("x", "y"), f=(x * y,), X=(x, -y),
                            C=PolyMatrix(1, 1, [zero2]), field="complex"))
    for P in problems:
        assert is_good_sufficient(list(P.f), P.C).status == "satisfied"
        oracle = gsv_index(P.f[0].terms, [c.terms for c in P.X])
        assert complex_gsv_index(P).index == oracle


# -------------------------------------------------------------- deformation

def test_deformation_hyperbola_exact():
    result = is_good_sufficient([x * x - y * y], PolyMatrix(1, 1, [2 * x]))
    comps, names, den = construct_good_deformation(
        [x * x - y * y], [x * x, x * y], PolyMatrix(1, 1, [2 * x]), result,
        var_names=("x", "y"),
    )
    assert names == ("x", "y", "t") and den == Polynomial.one(2)
    X3, Y3, T3 = (Polynomial.variable(3, i) for i in range(3))
    assert comps == (X3 * X3 - T3, X3 * Y3)


def test_deformation_trivial_when_c_zero():
    result = is_good_sufficient([y], PolyMatrix(1, 1, [zero2]))
    comps, _, den = construct_good_deformation(
        [y], [x, zero2], PolyMatrix(1, 1, [zero2]), result
    )
    assert den == Polynomial.one(2)
    assert comps[0] == Polynomial.variable(3, 0) and comps[1].is_zero


def _deformation_identity_holds(f, X, C, comps, q, den):
    """Df . comps = den C (f - t), and comps = den X at t = 0."""
    n = f[0].nvars
    N = n + q
    den = den.extend(N)
    if any(Polynomial(N, {m: c for m, c in comp.terms.items() if not any(m[n:])})
           != den * Xi.extend(N) for comp, Xi in zip(comps, X)):
        return False
    tvars = [Polynomial.variable(N, n + m) for m in range(q)]
    for l in range(q):
        fl = f[l].extend(N)
        lhs = Polynomial.zero(N)
        for i in range(n):
            lhs = lhs + fl.diff(i) * comps[i]
        rhs = Polynomial.zero(N)
        for m in range(q):
            rhs = rhs + C.entry(l, m).extend(N) * (f[m].extend(N) - tvars[m])
        if lhs != den * rhs:
            return False
    return True


def test_deformation_post_identity_on_families():
    cases = [dk_problem(k, m) for k in (4, 5) for m in (3, 4)]
    cases += [hyperbola_problem(), space_curve_problem()]
    # after the shear [[-1, -1], [-2, -3]] the criterion's witnesses carry
    # non-constant unit denominators, and X_t is the components over U
    sheared = [substitute_problem(dk_problem(k, m, "real"), [[-1, -1], [-2, -3]])
               for k, m in ((5, 4), (6, 5))]
    for p in cases + sheared:
        result = is_good_sufficient(list(p.f), p.C)
        assert result.status == "satisfied"
        comps, _, den = construct_good_deformation(
            list(p.f), list(p.X), p.C, result, var_names=p.vars
        )
        constant = all(w.denominator.is_constant()
                       for w in result.witnesses.values())
        assert constant == (p not in sheared) == den.is_constant()
        assert den.constant_term == 1
        assert _deformation_identity_holds(
            list(p.f), list(p.X), p.C, comps, len(p.f), den
        )


def test_deformation_post_check_refuses_an_altered_witness():
    # the witness 1 * 2x = 1 * (2x) + 0 * (-2y) bent to (1 + x, 0) no longer
    # holds, so the deformation built from it misses X_t(f - t) = C(f - t)
    f, C = [x * x - y * y], PolyMatrix(1, 1, [2 * x])
    result = is_good_sufficient(f, C)
    w = result.witnesses[(0, 0)]
    bent = MembershipWitness(
        denominator=w.denominator,
        coefficients=(w.coefficients[0] + x,) + w.coefficients[1:])
    tampered = GoodnessResult(
        status=result.status, minor_columns=result.minor_columns,
        minors=result.minors, witnesses={(0, 0): bent})
    with pytest.raises(VerificationError, match=(
            "constructed deformation failed the symbolic tangency identity")):
        construct_good_deformation(f, [x * x, x * y], C, tampered)


# ------------------------------------------------------------------- Cramer

def test_cramer_identities():
    assert cramer_identity_check(dk_problem(4, 3))
    assert cramer_identity_check(hyperbola_problem())
    norm = ensure_regular_sequence(space_curve_problem())
    assert cramer_identity_check(norm.problem)


def test_cramer_first_identity_trivial():
    # i = 1: (-1) m_1 X_1 + DF X_1 = 0 identically because DF = m_1
    p = dk_problem(4, 3)
    Df = jacobian(list(p.f), 2)
    DF = minor_det(Df, [0], [1])
    m1 = minor_det(Df, [0], [1])
    residual = m1.scale(-1) * p.X[0] + DF * p.X[0]
    assert residual.is_zero


# ----------------------------------------------------------- GM comparison

@pytest.mark.parametrize("k,l,expected", [(1, 1, 3), (2, 1, 4), (1, 2, 4)])
def test_gm_identity_values(k, l, expected):
    f, X, c = gm_family(k, l)
    assert gm_identity_check(f, list(X), c) == Fraction(expected)


def test_gm_identity_none_when_not_proportional():
    # X = Euler field on the smooth conic-like f: ambient isolated zero,
    # tangency x f_x + y f_y = 2 f, but c*c1 = 0 class while det DX is a unit
    f = x * x + y * y
    assert gm_identity_check(f, [x, y], Polynomial.constant(2, 2)) is None


def test_gm_signature_matches_real_gsv_on_cusp():
    f, X, c = cusp_instance()
    value = gm_signature_index(f, list(X), c)
    assert value == 0  # frozen by the branch-parametrization computation
    assert real_gsv_index(as_problem(f, X, c)).index == value


def test_gm_signature_matches_real_gsv_on_family():
    for (k, l) in [(1, 1), (2, 1), (1, 2)]:
        f, X, c = gm_family(k, l)
        gm_val = gm_signature_index(f, list(X), c)
        gsv_val = real_gsv_index(as_problem(f, X, c)).index
        assert gm_val == gsv_val


def test_gm_signature_matches_real_gsv_on_a_nonzero_case():
    # the cusp and the family above all read 0. On the node f = x^2 - y^2,
    # X = xy (f_y, -f_x) + f (1, 1) has Xf = cf with c = f_x + f_y; on the
    # curve X = -2xy (y, x) points inward on all four half-branches, so the
    # index is (0 - 4)/2 = -2
    f = x * x - y * y
    fx, fy = f.diff(0), f.diff(1)
    X = (x * y * fy + f, -(x * y * fx) + f)
    c = fx + fy
    assert gm_signature_index(f, list(X), c) == -2
    assert real_gsv_index(as_problem(f, X, c)).index == -2


def test_gm_gradient_side_vanishes_when_c_in_gradient_ideal():
    # c = delta1 f_x + delta2 f_y forces the gradient-side signature to be 0;
    # the function itself verifies that as a post-check, so success suffices
    f, X, c = gm_family(1, 1)
    gm_signature_index(f, list(X), c)


# ------------------------------------------------- coordinate invariance

def test_complex_dimension_matches_the_annihilator_route():
    # dim B0 - dim O/(f, X_1, DF) against C0 = B0 / ann(DF) built by kernel
    # and RREF, the route the real index still takes
    from gsvindex.index import _c0_algebra

    sheared = parse_problem_file(CORPUS_DIR / "node_sheared_real.prob").problem
    problems = [Problem(vars=P.vars, f=P.f, X=P.X, C=P.C, field=field)
                for P in (parse_problem_file(path).problem
                          for path in sorted(CORPUS_DIR.glob("*.prob")))
                if P is not None for field in ("complex", "real")]
    assert sheared in problems
    for k in (4, 5, 6):
        P = dk_problem(k, k - 1)
        problems += [P] + [substitute_problem(P, random_unimodular(
            2, random.Random(s))) for s in range(5)]
    problems += [space_curve_problem(l) for l in range(1, 9)]
    # the deepest rung known: dim B0 = 159, leading monomials of degree 75
    shear = tuple(tuple(map(Fraction, r)) for r in ((-1, -1), (-2, -3)))
    problems.append(substitute_problem(dk_problem(14, 12), shear))
    for P in problems:
        norm = ensure_regular_sequence(P)
        Q, n = norm.problem, P.nvars
        DF = minor_det(jacobian(list(Q.f), n), list(range(n - 1)),
                       list(range(1, n)))
        term = quotient_dimension(list(Q.f) + [Q.X[0], DF])
        assert norm.algebra.dim - term == _c0_algebra(norm).dim
        report = complex_gsv_index(P)
        assert report.dim_B0_mod_DF == term
        assert report.index == report.dim_C0 == norm.algebra.dim - term
        if P.field == "real":
            assert real_gsv_index(P).dim_B0_mod_DF == term
    assert permutation_of(ensure_regular_sequence(sheared).transform) is None


def test_coordinate_invariance_dk():
    assert coordinate_invariance_check(dk_problem(4, 3), seed=1, trials=5)


def test_coordinate_invariance_smooth_line():
    assert coordinate_invariance_check(smooth_line_problem(), seed=2, trials=5)


def test_coordinate_invariance_space_curve():
    assert coordinate_invariance_check(space_curve_problem(), seed=3, trials=3)


# ------------------------------------------------------ smooth consistency

def test_smooth_case_reduces_to_classical_indices():
    # f = y: the curve is the x-axis; the restricted field is X_1(x, 0)
    cases = [
        ((x - x * x, y), 1),          # simple zero
        ((x ** 3, x * y), None),      # restriction x^3: complex 3, real 1
        ((x * x, y * y), None),       # restriction x^2: complex 2, real 0
    ]
    for (X1, X2), _ in cases:
        # tangency matrix: X f = X2, so C = [X2 / y] when y | X2
        quot = {m[:1] + (m[1] - 1,) + m[2:]: c for m, c in X2.terms.items()} \
            if not X2.is_zero else {}
        C = PolyMatrix(1, 1, [Polynomial(2, quot)])
        p = Problem(vars=("x", "y"), f=(y,), X=(X1, X2), C=C, field="complex")
        restricted = Polynomial(
            1, {(m[0],): c for m, c in X1.terms.items() if m[1] == 0}
        )
        assert complex_gsv_index(p).index == poincare_hopf_complex([restricted])
        p_real = Problem(vars=("x", "y"), f=(y,), X=(X1, X2), C=C, field="real")
        assert (
            real_gsv_index(p_real).index
            == eisenbud_levine_index([restricted])[0]
        )
