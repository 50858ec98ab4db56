import copy
import heapq
import pickle
import random
import tracemalloc
from fractions import Fraction
from math import gcd, lcm

import pytest

from gsvindex import (
    Polynomial,
    Problem,
    annihilator_quotient,
    build_algebra,
    choose_linear_form,
    eisenbud_levine_index,
    ideal_membership,
    linear_substitute,
    quotient_dimension,
    real_gsv_index,
    signature_of,
    socle,
    solve_multiplication,
    transform_vector_field,
)
from gsvindex import _linalg, ensure_regular_sequence, localstd
from gsvindex.errors import C1ClassZeroError, InfiniteDimensionError
from gsvindex.index import (
    _c0_algebra,
    _jacobian_minor,
    _substitute_problem,
    c_coefficient,
    random_unimodular,
)
from gsvindex.poly import jacobian
from gsvindex.sigform import SignatureResult

from problems import dk_problem, smooth_line_problem, space_curve_problem, zk_map
from reference_linalg import _ref_nullspace, _ref_rref, _ref_scaled, _ref_solve

x = Polynomial.variable(2, 0)
y = Polynomial.variable(2, 1)
one = Polynomial.one(2)


def _product_columns(A, g):
    """[coords(g * b_1), ..., coords(g * b_d)] from the integer walk, as
    Fractions."""
    return [_linalg.fractions(*col) for col in A._product_columns(g)]


def _mult_matrix(A, g):
    """The matrix of [h] -> [g*h]: its columns are the images of the basis."""
    return [list(row) for row in zip(*_product_columns(A, g))]


def _projection(Q):
    """The dense matrix of parent coords -> complement coords, from
    Q._projected_units over Q._den."""
    proj = [[Fraction(0)] * Q.parent.dim for _ in range(Q.dim)]
    for r, units in enumerate(Q._projected_units):
        for j, u in units:
            proj[j][r] = Fraction(u, Q._den)
    return proj


def _project(Q, v):
    """The complement coords of the parent element with coords v, summed
    over the sparse columns of _projection(Q)."""
    out = [Fraction(0)] * Q.dim
    for r, c in enumerate(v):
        for j, u in Q._projected_units[r] if c else ():
            out[j] += c * u
    return [a / Q._den for a in out]


def _mult_table(A):
    """Reference multiplication table: table[i][j] = coords(b_i * b_j)."""
    return [[tuple(col) for col in
             _product_columns(A, Polynomial.term(A.nvars, m, 1))]
            for m in A.basis]


def _multiply_coords(table, u, v):
    """Reference product of two coordinate vectors via a multiplication table."""
    out = [Fraction(0)] * len(table)
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, vj in enumerate(v):
            if not vj:
                continue
            f = ui * vj
            for k, c in enumerate(table[i][j]):
                if c:
                    out[k] += f * c
    return out


def test_build_algebra_examples():
    A = build_algebra([x, y])
    assert A.dim == 1 and A.basis == ((0, 0),)

    A = build_algebra([x * x, y * y])
    assert A.dim == 4
    idx = {m: i for i, m in enumerate(A.basis)}
    assert A.basis[0] == (0, 0)
    cx, cy, cxy = idx[(1, 0)], idx[(0, 1)], idx[(1, 1)]
    table = _mult_table(A)
    prod = table[cx][cy]
    assert prod[cxy] == 1 and sum(1 for v in prod if v) == 1
    assert all(v == 0 for v in table[cx][cx])

    assert build_algebra([x * x * y + y ** 3, x ** 4]).dim == 12


def test_build_algebra_rejects_infinite():
    with pytest.raises(InfiniteDimensionError):
        build_algebra([y - x * x])


def test_tall_staircase_keys_only_what_the_division_reaches():
    # (x^801, y): delta = 800; a rank table of every monomial of degree
    # <= delta peaked at about 55 MB, the staircase and its rewrites at 6 MB
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        A = build_algebra([y ** 2 - x ** 801, y])
        assert A.dim == 801 and len(A.var_matrices) == 2
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 16_000_000


def test_variable_matrices_hold_no_dense_columns():
    # every column of M_y is zero on (y^2 - x^801, y); holding each border
    # column as a dense 801-long list before sparsifying peaked at 5.45 MB
    A = build_algebra([y ** 2 - x ** 801, y])
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert all(col == () for col in A.var_matrices[1])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 1_500_000


def test_terms_past_the_packed_limit_lie_in_the_ideal():
    # degree 2^31 cannot be packed, and need not be: it is above delta
    A = build_algebra([x * x * y + y ** 3, x ** 4])
    assert A.coords(x ** (2 ** 31) + one) == A.coords(one)
    assert not any(A.coords(x ** (2 ** 31) * y))


def test_coordinates_over_dense_bases():
    # after a unimodular change every standard-basis element is dense, so
    # each coordinate vector comes out of a long truncated reduction
    P = dk_problem(5, 4)
    A = random_unimodular(2, random.Random(2))
    gens = [linear_substitute(P.f[0], A), transform_vector_field(list(P.X), A)[0]]
    B = build_algebra(gens)
    assert B.dim == 19 and min(len(b.terms) for b in B.sb.basis) >= 9
    delta = max(sum(m) for m in B.basis)
    rng = random.Random(11)
    for _ in range(20):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            e = rng.randint(0, delta + 2)
            a = rng.randint(0, e)
            terms[(a, e - a)] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        p = Polynomial(2, terms)
        member, _ = ideal_membership(p - B.from_coords(B.coords(p)), gens)
        assert member
    for i, m in enumerate(B.basis):
        unit = [Fraction(int(j == i)) for j in range(B.dim)]
        assert B.coords(Polynomial.term(2, m, 1)) == unit
    for a in range(delta + 2):
        assert not any(B.coords(Polynomial.term(2, (a, delta + 1 - a), 1)))


def test_mult_table_symmetric_and_unital():
    A = build_algebra([x * x * y + y ** 3, x ** 4])
    d = A.dim
    table = _mult_table(A)
    for i in range(d):
        for j in range(d):
            assert table[i][j] == table[j][i]
        unit_row = table[0][i]
        assert unit_row[i] == 1 and sum(1 for v in unit_row if v) == 1


def test_mult_matrix_examples():
    A = build_algebra([y, x ** 3])
    assert A.basis == ((0, 0), (1, 0), (2, 0))
    assert _mult_matrix(A, one) == [
        [Fraction(int(i == j)) for j in range(3)] for i in range(3)
    ]
    assert _mult_matrix(A, Polynomial.zero(2)) == [
        [Fraction(0)] * 3 for _ in range(3)
    ]
    M = _mult_matrix(A, x * x)
    assert M[2][0] == 1
    assert sum(1 for i in range(3) for j in range(3) if M[i][j]) == 1


def test_annihilator_quotient_examples():
    A = build_algebra([y, x ** 3])
    Q = annihilator_quotient(A, x * x)
    assert Q.dim == 1
    kernel = set(Q.kernel_basis)
    assert (Fraction(0), Fraction(1), Fraction(0)) in kernel
    assert (Fraction(0), Fraction(0), Fraction(1)) in kernel

    unit_q = annihilator_quotient(A, one + x)
    assert unit_q.dim == A.dim and not unit_q.kernel_basis

    d4 = build_algebra([x * x * y + y ** 3, x ** 4])
    C0 = annihilator_quotient(d4, x * x + 3 * y * y)
    assert C0.dim == 6


def test_exact_sequence_identity_randomized():
    rng = random.Random(41)
    algebras = [
        ([x * x, y * y], build_algebra([x * x, y * y])),
        ([y, x ** 3], build_algebra([y, x ** 3])),
        ([x * x * y + y ** 3, x ** 4], build_algebra([x * x * y + y ** 3, x ** 4])),
    ]
    trials = 0
    while trials < 100:
        gens, A = algebras[trials % len(algebras)]
        g = Polynomial(
            2,
            {
                (rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-3, 3)
                for _ in range(rng.randint(1, 3))
            },
        )
        trials += 1
        Q = annihilator_quotient(A, g)
        rank = len(_ref_rref(_mult_matrix(A, g))[1])
        assert Q.dim == rank  # dim C = dim A - dim ann
        # cross-check dim A/(g A) against an independent staircase computation
        if not g.is_zero:
            md = quotient_dimension(gens + [g])
            assert md == A.dim - rank


def test_quotient_multiplication_commutative_associative_unital():
    A = build_algebra([x * x * y + y ** 3, x ** 4])
    Q = annihilator_quotient(A, x * x + 3 * y * y)
    d = Q.dim
    unit = Q.coords(one)
    table = _mult_table(Q)
    for i in range(d):
        ei = [Fraction(int(t == i)) for t in range(d)]
        assert _multiply_coords(table, unit, ei) == ei
        for j in range(d):
            ej = [Fraction(int(t == j)) for t in range(d)]
            assert table[i][j] == table[j][i]
            for k in range(d):
                ek = [Fraction(int(t == k)) for t in range(d)]
                left = _multiply_coords(table, _multiply_coords(table, ei, ej), ek)
                right = _multiply_coords(table, ei, _multiply_coords(table, ej, ek))
                assert left == right


def test_projection_splits_inclusion():
    A = build_algebra([x * x * y + y ** 3, x ** 4])
    Q = annihilator_quotient(A, x * x + 3 * y * y)
    assert len(Q.kernel_basis) + Q.dim == A.dim
    for j, cj in enumerate(Q.complement_indices):
        e = [Fraction(0)] * A.dim
        e[cj] = Fraction(1)
        unit = [Fraction(int(t == j)) for t in range(Q.dim)]
        assert _project(Q, e) == unit
        assert Q.coords(Polynomial.term(2, A.basis[cj], 1)) == unit


def test_socle_examples():
    A = build_algebra([x * x, y * y])
    vecs = socle(A)
    assert len(vecs) == 1 and A.from_coords(vecs[0]) == x * y

    A1 = build_algebra([x, y])
    vecs = socle(A1)
    assert len(vecs) == 1 and A1.from_coords(vecs[0]) == one

    A3 = build_algebra([y, x ** 3])
    vecs = socle(A3)
    assert len(vecs) == 1 and A3.from_coords(vecs[0]) == x * x


def test_socle_annihilated_by_variables():
    A = build_algebra([x * x * y + y ** 3, x ** 4])
    table = _mult_table(A)
    for v in socle(A):
        for var in (x, y):
            image = _multiply_coords(table, A.coords(var), list(v))
            assert all(c == 0 for c in image)


def test_socle_of_quotient_is_one_dimensional():
    # complete-intersection quotients are Gorenstein; so are their
    # annihilator quotients whenever nontrivial
    cases = [
        ([x * x * y + y ** 3, x ** 4], x * x + 3 * y * y),
        ([x * x - y * y, x * x], -2 * y),
        ([y, x ** 3], x),
    ]
    for gens, g in cases:
        Q = annihilator_quotient(build_algebra(gens), g)
        if Q.dim >= 1:
            assert len(socle(Q)) == 1


def test_solve_multiplication_examples():
    A = build_algebra([y, x ** 3])
    h = solve_multiplication(A, x, x * x)
    assert h is not None
    assert _multiply_coords(_mult_table(A), A.coords(x), h) == A.coords(x * x)
    assert solve_multiplication(A, x, one) is None
    v = x + y + x * x
    assert solve_multiplication(A, one, v) == A.coords(v)


def _dense_var_matrix(A, k):
    """M_k as a dense matrix from its columns (an int column is a unit
    vector; the other columns are numerators over the matrix's scale)."""
    M = [[Fraction(0)] * A.dim for _ in range(A.dim)]
    s = A.var_matrices[k].scale
    for i, col in enumerate(A.var_matrices[k]):
        for r, c in ([(col, s)] if isinstance(col, int) else col):
            M[r][i] = Fraction(c, s)
    return M


def _dense_dk_algebra():
    # dk(5,4) after a unimodular change: dense bases, many non-unit columns
    P = dk_problem(5, 4)
    A = random_unimodular(2, random.Random(2))
    f = linear_substitute(P.f[0], A)
    B = build_algebra([f, transform_vector_field(list(P.X), A)[0]])
    return B, f.diff(1)


def test_variable_matrices_are_coordinates_and_commute():
    B, _ = _dense_dk_algebra()
    mats = [_dense_var_matrix(B, k) for k in range(2)]
    assert any(not isinstance(c, int) for c in B.var_matrices[0])
    for k, M in enumerate(mats):
        for i, m in enumerate(B.basis):
            shifted = tuple(e + (t == k) for t, e in enumerate(m))
            column = [M[r][i] for r in range(B.dim)]
            assert column == B.coords(Polynomial.term(2, shifted, 1))
        assert _mult_matrix(B, Polynomial.variable(2, k)) == M
    for M in mats:
        for N in mats:
            assert _linalg.matmul(M, N) == _linalg.matmul(N, M)


def test_variable_matrices_copy_and_pickle_with_their_scale():
    B, DF = _dense_dk_algebra()
    for A in (B, annihilator_quotient(B, DF)):
        mats = A.var_matrices
        for twin in (copy.deepcopy(mats), pickle.loads(pickle.dumps(mats)),
                     copy.copy(A).var_matrices):
            assert twin == mats
            assert [M.scale for M in twin] == [M.scale for M in mats]


def _divided_var_matrices(A):
    """var_matrices with every border column made on its own: divided in
    the local standard basis for an algebra, the parent's column projected
    for an annihilator quotient; each reduced, then all over their lcm."""
    parent = _divided_var_matrices(A.parent) if hasattr(A, "parent") else None
    out = []
    for k in range(A.nvars):
        cols = []
        for i, m in enumerate(A.basis):
            shifted = m[:k] + (m[k] + 1,) + m[k + 1:]
            if shifted in A._index:
                cols.append(A._index[shifted])
                continue
            if parent is None:
                v, den = A._canon.integer_coordinates(
                    Polynomial.term(A.nvars, shifted, 1))
            else:
                M, s = parent[k]
                col = M[A.complement_indices[i]]
                v = [0] * A.dim
                for r, c in [(col, s)] if isinstance(col, int) else col:
                    for j, u in A._projected_units[r]:
                        v[j] += c * u
                v, den = _linalg.reduced(v, s * A._den)
            cols.append(([(r, c) for r, c in enumerate(v) if c], den))
        s = lcm(*(c[1] for c in cols if not isinstance(c, int)))
        out.append((tuple(c if isinstance(c, int) else
                          tuple((r, x * (s // c[1])) for r, x in c[0])
                          for c in cols), s))
    return tuple(out)


def _assert_divided(A):
    assert [(tuple(M), M.scale) for M in A.var_matrices] == list(
        _divided_var_matrices(A))


def test_variable_matrices_equal_their_divided_columns():
    # the hub recurrence gives each border column its division exactly,
    # scale included, on B0 and on C0
    shears = (None, [[-1, -1], [-2, -3]], [[1, 2], [1, 3]], [[2, 1], [1, 1]])
    for k, m in ((4, 3), (5, 4), (6, 5), (7, 5), (8, 6), (10, 8), (12, 10)):
        P = dk_problem(k, m, field="real")
        for A in shears:
            norm = ensure_regular_sequence(
                P if A is None else _substitute_problem(P, A))
            _assert_divided(norm.algebra)
            _assert_divided(_c0_algebra(norm))
    for k in range(2, 7):  # the el algebras of (Re z^k, Im z^k)
        _assert_divided(build_algebra(zk_map(k)))
    for l in range(1, 5):
        P = space_curve_problem(l)
        norm = ensure_regular_sequence(
            Problem(vars=P.vars, f=P.f, X=P.X, C=P.C, field="real"))
        assert norm.algebra.nvars == 3
        _assert_divided(norm.algebra)
        _assert_divided(_c0_algebra(norm))
    t = Polynomial.variable(1, 0)
    for gens in ([t ** 5 + t ** 7], [one + x, y], [y ** 2 - x ** 801, y],
                 [x ** 2 - y ** 801, x]):
        _assert_divided(build_algebra(gens))


def test_variable_matrices_divide_only_what_the_hub_cannot_reach(monkeypatch):
    # mixed dk(12,10) has 56 border columns, the tall staircases 802; the
    # hub's border columns and those with no hub variable in b_i are 4 and 2
    calls = []
    divide = localstd.CanonicalQuotient.integer_coordinates
    monkeypatch.setattr(localstd.CanonicalQuotient, "integer_coordinates",
                        lambda self, p: calls.append(p) or divide(self, p))
    mixed = _substitute_problem(dk_problem(12, 10), [[-1, -1], [-2, -3]])
    for build, divisions in (
            (lambda: ensure_regular_sequence(mixed).algebra, 4),
            (lambda: build_algebra([y ** 2 - x ** 801, y]), 2),
            (lambda: build_algebra([x ** 2 - y ** 801, x]), 2)):
        A = build()
        calls.clear()
        assert len(A.var_matrices) == 2 and len(calls) == divisions


def test_mult_matrix_matches_table():
    B, DF = _dense_dk_algebra()
    d = B.dim
    table = _mult_table(B)
    for g in (x, one + x * y, 3 * one - y * y + x ** 3, DF):
        gc = B.coords(g)
        cols = [_multiply_coords(table, gc,
                                 [Fraction(int(t == j)) for t in range(d)])
                for j in range(d)]
        assert _mult_matrix(B, g) == [[cols[j][i] for j in range(d)]
                                      for i in range(d)]


def test_gram_matches_table_on_annihilator_quotient():
    B, DF = _dense_dk_algebra()
    C0 = annihilator_quotient(B, DF)
    assert 0 < C0.dim < B.dim
    rng = random.Random(7)
    table = _mult_table(C0)
    for _ in range(10):
        l = [Fraction(rng.randint(-9, 9), rng.randint(1, 3))
             for _ in range(C0.dim)]
        expected = tuple(
            tuple(sum((a * b for a, b in zip(l, table[i][j])),
                      Fraction(0)) for j in range(C0.dim))
            for i in range(C0.dim)
        )
        assert C0.scaled_gram_matrix(l) == _ref_scaled(expected)


def _pullback_gram(Q, l):
    """Reference Gram matrix of a quotient: the parent's Gram rows for the
    pulled-back functional l o projection, restricted to the complement."""
    proj = _projection(Q)
    pulled = [sum((a * row[b] for a, row in zip(l, proj) if a), Fraction(0))
              for b in range(Q.parent.dim)]
    rows = [_linalg.fractions(*row) for row in Q.parent._gram_walk(pulled)]
    idx = Q.complement_indices
    return tuple(tuple(rows[i][j] for j in idx) for i in idx)


def _projected_table(Q):
    """Reference multiplication table of a quotient: the parent's, projected."""
    parent_table = _mult_table(Q.parent)
    idx = Q.complement_indices
    return [[tuple(_project(Q, parent_table[i][j])) for j in idx] for i in idx]


def _check_against_parent(Q, rng, functionals=2, table=True):
    basis = set(Q.basis)
    assert Q.basis == tuple(Q.parent.basis[c] for c in Q.complement_indices)
    assert not Q.basis or Q.basis[0] == (0,) * Q.nvars
    for m in Q.basis:  # an order ideal: closed under division by variables
        for k, e in enumerate(m):
            if e:
                assert m[:k] + (e - 1,) + m[k + 1:] in basis
    for _ in range(functionals):
        l = [Fraction(rng.randint(-9, 9), rng.randint(1, 3))
             for _ in range(Q.dim)]
        assert Q.scaled_gram_matrix(l) == _ref_scaled(_pullback_gram(Q, l))
    if table:
        assert _mult_table(Q) == _projected_table(Q)


def test_c0_core_matches_parent_pullback_on_ladders():
    rng = random.Random(3)
    problems = []
    for k, m in ((4, 3), (5, 4), (6, 5), (7, 5), (8, 6)):
        P = dk_problem(k, m)
        problems.append(P)
        problems += [_substitute_problem(P, random_unimodular(2, random.Random(s)))
                     for s in (2, 5, 9)]
    problems += [space_curve_problem(l) for l in range(1, 7)]
    for P in problems:
        C0 = _c0_algebra(ensure_regular_sequence(P))
        assert 0 < C0.dim < C0.parent.dim
        _check_against_parent(C0, rng)


def test_random_annihilator_quotients_match_parent_pullback():
    parents = []
    for s in (2, 5, 9):
        P = _substitute_problem(dk_problem(6, 5),
                                random_unimodular(2, random.Random(s)))
        parents.append(ensure_regular_sequence(P).algebra)
    rng = random.Random(17)
    for trial in range(102):
        g = Polynomial(2, {(rng.randint(0, 4), rng.randint(0, 4)):
                           rng.randint(-3, 3)
                           for _ in range(rng.randint(1, 4))})
        # the projected reference table costs dim C0^3 dim B0, so every
        # fourth quotient checks it
        _check_against_parent(annihilator_quotient(parents[trial % 3], g), rng,
                              functionals=1, table=trial % 4 == 0)


def test_zero_algebra_builds_and_has_index_zero():
    A = build_algebra([one + x, y])
    assert A.dim == 0 and A.basis == () and _mult_matrix(A, x) == []
    assert socle(A) == [] and solve_multiplication(A, x, one) == []
    C = annihilator_quotient(A, one)
    assert C.dim == 0 and C.scaled_gram_matrix(()) == ()
    assert eisenbud_levine_index([one + x, y]) == (0, SignatureResult(0, 0, 0))


def test_complex_index_builds_no_c0_and_no_elimination(monkeypatch):
    from gsvindex import algebra, complex_gsv_index, coordinate_invariance_check, index

    def forbidden(*args, **kwargs):
        raise AssertionError("the complex index must not eliminate")

    # every annihilator, kernel and socle goes through _column_relations
    for module, name in ((index, "annihilator_quotient"),
                         (algebra, "_column_relations")):
        monkeypatch.setattr(module, name, forbidden)
    report = complex_gsv_index(space_curve_problem(6))
    assert report.index == report.dim_C0 == 24
    assert (report.dim_B0, report.dim_B0_mod_DF) == (32, 8)
    assert "var_matrices" not in report.normalization.algebra.__dict__
    # the invariance check reads dim C0 the same way, under general changes
    assert coordinate_invariance_check(space_curve_problem(2), trials=2)


# ------------------------------------------- Fraction references (integer layer)
# The algebra layer before it carried integer vectors over one denominator:
# CanonicalQuotient.integer_coordinates, the FiniteAlgebra walks and
# QuotientAlgebra.__init__, kept in Fractions as references. Their
# eliminations come from reference_linalg, which shares no code with
# gsvindex._linalg.

def _ref_coordinates(canon, p):
    """CanonicalQuotient.integer_coordinates in Fractions, emitting
    Fraction(c, D) on the spot."""
    kept = {canon.order.key(m): c for m, c in p.terms.items()
            if sum(m) <= canon.delta}
    den = lcm(*(c.denominator for c in kept.values()))
    work = {m: int(c * den) for m, c in kept.items()}
    heap = [-m for m in work]
    heapq.heapify(heap)
    out = [Fraction(0)] * len(canon.index)
    while heap:
        m = -heapq.heappop(heap)
        c = work.pop(m)
        if not c:
            continue
        i = canon.index.get(m)
        if i is not None:
            out[i] = Fraction(c, den)
            continue
        lc, tail = canon._rewrites.get(m) or canon._rewrite(m)
        g = gcd(c, lc)
        a, b = lc // g, c // g
        if a < 0:
            a, b = -a, -b
        if a != 1:
            for m2 in work:
                work[m2] *= a
            den *= a
        for m2, tc in tail:
            if m2 in work:
                work[m2] -= b * tc
            else:
                work[m2] = -b * tc
                heapq.heappush(heap, -m2)
    return out


class _RefAlgebra:
    """FiniteAlgebra in Fractions: var_matrices[k][i] is the index j when
    x_k * b_i = b_j, else the sparse Fraction coordinates of x_k * b_i."""

    def __init__(self, basis, nvars, canon=None):
        self.basis, self.dim, self.nvars = basis, len(basis), nvars
        self._canon = canon
        self._index = {m: i for i, m in enumerate(basis)}
        steps = []
        for m in basis[1:]:
            k = next(t for t, e in enumerate(m) if e)
            steps.append((k, self._index[self._shift(m, k, -1)]))
        self._steps = tuple(steps)
        self.var_matrices = tuple(
            tuple(self._column(k, i) for i in range(self.dim))
            for k in range(nvars))

    @staticmethod
    def _shift(m, k, by=1):
        return m[:k] + (m[k] + by,) + m[k + 1:]

    def _column(self, k, i):
        m = self._shift(self.basis[i], k)
        if m in self._index:
            return self._index[m]
        return tuple((r, c) for r, c in enumerate(self._shift_coords(k, i))
                     if c)

    def _shift_coords(self, k, i):
        m = self._shift(self.basis[i], k)
        return self.coords(Polynomial.term(self.nvars, m, 1))

    def coords(self, p):
        return _ref_coordinates(self._canon, p)

    def _walk(self, start, step):
        if not self.dim:
            return []
        out = [start]
        for k, a in self._steps:
            out.append(step(out[a], k))
        return out

    def _times_variable(self, v, k):
        out = [Fraction(0)] * self.dim
        for vb, col in zip(v, self.var_matrices[k]):
            if not vb:
                continue
            if type(col) is int:
                out[col] += vb
            else:
                for r, c in col:
                    out[r] += vb * c
        return out

    def _row_times_variable(self, w, k):
        return [w[col] if type(col) is int
                else sum((w[r] * c for r, c in col), Fraction(0))
                for col in self.var_matrices[k]]

    def mult_matrix(self, g):
        cols = self._walk(self.coords(g), self._times_variable)
        return [[col[i] for col in cols] for i in range(self.dim)]

    def gram_matrix(self, l):
        return tuple(tuple(row) for row in
                     self._walk(list(l), self._row_times_variable))


class _RefQuotient(_RefAlgebra):
    """QuotientAlgebra.__init__ in Fractions: nullspace, its RREF, a dense
    projection and its sparse columns."""

    def __init__(self, parent, g):
        self.parent = parent
        M = parent.mult_matrix(g)
        kernel = _ref_nullspace(M, ncols=parent.dim)
        rows, pivots = _ref_rref(kernel)
        self.kernel_basis = [tuple(r) for r in rows]
        pivot_set = set(pivots)
        self.complement_indices = tuple(
            i for i in range(parent.dim) if i not in pivot_set)
        proj = []
        for cj in self.complement_indices:
            row = [Fraction(0)] * parent.dim
            row[cj] = Fraction(1)
            for krow, p in zip(self.kernel_basis, pivots):
                row[p] -= krow[cj]
            proj.append(row)
        self.projection = proj
        self._projected_units = [
            [(j, row[r]) for j, row in enumerate(proj) if row[r]]
            for r in range(parent.dim)]
        super().__init__(tuple(parent.basis[c] for c in self.complement_indices),
                         parent.nvars)

    def _shift_coords(self, k, i):
        col = self.parent.var_matrices[k][self.complement_indices[i]]
        out = [Fraction(0)] * self.dim
        for r, c in ((col, 1),) if type(col) is int else col:
            for j, v in self._projected_units[r]:
                out[j] += c * v
        return out

    def coords(self, p):
        v = self.parent.coords(p)
        return [sum((a * b for a, b in zip(row, v)), Fraction(0))
                for row in self.projection]


def _rational_var_matrices(A):
    """var_matrices with each numerator divided by its matrix's scale."""
    return tuple(tuple(col if isinstance(col, int)
                       else tuple((r, Fraction(c, M.scale)) for r, c in col)
                       for col in M)
                 for M in A.var_matrices)


def _integer_layer_cases():
    shear = [[-1, -1], [-2, -3]]
    for k, m in ((4, 3), (5, 4), (6, 5), (7, 5), (8, 6)):
        P = dk_problem(k, m, field="real")
        yield P
        yield _substitute_problem(P, shear)
        for s in range(4):
            yield _substitute_problem(P, random_unimodular(2, random.Random(s)))


def test_integer_layer_matches_the_fraction_references():
    for P in _integer_layer_cases():
        norm = ensure_regular_sequence(P)
        B0, C0 = norm.algebra, _c0_algebra(norm)
        ref_B0 = _RefAlgebra(B0.basis, B0.nvars, B0._canon)
        assert _rational_var_matrices(B0) == ref_B0.var_matrices
        ref_C0 = _RefQuotient(ref_B0, _jacobian_minor(norm.problem))
        assert C0.complement_indices == ref_C0.complement_indices
        assert C0.kernel_basis == ref_C0.kernel_basis
        assert _projection(C0) == ref_C0.projection
        assert _rational_var_matrices(C0) == ref_C0.var_matrices
        Q = norm.problem
        c1 = c_coefficient(jacobian(list(Q.X), Q.nvars), Q.C)
        assert C0.coords(c1) == ref_C0.coords(c1)
        for seed in (None, 1, 2):
            l, value = choose_linear_form(C0, c1, seed=seed)
            assert (l, value) == choose_linear_form(ref_C0, c1, seed=seed)
            exact = ref_C0.gram_matrix(l)
            scaled = C0.scaled_gram_matrix(l)
            assert all(type(x) is int for row in scaled for x in row)
            assert scaled == _ref_scaled(exact)
            sig = signature_of(scaled)
            assert sig == signature_of(exact)
            assert sig == real_gsv_index(P, seed=seed).signature


def _ref_socle(A):
    """socle by the Fraction route: the stacked _mult_matrix of each
    variable, its nullspace and that nullspace's RREF."""
    if A.dim == 0:
        return []
    stacked = []
    for k in range(A.nvars):
        stacked.extend(_mult_matrix(A, Polynomial.variable(A.nvars, k)))
    rows, _ = _ref_rref(_ref_nullspace(stacked, ncols=A.dim))
    return [tuple(r) for r in rows]


def _ref_solve_multiplication(A, g, v):
    """solve_multiplication by the Fraction route: _mult_matrix and coords."""
    if A.dim == 0:
        return []
    return _ref_solve(_mult_matrix(A, g), A.coords(v))


def test_socle_and_division_match_the_fraction_route():
    shear = [[-1, -1], [-2, -3]]
    cases = []  # (algebra, an element to divide by)
    for k, m in ((4, 3), (5, 4), (6, 5), (7, 5), (8, 6)):
        P = dk_problem(k, m, field="real")
        for Q in (P, _substitute_problem(P, shear)):
            norm = ensure_regular_sequence(Q)
            g = _jacobian_minor(norm.problem)
            cases += [(norm.algebra, g), (_c0_algebra(norm), g)]
    # socles that mix a unit column of some M_k with a reduced one, so the
    # scale of each stacked block matters
    half, third = Fraction(1, 2), Fraction(1, 3)
    for gens in ([3 * half * x ** 4 - x * x + 2 * x * y, 2 * y * y - 3 * half * x * x],
                 [x * x * y - x * y * y, 2 * x * x - 2 * third * x ** 3 - half * y * y],
                 [x ** 4 - half * x ** 3 + x * x * y, y ** 4 - 2 * x * y * y]):
        A = build_algebra(gens)
        cases += [(A, x - y), (annihilator_quotient(A, x + 2 * y), x - y)]
    solved = unsolved = 0
    for A, g in cases:
        assert socle(A) == _ref_socle(A), A.basis
        for mult, v in ((g, g * (3 * x - y * y)), (x + 2 * y, x * x),
                        (y, x), (x, one), (one, x * y - 5 * y)):
            h = solve_multiplication(A, mult, v)
            assert h == _ref_solve_multiplication(A, mult, v), A.basis
            solved += h is not None
            unsolved += h is None
    assert solved and unsolved


def test_integer_b0_matches_the_fraction_references_on_space_curves():
    rng = random.Random(5)
    for l in range(1, 7):
        norm = ensure_regular_sequence(space_curve_problem(l))
        B0, DF = norm.algebra, _jacobian_minor(norm.problem)
        ref = _RefAlgebra(B0.basis, B0.nvars, B0._canon)
        assert _rational_var_matrices(B0) == ref.var_matrices
        assert _mult_matrix(B0, DF) == ref.mult_matrix(DF)
        f = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(B0.dim)]
        assert B0.scaled_gram_matrix(f) == _ref_scaled(ref.gram_matrix(f))


def test_regular_point_has_real_index_zero():
    # X_1 is a unit, so B0 is the zero algebra
    zero = Polynomial.zero(2)
    P = smooth_line_problem("real")
    P = type(P)(vars=P.vars, f=P.f, X=(one, zero), C=P.C, field="real")
    report = real_gsv_index(P)
    assert (report.dim_B0, report.dim_C0, report.index) == (0, 0, 0)
    assert report.signature == SignatureResult(0, 0, 0)


def test_class_projecting_to_zero_raises():
    # x is nonzero in O/(y, x^3) but lies in ann(x^2), so its class in the
    # annihilator quotient is zero
    A = build_algebra([y, x ** 3])
    C = annihilator_quotient(A, x * x)
    assert any(A.coords(x)) and not any(C.coords(x))
    with pytest.raises(C1ClassZeroError):
        choose_linear_form(C, x)
