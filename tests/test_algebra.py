import random
from fractions import Fraction

import pytest

from gsvindex import (
    Polynomial,
    annihilator_quotient,
    build_algebra,
    eisenbud_levine_index,
    gram_of_form,
    ideal_membership,
    linear_substitute,
    mult_matrix,
    quotient_dimension,
    socle,
    solve_multiplication,
    transform_vector_field,
)
from gsvindex import _linalg, ensure_regular_sequence
from gsvindex.errors import InfiniteDimensionError
from gsvindex.index import _c0_algebra, _substitute_problem, random_unimodular
from gsvindex.poly import monomials_of_degree
from gsvindex.sigform import SignatureResult

from problems import dk_problem, space_curve_problem

x = Polynomial.variable(2, 0)
y = Polynomial.variable(2, 1)
one = Polynomial.one(2)


def _mult_table(A):
    """Reference multiplication table: table[i][j] = coords(b_i * b_j)."""
    return [[tuple(col) for col in
             A.product_columns(Polynomial.term(A.nvars, m, 1))]
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
    for m in monomials_of_degree(2, delta + 1):
        assert not any(B.coords(Polynomial.term(2, m, 1)))


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
    assert mult_matrix(A, one) == [
        [Fraction(int(i == j)) for j in range(3)] for i in range(3)
    ]
    assert mult_matrix(A, Polynomial.zero(2)) == [
        [Fraction(0)] * 3 for _ in range(3)
    ]
    M = mult_matrix(A, x * x)
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
        rank = _linalg.rank(mult_matrix(A, g))
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
        projected = Q.project(e)
        assert projected == [Fraction(int(t == j)) for t in range(Q.dim)]


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
    """M_k as a dense matrix from its columns (an int column is a unit vector)."""
    M = [[Fraction(0)] * A.dim for _ in range(A.dim)]
    for i, col in enumerate(A.var_matrices[k]):
        for r, c in ([(col, Fraction(1))] if isinstance(col, int) else col):
            M[r][i] = c
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
        assert mult_matrix(B, Polynomial.variable(2, k)) == M
    for M in mats:
        for N in mats:
            assert _linalg.matmul(M, N) == _linalg.matmul(N, M)


def test_mult_matrix_matches_table():
    B, DF = _dense_dk_algebra()
    d = B.dim
    table = _mult_table(B)
    for g in (x, one + x * y, 3 * one - y * y + x ** 3, DF):
        gc = B.coords(g)
        cols = [_multiply_coords(table, gc,
                                 [Fraction(int(t == j)) for t in range(d)])
                for j in range(d)]
        assert mult_matrix(B, g) == [[cols[j][i] for j in range(d)]
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
        assert gram_of_form(C0, l).matrix == expected


def _pullback_gram(Q, l):
    """Reference Gram matrix of a quotient: the parent's Gram rows for the
    pulled-back functional l o projection, restricted to the complement."""
    pulled = [sum((a * row[b] for a, row in zip(l, Q.projection) if a),
                  Fraction(0))
              for b in range(Q.parent.dim)]
    rows = Q.parent.gram_rows(pulled)
    idx = Q.complement_indices
    return tuple(tuple(rows[i][j] for j in idx) for i in idx)


def _projected_table(Q):
    """Reference multiplication table of a quotient: the parent's, projected."""
    parent_table = _mult_table(Q.parent)
    idx = Q.complement_indices
    return [[tuple(Q.project(parent_table[i][j])) for j in idx] for i in idx]


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
        assert gram_of_form(Q, l).matrix == _pullback_gram(Q, l)
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
    assert A.dim == 0 and A.basis == () and mult_matrix(A, x) == []
    C = annihilator_quotient(A, one)
    assert C.dim == 0 and gram_of_form(C, ()).matrix == ()
    assert eisenbud_levine_index([one + x, y]) == (0, SignatureResult(0, 0, 0))


def test_complex_index_builds_no_c0_and_no_elimination(monkeypatch):
    from gsvindex import complex_gsv_index, coordinate_invariance_check, index

    def forbidden(*args, **kwargs):
        raise AssertionError("the complex index must not eliminate")

    for module, name in ((index, "annihilator_quotient"),
                         (_linalg, "nullspace"), (_linalg, "rref")):
        monkeypatch.setattr(module, name, forbidden)
    report = complex_gsv_index(space_curve_problem(6))
    assert report.index == report.dim_C0 == 24
    assert (report.dim_B0, report.dim_B0_mod_DF) == (32, 8)
    assert "var_matrices" not in report.normalization.algebra.__dict__
    # the invariance check reads dim C0 the same way, under general changes
    assert coordinate_invariance_check(space_curve_problem(2), trials=2)
