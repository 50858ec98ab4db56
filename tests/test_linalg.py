"""The integer elimination kernel against elimination over the rationals.

forward_eliminate and back_substitute, the column relations read off them
for the algebra layer and the Witt step (column_relations), inverse and
signature_of are checked against pure-Fraction references that share no
code with them: rref, nullspace, det, solve and inverse from
reference_linalg, and the echelon rows and the signature below. Every result
must be identical, not just equivalent.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from gsvindex import Polynomial, _linalg, real_gsv_index, signature_of
from gsvindex.index import _c0_algebra, c_coefficient, ensure_regular_sequence
from gsvindex.poly import jacobian, minor_det
from gsvindex.sigform import choose_linear_form

from problems import dk_problem, mult_matrix, substitute_problem
from reference_linalg import (
    _ref_det,
    _ref_inverse,
    _ref_nullspace,
    _ref_rref,
    _ref_solve,
)

F = Fraction


def _ref_signature(matrix):
    """Upper-triangle congruence diagonalization over the rationals."""
    d = len(matrix)
    a = [[None] * i + [Fraction(x) for x in row[i:]]
         for i, row in enumerate(matrix)]

    def entry(u, v):
        return a[u][v] if u <= v else a[v][u]

    live = list(range(d))
    plus = minus = 0
    while live:
        piv = next((s for s, u in enumerate(live) if a[u][u] != 0), None)
        if piv is None:
            pair = next(((s, v) for s, u in enumerate(live)
                         for v in live[s + 1:] if entry(u, v) != 0), None)
            if pair is None:
                break
            piv, v = pair
            u = live[piv]
            for t in live:
                if t != u and t != v:
                    value = entry(u, t) + entry(v, t)
                    if u <= t:
                        a[u][t] = value
                    else:
                        a[t][u] = value
            a[u][u] = 2 * entry(u, v)
        live[0], live[piv] = live[piv], live[0]
        k = live.pop(0)
        p = a[k][k]
        if p > 0:
            plus += 1
        else:
            minus += 1
        row = sorted((t, w) for t in live if (w := entry(k, t)) != 0)
        for pos, (r, ar) in enumerate(row):
            f = ar / p
            for t, at in row[pos:]:
                a[r][t] -= f * at
    return plus, minus, plus + minus


def _rational_echelon(M):
    """(order, rows): the row indices of M's pivot rows and the echelon rows,
    as Gaussian elimination over the rationals leaves them when, column by
    column, it swaps up the first row at or below the current one with a
    nonzero entry."""
    a = [[Fraction(x) for x in row] for row in M]
    order = list(range(len(a)))
    r = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        order[r], order[piv] = order[piv], order[r]
        for i in range(r + 1, len(a)):
            if a[i][c]:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return order[:r], a[:r]


def _random_matrix(rng, nrows, ncols, density, big):
    def entry():
        if rng.random() >= density:
            return F(0)
        bound = 2 ** rng.randint(40, 48) if big else 9
        return F(rng.randint(-bound, bound), rng.randint(1, 7))

    M = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 2 and rng.random() < 0.4:  # rank-deficient: a combination row
        i, j, k = rng.sample(range(nrows), 3)
        a, b = F(rng.randint(-3, 3), rng.randint(1, 4)), F(rng.randint(-3, 3))
        M[k] = [a * x + b * y for x, y in zip(M[i], M[j])]
    if rng.random() < 0.3:  # a zero column
        c = rng.randrange(ncols)
        for row in M:
            row[c] = F(0)
    if rng.random() < 0.3:  # zero leading entries, so pivots need row swaps
        lead = rng.randint(1, ncols)
        for row in M[:rng.randint(1, nrows)]:
            row[:lead] = [F(0)] * lead
    return M


def _cases(seed, count):
    rng = random.Random(seed)
    for trial in range(count):
        nrows, ncols = rng.randint(1, 14), rng.randint(1, 14)
        density = (0.1, 0.3, 0.6, 1.0)[trial % 4]
        yield rng, _random_matrix(rng, nrows, ncols, density, trial % 5 == 0)


def _integer_rows(M):
    """Each row of M times the lcm of its denominators, as ints."""
    out = []
    for row in M:
        s = lcm(*(Fraction(x).denominator for x in row))
        out.append([int(Fraction(x) * s) for x in row])
    return out


def _kernel_rows(independent, units, den):
    """e_r - sum of u / den * e_{independent[j]} over (j, u) in units[r],
    for each dependent column r: the kernel vectors column_relations states."""
    rows = []
    for r, us in enumerate(units):
        if r not in independent:
            v = [Fraction(int(c == r)) for c in range(len(units))]
            for j, u in us:
                v[independent[j]] -= Fraction(u, den)
            rows.append(tuple(v))
    return rows


def _check_relations(M):
    """column_relations on M against the references: its kernel vectors are
    the RREF of the kernel, the independent columns the rest, and each
    column is the stated combination of independent ones."""
    n = len(M[0]) if M else 0
    independent, units, den = _linalg.column_relations(_integer_rows(M), n)
    ref_kernel, kernel_pivots = _ref_rref(_ref_nullspace(M, ncols=n))
    assert den > 0
    assert independent == [c for c in range(n) if c not in kernel_pivots]
    assert _kernel_rows(independent, units, den) == [
        tuple(r) for r in ref_kernel]
    for r, us in enumerate(units):
        for row in M:
            assert row[r] == sum((Fraction(u, den) * row[independent[j]]
                                  for j, u in us), Fraction(0))


def _check_forward(M):
    """forward_eliminate on the integer rows of M: the pivots are the RREF
    pivots, and echelon row k is a primitive int row, a positive multiple of
    row k of the elimination over the rationals, with its first nonzero
    entry in column pivots[k]."""
    A = _integer_rows(M)
    rows, pivots = _linalg.forward_eliminate([list(row) for row in A])
    assert pivots == _ref_rref(M)[1]
    assert all(type(x) is int for row in rows for x in row)
    for row, ref, p in zip(rows, _rational_echelon(A)[1], pivots):
        assert gcd(*row) == 1
        assert not any(row[:p]) and row[p]
        assert [x * ref[p] for x in row] == [y * row[p] for y in ref]
        assert (row[p] > 0) == (ref[p] > 0)
    return rows, pivots


def _check_solution(x, den):
    """back_substitute's (x, den): den > 0 and the gcd of den and x 1."""
    assert all(type(v) is int for v in x)
    assert den > 0 and gcd(den, *x) == 1
    return _linalg.fractions(x, den)


def test_rref_nullspace_rank_match_rational_elimination():
    # the right-hand sides get their own generator, so that the 700
    # matrices stay those of seed 7
    rhs = random.Random(8)
    for _, M in _cases(7, 700):
        rows, pivots = _check_forward(M)
        columns = [_check_solution(*_linalg.back_substitute(rows, pivots, c))
                   for c in range(len(M[0]))]
        rref = [list(row) for row in zip(*columns)]
        assert (rref, pivots) == _ref_rref(M), M
        _check_relations(M)
        # a right-hand side b: [M | b] is inconsistent exactly when its last
        # column is a pivot, and otherwise solves to the solution with free
        # coordinates 0
        n = len(M[0])
        b = [F(rhs.randint(-9, 9), rhs.randint(1, 3)) for _ in M]
        rows, pivots = _check_forward([row + [x] for row, x in zip(M, b)])
        expected = _ref_solve(M, b)
        if pivots and pivots[-1] == n:
            assert expected is None
        else:
            x = _check_solution(*_linalg.back_substitute(rows, pivots, n))
            assert x == [expected[p] for p in pivots]
            assert all(expected[c] == 0 for c in range(n) if c not in pivots)


def test_elimination_edge_shapes():
    assert _linalg.forward_eliminate([]) == ([], [])
    # no rows but three columns: every column is the empty combination
    assert _linalg.column_relations([], 3) == ([], [[], [], []], 1)
    assert _kernel_rows(*_linalg.column_relations([], 3)) == [
        tuple(F(int(i == j)) for j in range(3)) for i in range(3)]
    assert _linalg.column_relations([], 0) == ([], [], 1)
    zero = [[F(0)] * 4 for _ in range(3)]
    assert _linalg.forward_eliminate(_integer_rows(zero)) == ([], [])
    assert _linalg.column_relations(_integer_rows(zero), 4)[0] == []
    wide = [[F(1), F(2), F(0), F(3), F(-1)], [F(2), F(4), F(1), F(0), F(1, 2)]]
    tall = [list(col) for col in zip(*wide)]
    for M in (zero, wide, tall, [[F(5)]], [[F(0)]], [[F(1, 3), F(0)]]):
        _check_relations(M)
    assert _linalg.column_relations(_integer_rows(wide), 5)[0] == [3, 4]
    assert _linalg.column_relations(_integer_rows(tall), 2)[0] == [0, 1]


def test_column_relations_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, database=None, max_examples=100,
                         deadline=None)
    @hypothesis.given(st.integers(0, 6).flatmap(lambda n: st.lists(
        st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3),
                 min_size=n, max_size=n), max_size=6)))
    def check(M):
        _check_relations(M)
        _check_forward(M)

    check()


def test_negative_last_pivot_property():
    # column_relations eliminates M with its columns reversed; each echelon
    # row is a positive multiple of the rational one, so negating the last
    # pivot row keeps every pivot and negates the last echelon row: each
    # matrix of nonzero rank is eliminated with its last pivot < 0, and den
    # must still come out positive
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, database=None, max_examples=100,
                         deadline=None)
    @hypothesis.given(st.integers(1, 6).flatmap(lambda n: st.lists(
        st.lists(st.integers(-5, 5), min_size=n, max_size=n),
        min_size=1, max_size=6)))
    def check(M):
        order = _rational_echelon([row[::-1] for row in M])[0]
        hypothesis.assume(order)
        rows, pivots = _linalg.forward_eliminate([row[::-1] for row in M])
        if rows[-1][pivots[-1]] > 0:
            M[order[-1]] = [-x for x in M[order[-1]]]
        rows, pivots = _check_forward([row[::-1] for row in M])
        assert rows[-1][pivots[-1]] < 0
        assert _linalg.column_relations(M, len(M[0]))[2] > 0
        _check_relations(M)

    check()


def test_inverse_matches_rational_elimination():
    singular = 0
    for rng, M in _cases(11, 500):
        n = min(len(M), len(M[0]))
        S = [row[:n] for row in M[:n]]
        try:
            expected = _ref_inverse(S)
        except ValueError:
            singular += 1
            with pytest.raises(ValueError):
                _linalg.inverse(S)
        else:
            assert _linalg.inverse(S) == expected, S
            assert _ref_det(S) != 0
    assert _linalg.inverse([]) == []
    assert singular >= 40


def test_signature_and_kernel_on_the_mixed_dk65_workload():
    # plane-mixed's largest input at seed 1: dk(6,5) after the shear
    # [[3, -1], [2, -1]], with the functional drawn from seed 2071614969
    seed = 2071614969
    P = substitute_problem(dk_problem(6, 5, field="real"), [[3, -1], [2, -1]])
    norm = ensure_regular_sequence(P, seed=seed)
    Q = norm.problem
    DF = minor_det(jacobian(list(Q.f), 2), [0], [1])
    B0, C0 = norm.algebra, _c0_algebra(norm)
    kernel, pivots = _ref_rref(_ref_nullspace(mult_matrix(B0, DF)))
    assert C0.complement_indices == tuple(
        c for c in range(B0.dim) if c not in pivots)
    # the class of each pivot monomial is minus the rest of its kernel row
    assert [C0.coords(Polynomial.term(2, B0.basis[p], 1)) for p in pivots] == [
        [-row[c] for c in C0.complement_indices] for row in kernel]
    c1 = c_coefficient(jacobian(list(Q.X), 2), Q.C)
    for fseed in (seed, None):
        l, _ = choose_linear_form(C0, c1, seed=fseed)
        G = C0.scaled_gram_matrix(l)
        s = signature_of(G)
        assert (s.p_plus, s.p_minus, s.rank) == _ref_signature(G) == (10, 10, 20)


def test_column_relations_on_the_deep_mixed_dk1210_rung(monkeypatch):
    # the two matrices the real index of seeded mixed dk(12,10) (shear
    # [[-1, -1], [-2, -3]], seed 576420752) hands column_relations: M_DF,
    # of rank 99 < dim B0 = 113, and the Witt B^T, 41 x 58 with 17
    # dependent columns
    seen = []
    column_relations = _linalg.column_relations

    def recording(M, n):
        seen.append([list(row) for row in M])
        return column_relations(M, n)

    monkeypatch.setattr(_linalg, "column_relations", recording)
    P = substitute_problem(dk_problem(12, 10, field="real"),
                           [[-1, -1], [-2, -3]])
    assert real_gsv_index(P, seed=576420752).dim_C0 == 99
    monkeypatch.undo()
    assert [(len(M), len(M[0])) for M in seen] == [(113, 113), (41, 58)]
    for M in seen:
        _check_relations(M)
        # primitive rows keep every echelon entry within the input's bit
        # length, where Bareiss's scaling grew them 20-fold (1,313 bits
        # against 65 on M_DF, 220 against 18 on B^T)
        rows, _ = _linalg.forward_eliminate([row[::-1] for row in M])
        assert max(abs(x).bit_length() for row in rows for x in row) <= \
            max(abs(x).bit_length() for row in M for x in row)
