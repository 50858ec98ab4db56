"""The integer elimination kernel against elimination over the rationals.

integer_eliminate, the column relations the algebra layer reads off one
elimination (algebra._column_relations and _kernel_rows), inverse and
signature_of are checked against pure-Fraction references that share no
code with them: rref, nullspace, det and inverse from reference_linalg, and
the signature below. Every result must be identical, not just equivalent.
"""

import random
from fractions import Fraction
from math import lcm

import pytest

from gsvindex import _linalg, signature_of
from gsvindex.algebra import _column_relations, _kernel_rows
from gsvindex.index import (
    _c0_algebra,
    _substitute_problem,
    c_coefficient,
    ensure_regular_sequence,
)
from gsvindex.poly import jacobian, minor_det
from gsvindex.sigform import choose_linear_form

from problems import dk_problem
from reference_linalg import _ref_det, _ref_inverse, _ref_nullspace, _ref_rref

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


def _check_relations(M):
    """_column_relations and _kernel_rows on M against the references: the
    kernel rows are the RREF of the kernel, the independent columns the
    rest, and each column is the stated combination of independent ones."""
    n = len(M[0]) if M else 0
    independent, units, den = _column_relations(_integer_rows(M), n)
    ref_kernel, kernel_pivots = _ref_rref(_ref_nullspace(M, ncols=n))
    assert den > 0
    assert independent == [c for c in range(n) if c not in kernel_pivots]
    assert _kernel_rows(independent, units, den) == [tuple(r) for r in ref_kernel]
    for r, us in enumerate(units):
        for row in M:
            assert row[r] == sum((Fraction(u, den) * row[independent[j]]
                                  for j, u in us), Fraction(0))


def test_rref_nullspace_rank_match_rational_elimination():
    for _, M in _cases(7, 700):
        rows, pivots = _linalg.integer_eliminate(_integer_rows(M))
        assert ([[Fraction(x, row[p]) for x in row] for row, p in zip(rows, pivots)],
                pivots) == _ref_rref(M), M
        assert all(type(x) is int for row in rows for x in row)
        _check_relations(M)


def test_elimination_edge_shapes():
    assert _linalg.integer_eliminate([]) == ([], [])
    # no rows but three columns: every column is the empty combination
    assert _column_relations([], 3) == ([], [[], [], []], 1)
    assert _kernel_rows(*_column_relations([], 3)) == [
        tuple(F(int(i == j)) for j in range(3)) for i in range(3)]
    assert _column_relations([], 0) == ([], [], 1)
    zero = [[F(0)] * 4 for _ in range(3)]
    assert _linalg.integer_eliminate(_integer_rows(zero)) == ([], [])
    assert _column_relations(_integer_rows(zero), 4)[0] == []
    wide = [[F(1), F(2), F(0), F(3), F(-1)], [F(2), F(4), F(1), F(0), F(1, 2)]]
    tall = [list(col) for col in zip(*wide)]
    for M in (zero, wide, tall, [[F(5)]], [[F(0)]], [[F(1, 3), F(0)]]):
        _check_relations(M)
    assert _column_relations(_integer_rows(wide), 5)[0] == [3, 4]
    assert _column_relations(_integer_rows(tall), 2)[0] == [0, 1]


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
        rows, pivots = _linalg.integer_eliminate(_integer_rows(M))
        assert len(pivots) == len(_ref_rref(M)[1])

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
    P = _substitute_problem(dk_problem(6, 5, field="real"), [[3, -1], [2, -1]])
    norm = ensure_regular_sequence(P, seed=seed)
    Q = norm.problem
    DF = minor_det(jacobian(list(Q.f), 2), [0], [1])
    M = [list(row) for row in zip(*(_linalg.fractions(*col) for col
                                    in norm.algebra._product_columns(DF)))]
    C0 = _c0_algebra(norm)
    kernel, pivots = _ref_rref(_ref_nullspace(M))
    assert C0.kernel_basis == [tuple(row) for row in kernel]
    assert C0.complement_indices == tuple(
        c for c in range(len(M)) if c not in pivots)
    c1 = c_coefficient(jacobian(list(Q.X), 2), Q.C, 1)
    for fseed in (seed, None):
        l, _ = choose_linear_form(C0, c1, seed=fseed)
        G = C0.scaled_gram_matrix(l)
        s = signature_of(G)
        assert (s.p_plus, s.p_minus, s.rank) == _ref_signature(G) == (10, 10, 20)
