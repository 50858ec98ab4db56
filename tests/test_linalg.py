"""The integer elimination kernel against the rational elimination it replaced.

The references below are the Fraction versions of rref, nullspace, det,
solve, inverse and signature_of that ran before the kernel was fraction
free; every result must be identical, not just equivalent.
"""

import random
from fractions import Fraction

import pytest

from gsvindex import _linalg, signature_of
from gsvindex.index import (
    _c0_algebra,
    _substitute_problem,
    c_coefficient,
    ensure_regular_sequence,
)
from gsvindex.poly import jacobian, minor_det
from gsvindex.sigform import choose_linear_form, gram_of_form

from problems import dk_problem

F = Fraction


def _ref_rref(M):
    if not M:
        return [], []
    a = [[Fraction(x) for x in row] for row in M]
    ncols = len(a[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a[:r], pivots


def _ref_nullspace(M, ncols=None):
    if not M:
        n = ncols or 0
        return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    n = len(M[0])
    rows, pivots = _ref_rref(M)
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for row, p in zip(rows, pivots):
            v[p] = -row[free]
        basis.append(v)
    return basis


def _ref_det(M):
    n = len(M)
    a = [[Fraction(x) for x in row] for row in M]
    sign = 1
    result = Fraction(1)
    for i in range(n):
        piv = next((r for r in range(i, n) if a[r][i] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != i:
            a[i], a[piv] = a[piv], a[i]
            sign = -sign
        result *= a[i][i]
        inv = 1 / a[i][i]
        for r in range(i + 1, n):
            if a[r][i]:
                f = a[r][i] * inv
                for c in range(i, n):
                    a[r][c] -= f * a[i][c]
    return result * sign


def _ref_solve(M, b):
    n = len(M[0])
    rows, pivots = _ref_rref([list(row) + [bv] for row, bv in zip(M, b)])
    x = [Fraction(0)] * n
    for row, p in zip(rows, pivots):
        if p == n:
            return None
        x[p] = row[n]
    return x


def _ref_inverse(M):
    n = len(M)
    aug = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(M)]
    rows, pivots = _ref_rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in rows[:n]]


def _ref_signature(form):
    """Upper-triangle congruence diagonalization over the rationals."""
    d = form.dim
    a = [[None] * i + [Fraction(x) for x in row[i:]]
         for i, row in enumerate(form.matrix)]

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


def test_rref_nullspace_rank_match_rational_elimination():
    for _, M in _cases(7, 700):
        rows, pivots = _linalg.rref(M)
        assert (rows, pivots) == _ref_rref(M), M
        assert all(type(x) is Fraction for row in rows for x in row)
        assert _linalg.nullspace(M) == _ref_nullspace(M), M
        assert _linalg.rank(M) == len(pivots)
    assert _linalg.rref([]) == ([], [])
    assert _linalg.nullspace([], ncols=3) == _ref_nullspace([], ncols=3)


def test_det_inverse_solve_match_rational_elimination():
    singular = inconsistent = 0
    for rng, M in _cases(11, 500):
        n = min(len(M), len(M[0]))
        S = [row[:n] for row in M[:n]]
        assert _linalg.det(S) == _ref_det(S), S
        try:
            expected = _ref_inverse(S)
        except ValueError:
            singular += 1
            with pytest.raises(ValueError):
                _linalg.inverse(S)
        else:
            assert _linalg.inverse(S) == expected, S
        x0 = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in M[0]]
        for b in (_linalg.mat_vec(M, x0),
                  [F(rng.randint(-5, 5)) for _ in M]):
            got = _linalg.solve(M, b)
            assert got == _ref_solve(M, b), (M, b)
            inconsistent += got is None
    assert _linalg.det([]) == 1 and _linalg.inverse([]) == []
    assert singular >= 40 and inconsistent >= 40


def test_signature_and_kernel_on_the_mixed_dk65_workload():
    # plane-mixed's largest input at seed 1: dk(6,5) after the shear
    # [[3, -1], [2, -1]], with the functional drawn from seed 2071614969
    seed = 2071614969
    P = _substitute_problem(dk_problem(6, 5, field="real"), [[3, -1], [2, -1]])
    norm = ensure_regular_sequence(P, seed=seed)
    Q = norm.problem
    DF = minor_det(jacobian(list(Q.f), 2), [0], [1])
    M = norm.algebra.mult_matrix(DF)
    assert _linalg.rref(M) == _ref_rref(M)
    assert _linalg.nullspace(M) == _ref_nullspace(M)
    C0 = _c0_algebra(norm)
    c1 = c_coefficient(jacobian(list(Q.X), 2), Q.C, 1)
    for fseed in (seed, None):
        l, _ = choose_linear_form(C0, c1, seed=fseed)
        G = gram_of_form(C0, l)
        s = signature_of(G)
        assert (s.p_plus, s.p_minus, s.rank) == _ref_signature(G) == (10, 10, 20)
