"""Exact rational linear algebra on small dense matrices.

Matrices are lists of lists of Fraction. Everything is deterministic:
pivots are always the first usable entry in index order.
"""

from fractions import Fraction


def copy_matrix(M):
    return [[Fraction(x) for x in row] for row in M]


def identity(n):
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def matmul(A, B):
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    return [
        [sum((A[i][t] * B[t][j] for t in range(k)), Fraction(0)) for j in range(m)]
        for i in range(n)
    ]


def mat_vec(A, v):
    nonzero = [j for j, x in enumerate(v) if x]
    return [sum((row[j] * v[j] for j in nonzero), Fraction(0)) for row in A]


def det(M):
    n = len(M)
    a = copy_matrix(M)
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


def rref(M):
    """Reduced row echelon form. Returns (rows, pivot_columns)."""
    if not M:
        return [], []
    a = copy_matrix(M)
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


def rank(M):
    return len(rref(M)[1])


def nullspace(M, ncols=None):
    """Basis of the right kernel, one vector per free column, RREF-derived."""
    if not M:
        n = ncols or 0
        return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    n = len(M[0])
    rows, pivots = rref(M)
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


def solve(M, b):
    """One particular solution of M x = b (free variables 0), or None."""
    n_rows = len(M)
    if n_rows == 0:
        return [] if all(x == 0 for x in b) else None
    n = len(M[0])
    aug = [list(row) + [bv] for row, bv in zip(M, b)]
    rows, pivots = rref(aug)
    x = [Fraction(0)] * n
    for row, p in zip(rows, pivots):
        if p == n:
            return None  # pivot in the augmented column: inconsistent
        x[p] = row[n]
    return x


def inverse(M):
    n = len(M)
    eye = identity(n)
    aug = [list(map(Fraction, row)) + eye[i] for i, row in enumerate(M)]
    rows, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in rows[:n]]
