"""Pure-Fraction linear algebra: references for the integer elimination
kernel and the algebra layer built on it.

These share no code with gsvindex._linalg: every routine is textbook
Gauss-Jordan (or Gaussian) elimination over the rationals, so a test that
compares gsvindex against them does not compare the kernel with itself.
"""

from fractions import Fraction


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
