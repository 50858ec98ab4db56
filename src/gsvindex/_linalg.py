"""Exact rational linear algebra on small dense matrices, by one
fraction-free integer elimination.

Matrices are lists of rows of Fractions (ints are accepted too), and
results are Fractions, but no elimination loop does Fraction arithmetic:
each row is scaled to integers once, by the lcm of its denominators, and
Gauss-Jordan elimination runs in Python ints (Bareiss 1968; Geddes,
Czapor, Labahn, Algorithms for Computer Algebra, ch. 9). Everything is
deterministic: the pivot of column c is the first row, at or below the
current one, whose entry is nonzero, so pivot columns and row swaps are
those of elimination over the rationals.

Eliminating column c with pivot row r and pivot P replaces every other row
i whose entry f in column c is nonzero by (P row_i - f row_r) // last_i,
where last_i is the pivot that was current when row i was last updated (1
at the start). A row with a zero in column c is left alone: the P/prev
factor that Bareiss applies to it is kept lazily in last_i, so the Bareiss
row is always the stored row times (current pivot / last_i). A Bareiss row
holds minors of the scaled matrix, so it is integral and every division is
exact; a pivot row is brought up to date (`refresh`) before it is used.
sigform.signature_of runs the same scaling and steps on a symmetric matrix;
the algebra layer hands its int rows to integer_eliminate directly.
"""

from fractions import Fraction
from math import gcd, lcm


def common_denominator(entries):
    return lcm(*(x.denominator for x in entries))


def integer_row(row, den):
    """den * row as ints, for den a multiple of every denominator in row."""
    return [x.numerator * (den // x.denominator) for x in row]


def fractions(ints, den, zero=Fraction(0)):
    """ints / den as a list of Fractions, every zero the same object."""
    return [Fraction(x, den) if x else zero for x in ints]


def reduced(v, den):
    """v / den as (ints, den), with the gcd of den and v divided out."""
    g = gcd(den, *v)
    return ([x // g for x in v], den // g) if g != 1 else (v, den)


def refresh(row, prev, last):
    """The stored row brought up to the current pivot prev: row * prev / last."""
    return row if prev == last else [x * prev // last for x in row]


def bareiss_step(row, f, pivot_row, p, last):
    """(p * row - f * pivot_row) / last, an exact division."""
    return [(p * x - f * y) // last for x, y in zip(row, pivot_row)]


def _eliminate(M):
    """Fraction-free Gauss-Jordan elimination of the rows of M.

    Returns (rows, pivots, sign, den): those of integer_eliminate on the
    rows scaled to integers, and den, the product of the row scales. For M
    square and invertible, the last pivot is det(M) * den * sign.
    """
    rows, den = [], 1
    for row in M:
        s = common_denominator(row)
        rows.append(integer_row(row, s))
        den *= s
    return (*integer_eliminate(rows), den)


def integer_eliminate(rows):
    """Gauss-Jordan elimination of a list of int rows, in place.

    Returns (rows, pivots, sign): the nonzero rows, row k a nonzero
    multiple of RREF row k with pivot column pivots[k], and the sign of
    the row swaps.
    """
    lasts = [1] * len(rows)
    pivots, sign, prev = [], 1, 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            lasts[r], lasts[piv] = lasts[piv], lasts[r]
            sign = -sign
        prow = rows[r] = refresh(rows[r], prev, lasts[r])
        p = prev = lasts[r] = prow[c]
        for i, row in enumerate(rows):
            if row[c] and i != r:
                rows[i] = bareiss_step(row, row[c], prow, p, lasts[i])
                lasts[i] = p
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return rows[:len(pivots)], pivots, sign


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
    rows, pivots, sign, den = _eliminate(M)
    if len(pivots) < len(M):
        return Fraction(0)
    return Fraction(sign * rows[-1][-1], den) if M else Fraction(1)


def rref(M):
    """Reduced row echelon form. Returns (rows, pivot_columns)."""
    rows, pivots, _, _ = _eliminate(M)
    return [fractions(row, row[c]) for row, c in zip(rows, pivots)], pivots


def rank(M):
    return len(_eliminate(M)[1])


def integer_kernel(rows, pivots, n):
    """Basis of the right kernel of the rows and pivots integer_eliminate
    returns for a matrix of n columns, one (ints, s) per free column f, in
    order: the RREF kernel vector with 1 at f is ints / s, for s > 0 the
    lcm of the pivots it divides by."""
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        used = [(row, p) for row, p in zip(rows, pivots) if row[free]]
        s = lcm(*(row[p] for row, p in used))
        v = [0] * n
        v[free] = s
        for row, p in used:
            v[p] = -row[free] * (s // row[p])
        basis.append((v, s))
    return basis


def nullspace(M, ncols=None):
    """Basis of the right kernel, one vector per free column, RREF-derived."""
    if not M:
        return identity(ncols or 0)
    rows, pivots, _, _ = _eliminate(M)
    return [fractions(v, s) for v, s in integer_kernel(rows, pivots, len(M[0]))]


def solve(M, b):
    """One particular solution of M x = b (free variables 0), or None."""
    if not M:
        return [] if all(x == 0 for x in b) else None
    n = len(M[0])
    rows, pivots, _, _ = _eliminate([list(row) + [bv] for row, bv in zip(M, b)])
    if pivots and pivots[-1] == n:
        return None  # pivot in the augmented column: inconsistent
    x = [Fraction(0)] * n
    for row, p in zip(rows, pivots):
        x[p] = Fraction(row[n], row[p])
    return x


def inverse(M):
    n = len(M)
    eye = identity(n)
    rows, pivots, _, _ = _eliminate([list(row) + eye[i] for i, row in enumerate(M)])
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [fractions(row[n:], row[i]) for i, row in enumerate(rows)]
