"""Exact linear algebra by one fraction-free integer elimination.

forward_eliminate runs forward Bareiss elimination on int rows (Bareiss,
Math. Comp. 22, 1968; Geddes, Czapor, Labahn, Algorithms for Computer
Algebra, ch. 9). The pivot of column c is the first row, at or below the
current one, whose entry is nonzero, so pivot columns and row swaps are
those of elimination over the rationals. back_substitute then solves for
one right-hand column of the echelon rows in ints: for d the last pivot, d
times the rational solution is integral by Cramer's rule, so each division
is exact. The algebra layer hands int rows directly; inverse, the one
rational-matrix routine (coordinate changes), scales each row of ints and
Fractions to integers once, by the lcm of its denominators. Every other
rational vector travels as (ints, den), int numerators over one positive
denominator; fractions turns one into Fractions where the API returns it.

Eliminating column c with pivot row r and pivot P replaces every row i
below r whose entry f in column c is nonzero by (P row_i - f row_r) //
last_i, where last_i is the pivot that was current when row i was last
updated (1 at the start). A row with a zero in column c is left alone: the
P/prev factor that Bareiss applies to it is kept lazily in last_i, so the
Bareiss row is always the stored row times (current pivot / last_i). A
Bareiss row holds minors of the scaled matrix, so it is integral and every
division is exact; a pivot row is brought up to date (`refresh`) when it
is chosen, and is final from then on. sigform.signature_of runs the same
scaling and steps on a symmetric matrix.
"""

from bisect import bisect_right
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


def forward_eliminate(rows):
    """Forward Bareiss elimination of a list of int rows, in place.

    Returns (rows, pivots, d): the echelon rows, row k a Bareiss row whose
    first nonzero entry is in column pivots[k], and d the last pivot (1
    when there is none), the determinant of the pivot rows and columns.
    """
    lasts = [1] * len(rows)
    pivots, prev = [], 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            lasts[r], lasts[piv] = lasts[piv], lasts[r]
        prow = rows[r] = refresh(rows[r], prev, lasts[r])
        p = prev = prow[c]
        for i in range(r + 1, len(rows)):
            row = rows[i]
            if row[c]:
                rows[i] = bareiss_step(row, row[c], prow, p, lasts[i])
                lasts[i] = p
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return rows[:len(pivots)], pivots, prev


def back_substitute(rows, pivots, d, col):
    """x with sum of x[k] * column pivots[k] = d * column col, on the
    echelon rows of forward_eliminate with last pivot d; x[k] = 0 when
    pivots[k] > col. x is d times the rational solution."""
    x = [0] * len(pivots)
    done = []  # (pivot column, x) of the solved coordinates that are nonzero
    for k in reversed(range(bisect_right(pivots, col))):
        row = rows[k]
        s = d * row[col] - sum(row[p] * v for p, v in done)
        if s:
            x[k] = v = s // row[pivots[k]]
            done.append((pivots[k], v))
    return x


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(A, B):
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    return [
        [sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)]
        for i in range(n)
    ]


def inverse(M):
    """M^-1, as Fractions, for a square matrix of ints and Fractions; raises
    ValueError if M is singular."""
    n = len(M)
    eye = identity(n)
    rows, pivots, d = forward_eliminate([integer_row(list(row) + eye[i],
                                                     common_denominator(row))
                                         for i, row in enumerate(M)])
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    columns = [back_substitute(rows, pivots, d, n + j) for j in range(n)]
    return [fractions(row, d) for row in zip(*columns)]
