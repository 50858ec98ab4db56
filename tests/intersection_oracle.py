"""Independent oracle for the complex GSV index of a plane curve.

Deliberately self-contained, like graded_oracle: polynomials are term dicts
{(i, j): c} in x, y with int or Fraction coefficients, and nothing here
shares code with the library it cross-checks.

The local intersection number I(P, Q) at 0 is computed by the algorithm in
the proof that it is unique (Fulton, Algebraic Curves, 3.3): I(P, Q) = 0 if
P or Q does not vanish at 0; if y divides P, I(P, Q) = ord_x Q(x, 0) +
I(P / y, Q); otherwise, with r = deg P(x, 0) <= s = deg Q(x, 0), Q is
replaced by lc(P(x, 0)) Q - lc(Q(x, 0)) x^(s-r) P, which keeps I and lowers
s. A nonzero constant factor does not change I, so every polynomial is kept
primitive over the integers, which keeps its coefficients short. P and Q
share a component exactly when I is infinite; the loop then meets a zero
remainder, or its sum passes deg P * deg Q, which bounds a finite I by
Bezout's theorem.

For a field X tangent to a reduced plane curve f = 0 and a linear form l,

    GSV(X) = 1 - mu + I(f, X(l)) - I(f, l),    mu = I(f_x, f_y),

whenever both intersection numbers are finite: each branch gamma_i with
X o gamma_i = a_i gamma_i' adds ord a_i - 1 to chi(F) = 1 - mu, and
ord(X(l) o gamma_i) = ord a_i + ord(l o gamma_i) - 1. The formula needs no
deformation hypothesis.
"""

from fractions import Fraction
from math import gcd, lcm

# l = a x + b y, tried in this order until both numbers are finite
LINEAR_FORMS = ((1, 0), (0, 1), (1, 1), (2, -3), (5, 7))


def _add(p, q, a, b, shift=0):
    """a p + b x^shift q."""
    out = {m: a * c for m, c in p.items()}
    for (i, j), c in q.items():
        out[i + shift, j] = out.get((i + shift, j), 0) + b * c
    return {m: c for m, c in out.items() if c}


def _primitive(p):
    """p over the gcd of its int coefficients."""
    g = gcd(*p.values())
    return {m: c // g for m, c in p.items()} if g > 1 else p


def _integral(p):
    """The primitive int multiple of p, its zero terms dropped."""
    den = lcm(*(Fraction(c).denominator for c in p.values()))
    return _primitive({m: int(c * den) for m, c in p.items() if c})


def _restriction(p):
    """P(x, 0) as {degree: coefficient}."""
    return {i: c for (i, j), c in p.items() if j == 0}


def _total_degree(p):
    return max(i + j for i, j in p)


def intersection_number(P, Q):
    """I(P, Q) at the origin, or None when P and Q share a component."""
    P, Q = _integral(P), _integral(Q)
    if (0, 0) in P or (0, 0) in Q:
        return 0
    if not P or not Q:
        return None
    bound, total = _total_degree(P) * _total_degree(Q), 0
    while (0, 0) not in P and (0, 0) not in Q:
        p, q = _restriction(P), _restriction(Q)
        if not p and not q:
            return None  # y divides both
        if not q:
            P, Q, p, q = Q, P, q, p
        if not p:  # P = y P1: add I(y, Q), the order of Q(x, 0)
            total += min(q)
            if total > bound:
                return None
            P = {(i, j - 1): c for (i, j), c in P.items()}
            continue
        r, s = max(p), max(q)
        if r > s:
            P, Q, p, q, r, s = Q, P, q, p, s, r
        g = gcd(p[r], q[s])
        Q = _primitive(_add(Q, P, p[r] // g, -q[s] // g, s - r))
        if not Q:
            return None
    return total


def _derivative(p, k):
    out = {}
    for (i, j), c in p.items():
        e = (i, j)[k]
        if e:
            out[(i - 1, j) if k == 0 else (i, j - 1)] = c * e
    return out


def gsv_index(f, X):
    """The complex GSV index of the tangent field X = (X_1, X_2) on f = 0,
    by the formula of the module docstring for the first linear form in
    LINEAR_FORMS that gives finite numbers."""
    mu = intersection_number(_derivative(f, 0), _derivative(f, 1))
    if mu is None:
        raise ValueError("f has a non-isolated singularity")
    for a, b in LINEAR_FORMS:
        ell = {m: c for m, c in (((1, 0), a), ((0, 1), b)) if c}
        i_field = intersection_number(f, _add(X[0], X[1], a, b))
        i_form = intersection_number(f, ell)
        if i_field is not None and i_form is not None:
            return 1 - mu + i_field - i_form
    raise ValueError("every linear form meets a component of f or X(l) = 0")
