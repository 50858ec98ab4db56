import copy
import pickle
import random
from fractions import Fraction

import pytest

from gsvindex import Polynomial, PolyMatrix, jacobian, linear_substitute, minor_det
from gsvindex.poly import transform_vector_field

x = Polynomial.variable(2, 0)
y = Polynomial.variable(2, 1)


def random_poly(rng, nvars=2, max_deg=3, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        terms[mono] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return Polynomial(nvars, terms)


def test_canonical_form_drops_zero_coefficients():
    p = Fraction(1, 2) * x - Fraction(1, 2) * x
    assert p.is_zero and p.terms == {}
    assert p == Polynomial.zero(2)


def test_pickle_and_deepcopy_round_trips():
    p = x ** 3 * y - Fraction(7, 2) * y + Polynomial.constant(2, 5)
    for obj in (p, Polynomial.zero(3), Polynomial.one(1),
                PolyMatrix(2, 2, [p, x, Polynomial.zero(2), y])):
        for back in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert back == obj and type(back) is type(obj)
    back = pickle.loads(pickle.dumps(p))
    assert back.terms == p.terms and back.terms is not p.terms
    assert all(type(c) is type(p.terms[m]) for m, c in back.terms.items())
    with pytest.raises(AttributeError):
        back.nvars = 3


def test_equality_is_term_map_equality():
    assert x * y + y == y + x * y
    assert x != y
    assert Polynomial(2, {(1, 0): 1}) == x


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for _ in range(120):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def assert_clean(p, nvars):
    """What the public constructor guarantees: nonzero canonical coefficients
    (an int iff integral, else a Fraction with denominator > 1) on exponent
    tuples of length nvars with no negative entry."""
    assert p.nvars == nvars
    for mono, coeff in p.terms.items():
        assert type(mono) is tuple and len(mono) == nvars
        assert all(type(e) is int and e >= 0 for e in mono)
        assert coeff != 0
        assert type(coeff) is int or (type(coeff) is Fraction
                                      and coeff.denominator > 1)


def test_arithmetic_results_are_canonical():
    rng = random.Random(23)
    for _ in range(150):
        a, b = random_poly(rng), random_poly(rng)
        mono = (rng.randint(0, 2), rng.randint(0, 2))
        for result in (
            a + b, a - b, -a, a * b, a.scale(3), a.scale(Fraction(-2, 5)),
            2 * a, a * Polynomial.term(2, mono, 4),
            a * Polynomial.term(2, mono, Fraction(1, 3)),
            a.diff(0), a.diff(1),
        ):
            assert_clean(result, 2)
        assert_clean(a.extend(3), 3)
    # every term cancels
    p = x * x * y - Fraction(1, 3) * y + Polynomial.constant(2, 2)
    for result in (
        p - p, p + (-p), -(p - p), p * Polynomial.zero(2),
        (x + y) * (x - y) - x * x + y * y, p.scale(0),
        p * Polynomial.term(2, (1, 1), 0), Polynomial.constant(2, 5).diff(0),
        Polynomial.zero(2) * Polynomial.term(2, (1, 0), 3),
        Polynomial.constant(2, 0), Polynomial.constant(2, Fraction(0, 3)),
    ):
        assert_clean(result, 2)
        assert result.terms == {}
    assert_clean(Polynomial.zero(2).extend(3), 3)
    assert_clean((x * x - y * y).diff(0), 2)


def test_integral_results_of_fraction_operands_are_ints():
    from gsvindex import parse_poly
    from gsvindex.poly import LinearChange

    half = Fraction(1, 2)
    cases = [
        ((half * x) * (2 * y), {(1, 1): 1}),
        (half * x + half * x, {(1, 0): 1}),
        (half * x - Fraction(-1, 2) * x, {(1, 0): 1}),
        ((half * x ** 2).diff(0), {(1, 0): 1}),
        ((x + y).scale(Fraction(4, 2)), {(1, 0): 2, (0, 1): 2}),
        ((half * x).scale(Fraction(2, 1)), {(1, 0): 1}),
        ((x + y) * Polynomial.term(2, (0, 1), Fraction(3, 3)),
         {(1, 1): 1, (0, 2): 1}),
        ((Fraction(2, 3) * x) * Polynomial.term(2, (1, 0), Fraction(3, 2)),
         {(2, 0): 1}),
        (parse_poly("4/2*x + 6/3", ["x", "y"]), {(1, 0): 2, (0, 0): 2}),
        (parse_poly("(1/2*x)^2*4", ["x", "y"]), {(2, 0): 1}),
        # x y / 2 at (2x, x + y) is x^2 + x y; x^2 / 2 at (x, 2y) keeps its half
        ((half * x * y).substitute([2 * x, y + x]), {(1, 1): 1, (2, 0): 1}),
        ((half * x * x).substitute([x, 2 * y]), {(2, 0): half}),
        # the halves of two terms add up: x/2 + y/2 at (x, x) is x
        ((half * x + half * y).substitute([x, x]), {(1, 0): 1}),
        # z = A y with A = [[2, 0], [0, 1]]: (x/2)(A y) = x
        (LinearChange([[2, 0], [0, 1]]).polynomial(half * x), {(1, 0): 1}),
        (Polynomial(2, {(1, 0): Fraction(6, 3), (0, 1): "5/5"}),
         {(1, 0): 2, (0, 1): 1}),
        (Polynomial.constant(2, Fraction(8, 4)), {(0, 0): 2}),
        (Polynomial.one(2), {(0, 0): 1}),
        (Polynomial.variable(2, 1), {(0, 1): 1}),
        (Polynomial.term(2, (1, 1), Fraction(-3, 3)), {(1, 1): -1}),
    ]
    for p, terms in cases:
        assert_clean(p, 2)
        assert p.terms == terms
        assert all(type(c) is type(terms[m]) for m, c in p.terms.items())
    # a LinearChange whose inverse has Fraction entries
    X = transform_vector_field([x, y], [[2, 1], [1, 1]])
    assert X == [x, y]
    for comp in X:
        assert_clean(comp, 2)
    assert Polynomial.zero(2).constant_term == 0
    assert type(Polynomial.zero(2).constant_term) is int
    assert type((x + Polynomial.constant(2, 3)).constant_term) is int
    assert hash(half * x * 2) == hash(x)


def test_float_coefficients_are_refused():
    for make in (lambda: Polynomial.constant(2, 0.5), lambda: x.scale(2.0),
                 lambda: x * Polynomial.term(2, (1, 0), 0.25), lambda: x * 1.5,
                 lambda: Polynomial(2, {(1, 0): 1.0})):
        with pytest.raises(TypeError):
            make()


def test_constructors_check_monomials_and_variable_counts():
    for mono in ((1,), (1, 0, 0), (-1, 0), (0, -2)):
        with pytest.raises(ValueError):
            Polynomial.term(2, mono, 1)
    # so do the named constructors: at least one variable, an index in range
    for make in (lambda: Polynomial.zero(0), lambda: Polynomial.one(0),
                 lambda: Polynomial.constant(0, 1), lambda: Polynomial.variable(2, 2),
                 lambda: Polynomial.variable(2, -1)):
        with pytest.raises(ValueError):
            make()


def test_derivative_is_a_derivation():
    rng = random.Random(11)
    for _ in range(120):
        a, b = random_poly(rng), random_poly(rng)
        for i in range(2):
            assert (a * b).diff(i) == a.diff(i) * b + a * b.diff(i)


def test_jacobian_plane_curve():
    f = x * x * y + y ** 3
    J = jacobian([f], 2)
    assert J.rows == 1 and J.cols == 2
    assert J.entry(0, 0) == 2 * x * y
    assert J.entry(0, 1) == x * x + 3 * y * y


def test_jacobian_of_coordinate_function():
    J = jacobian([y], 2)
    assert J.entry(0, 0).is_zero and J.entry(0, 1) == Polynomial.one(2)


def test_jacobian_space_curve():
    u, v, w = (Polynomial.variable(3, i) for i in range(3))
    J = jacobian([u * u + v * v + w * w, u * v], 3)
    assert J.row(0) == (2 * u, 2 * v, 2 * w)
    assert J.row(1) == (v, u, Polynomial.zero(3))


def test_minor_det_examples():
    u, v, w = (Polynomial.variable(3, i) for i in range(3))
    J = jacobian([u * u + v * v + w * w, u * v], 3)
    assert minor_det(J, [0, 1], [0, 1]) == 2 * u * u - 2 * v * v
    assert minor_det(J, [], []) == Polynomial.one(3)
    J2 = jacobian([x * x * y + y ** 3], 2)
    assert minor_det(J2, [0], [1]) == x * x + 3 * y * y


def test_minor_det_index_errors():
    J = jacobian([x], 2)
    with pytest.raises(IndexError):
        minor_det(J, [0], [2])
    with pytest.raises(IndexError):
        minor_det(J, [1], [0])


def _cofactor(rows):
    if len(rows) == 1:
        return rows[0][0]
    n = rows[0][0].nvars
    acc = Polynomial.zero(n)
    for j, e in enumerate(rows[0]):
        sub = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = e * _cofactor(sub)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def test_minor_det_matches_cofactor_expansion():
    rng = random.Random(3)
    for _ in range(25):
        entries = [random_poly(rng, max_deg=2, max_terms=3) for _ in range(9)]
        M = PolyMatrix(3, 3, entries)
        expected = _cofactor([list(M.row(i)) for i in range(3)])
        assert minor_det(M, [0, 1, 2], [0, 1, 2]) == expected


def test_minor_det_on_unsorted_and_scattered_selections():
    # k = 0..4 rows and columns of a 5 x 6 matrix with about a third of its
    # entries 0, selected in any order: the submatrix is taken in selection
    # order, so swapping two selected columns negates the minor
    rng = random.Random(11)
    zero = Polynomial.zero(2)
    fixed = [([4, 1, 3], [5, 0, 2]), ([2, 0], [3, 1]), ([0, 2, 4, 1], [1, 3, 5, 0])]
    for k in range(5):
        picks = [(rng.sample(range(5), k), rng.sample(range(6), k)) for _ in range(8)]
        for rows, cols in picks + [s for s in fixed if len(s[0]) == k]:
            M = PolyMatrix(5, 6, [zero if rng.random() < 0.3 else
                                  random_poly(rng, max_deg=2, max_terms=3)
                                  for _ in range(30)])
            det = minor_det(M, rows, cols)
            sub = [[M.entry(r, c) for c in cols] for r in rows]
            assert det == (_cofactor(sub) if k else Polynomial.one(2))
            if k >= 2:
                i, j = rng.sample(range(k), 2)
                swapped = list(cols)
                swapped[i], swapped[j] = cols[j], cols[i]
                assert minor_det(M, rows, swapped) == -det


def test_minor_det_of_integer_matrix_divides_exactly():
    # integer coefficients, some past 1 (3x + 2y): the expansion multiplies,
    # adds and never divides, so the determinant stays in ints
    one = Polynomial.one(2)
    rows = [[3 * x + 2 * y, x - y, 5 * one],
            [2 * x * y, 7 * y + one, x],
            [y * y - x, 4 * one, 3 * x * y + 2 * x]]
    M = PolyMatrix(3, 3, [e for row in rows for e in row])
    det = minor_det(M, range(3), range(3))
    assert det == _cofactor(rows)
    assert det.terms and all(type(c) is int for c in det.terms.values())


def test_linear_substitute_examples():
    assert linear_substitute(x, [[1, 0], [0, 1]]) == x
    assert linear_substitute(x * x, [[0, 1], [1, 0]]) == y * y
    # p(x+y, y) for p = x + y
    assert linear_substitute(x + y, [[1, 1], [0, 1]]) == x + 2 * y


def test_linear_substitute_rejects_singular():
    with pytest.raises(ValueError):
        linear_substitute(x, [[1, 1], [1, 1]])


def test_permutation_of_detects_exactly_the_permutation_matrices():
    from gsvindex.poly import permutation_of

    assert permutation_of([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == (1, 2, 0)
    assert permutation_of([[1, 0], [0, 1]]) == (0, 1)
    for A in ([[1, 1], [0, 0]], [[0, 2], [1, 0]], [[1, 0], [1, 0]],
              [[-1, 0], [0, 1]], [[1, 0], [0, 1], [0, 0]], [[0, 0], [0, 0]]):
        assert permutation_of(A) is None
    # a permutation relabels exponents and keeps the order of the terms
    p = x ** 3 + 2 * x * y - y ** 2
    q = linear_substitute(p, [[0, 1], [1, 0]])
    assert q == y ** 3 + 2 * x * y - x ** 2
    assert list(q.terms) == [(0, 3), (1, 1), (2, 0)]


def random_unimodular_int(rng, n=2):
    L = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    U = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            L[i][j] = Fraction(rng.randint(-2, 2))
            U[j][i] = Fraction(rng.randint(-2, 2))
    return [
        [sum(L[i][k] * U[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def test_linear_substitute_roundtrip():
    from gsvindex import _linalg

    rng = random.Random(19)
    for _ in range(40):
        p = random_poly(rng)
        A = random_unimodular_int(rng)
        Ainv = _linalg.inverse(A)
        assert linear_substitute(linear_substitute(p, A), Ainv) == p


def test_transform_vector_field_examples():
    ident = [[1, 0], [0, 1]]
    swap = [[0, 1], [1, 0]]
    assert transform_vector_field([x, y], ident) == [x, y]
    # Euler field is invariant under any linear change
    rng = random.Random(23)
    for _ in range(20):
        A = random_unimodular_int(rng)
        assert transform_vector_field([x, y], A) == [x, y]
    assert transform_vector_field([y, Polynomial.zero(2)], swap) == [
        Polynomial.zero(2),
        x,
    ]


def test_transform_vector_field_roundtrip():
    from gsvindex import _linalg

    rng = random.Random(29)
    for _ in range(30):
        X = [random_poly(rng), random_poly(rng)]
        A = random_unimodular_int(rng)
        back = transform_vector_field(
            transform_vector_field(X, A), _linalg.inverse(A)
        )
        assert back == X


def test_render_parse_roundtrip():
    from gsvindex import parse_poly

    rng = random.Random(31)
    for _ in range(60):
        p = random_poly(rng)
        assert parse_poly(p.render(), ["x", "y"]) == p


def test_render_parse_roundtrip_long_coefficients():
    # past the interpreter's smallest digit limit (640, Python 3.11+) and
    # within the parser's bound on a numeral
    from gsvindex import parse_poly

    big = (10 ** 2000 - 1) // 9 * 7
    p = Polynomial(2, {(1, 0): big, (0, 1): Fraction(-(10 ** 1500) - 1, 3),
                       (0, 0): Fraction(2 * big, 2)})
    assert type(p.terms[(1, 0)]) is int and type(p.terms[(0, 0)]) is int
    q = parse_poly(p.render(), ["x", "y"])
    assert q == p
    assert_clean(q, 2)


def _prod(polys):
    out = Polynomial.one(polys[0].nvars)
    for p in polys:
        out = out * p
    return out


def test_minor_det_vandermonde_5x5():
    one = Polynomial.one(2)
    nodes = [Polynomial.zero(2), x, y, x + y, x - 2 * y + one]
    M = PolyMatrix(5, 5, [v ** j for v in nodes for j in range(5)])
    expected = _prod([nodes[j] - nodes[i]
                      for i in range(5) for j in range(i + 1, 5)])
    assert minor_det(M, range(5), range(5)) == expected


def test_minor_det_permuted_triangular_6x6_needs_row_swaps():
    # upper triangular U with polynomial diagonal, rows cycled so that the
    # first pivot (and each later one) is zero until rows are swapped
    rng = random.Random(5)
    one = Polynomial.one(2)
    diag = [x + one, y, x * y, x - y, one + y * y, 2 * x]
    U = [[diag[i] if i == j else
          (random_poly(rng, max_deg=2) if j > i else Polynomial.zero(2))
          for j in range(6)] for i in range(6)]
    cycled = U[1:] + U[:1]  # a 6-cycle of rows: sign -1
    M = PolyMatrix(6, 6, [e for row in cycled for e in row])
    assert M.entry(0, 0).is_zero
    assert minor_det(M, range(6), range(6)) == -_prod(diag)
