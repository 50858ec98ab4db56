import random
from fractions import Fraction

import pytest

from gsvindex import (
    GramForm,
    Polynomial,
    annihilator_quotient,
    build_algebra,
    choose_linear_form,
    gram_of_form,
    signature_of,
)
from gsvindex.errors import C1ClassZeroError

from reference_linalg import _ref_det

x = Polynomial.variable(2, 0)
y = Polynomial.variable(2, 1)
F = Fraction


def gram(rows):
    return GramForm(len(rows), tuple(tuple(F(v) for v in r) for r in rows))


def test_signature_examples():
    s = signature_of(gram([[1]]))
    assert (s.p_plus, s.p_minus, s.rank, s.signature) == (1, 0, 1, 1)
    s = signature_of(gram([[0, 1], [1, 0]]))
    assert (s.p_plus, s.p_minus, s.rank, s.signature) == (1, 1, 2, 0)
    s = signature_of(gram([[2, 0, 0], [0, -3, 0], [0, 0, 5]]))
    assert (s.p_plus, s.p_minus, s.rank) == (2, 1, 3)


def test_signature_rejects_asymmetric():
    with pytest.raises(ValueError):
        gram([[0, 1], [2, 0]])


def random_symmetric(rng, d):
    m = [[F(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1):
            v = F(rng.randint(-4, 4), rng.randint(1, 3))
            m[i][j] = m[j][i] = v
    return m


def random_invertible(rng, d):
    while True:
        S = [[F(rng.randint(-3, 3)) for _ in range(d)] for _ in range(d)]
        if _ref_det(S) != 0:
            return S


def test_sylvester_on_random_diagonals():
    rng = random.Random(3)
    for _ in range(100):
        d = rng.randint(1, 6)
        diag = [F(rng.randint(-5, 5)) for _ in range(d)]
        m = [[diag[i] if i == j else F(0) for j in range(d)] for i in range(d)]
        s = signature_of(gram(m))
        assert s.p_plus == sum(1 for v in diag if v > 0)
        assert s.p_minus == sum(1 for v in diag if v < 0)


def test_congruence_invariance():
    from gsvindex import _linalg

    rng = random.Random(5)
    for _ in range(100):
        d = rng.randint(1, 5)
        G = random_symmetric(rng, d)
        S = random_invertible(rng, d)
        St = [[S[j][i] for j in range(d)] for i in range(d)]
        H = _linalg.matmul(St, _linalg.matmul(G, S))
        assert signature_of(gram(H)) == signature_of(gram(G))


def _reference_signature(form):
    """Full-matrix congruence diagonalization (rows, then columns, at every
    step), kept as an independent reference for signature_of."""
    d = form.dim
    a = [[Fraction(x) for x in row] for row in form.matrix]
    plus = minus = 0
    for k in range(d):
        piv = next((j for j in range(k, d) if a[j][j] != 0), None)
        if piv is None:
            pair = next(
                (
                    (i, j)
                    for i in range(k, d)
                    for j in range(i + 1, d)
                    if a[i][j] != 0
                ),
                None,
            )
            if pair is None:
                break
            i, j = pair
            for t in range(d):
                a[i][t] += a[j][t]
            for t in range(d):
                a[t][i] += a[t][j]
            piv = i
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            for t in range(d):
                a[t][k], a[t][piv] = a[t][piv], a[t][k]
        p = a[k][k]
        if p > 0:
            plus += 1
        else:
            minus += 1
        for r in range(k + 1, d):
            if a[r][k]:
                f = a[r][k] / p
                for t in range(d):
                    a[r][t] -= f * a[k][t]
                for t in range(d):
                    a[t][r] -= f * a[t][k]
    return plus, minus, plus + minus


def _sparse_symmetric(rng, d, density, zero_diagonal):
    m = [[F(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1):
            if (i != j or not zero_diagonal) and rng.random() < density:
                m[i][j] = m[j][i] = F(rng.randint(-5, 5), rng.randint(1, 4))
    return m


def _low_rank_symmetric(rng, d, density):
    """B^T D B with B of r < d rows, D = diag(+-1): rank at most r."""
    r = rng.randint(0, d - 1)
    B = [[rng.randint(-3, 3) if rng.random() < density else 0
          for _ in range(d)] for _ in range(r)]
    D = [rng.choice((-1, 1)) for _ in range(r)]
    return [[F(sum(D[k] * B[k][i] * B[k][j] for k in range(r)))
             for j in range(d)] for i in range(d)]


def test_signature_matches_full_matrix_reference():
    rng = random.Random(2024)
    kinds = {"dense": 0, "zero diagonal": 0, "low rank": 0}
    for trial in range(1200):
        d = rng.randint(1, rng.choice((6, 12)))
        density = (0.15, 0.4, 0.7, 1.0)[trial % 4]
        kind = ("dense", "zero diagonal", "low rank")[trial % 3]
        if kind == "low rank":
            m = _low_rank_symmetric(rng, d, density)
        else:
            m = _sparse_symmetric(rng, d, density, kind == "zero diagonal")
        form = gram(m)
        s = signature_of(form)
        assert (s.p_plus, s.p_minus, s.rank) == _reference_signature(form), m
        if kind == "low rank":
            assert s.rank < d
        kinds[kind] += 1
    assert min(kinds.values()) >= 400


def test_choose_linear_form_default_policy():
    A = build_algebra([y, x * x])
    C = annihilator_quotient(A, Polynomial.one(2))
    l, value = choose_linear_form(C, 2 * x)
    assert value == 1 and l == (F(0), F(1, 2))

    A1 = build_algebra([x, y])
    C1 = annihilator_quotient(A1, Polynomial.one(2))
    l, value = choose_linear_form(C1, Polynomial.constant(2, 5))
    assert l == (F(1, 5),) and value == 1


def test_choose_linear_form_seeded_positivity():
    A = build_algebra([y, x ** 3])
    C = annihilator_quotient(A, Polynomial.one(2))
    for seed in range(40):
        l, value = choose_linear_form(C, x + 2 * x * x, seed=seed)
        assert value > 0


def test_choose_linear_form_zero_class():
    A = build_algebra([x, y])
    C = annihilator_quotient(A, Polynomial.one(2))
    with pytest.raises(C1ClassZeroError):
        choose_linear_form(C, x)


def test_gram_examples():
    A1 = build_algebra([x, y])
    C1 = annihilator_quotient(A1, Polynomial.one(2))
    G = gram_of_form(C1, (F(1),))
    assert G.matrix == ((F(1),),)

    A = build_algebra([y, x * x])
    C = annihilator_quotient(A, Polynomial.one(2))
    for a in (F(0), F(3), F(-2, 7)):
        G = gram_of_form(C, (a, F(1, 2)))
        assert G.matrix == ((a, F(1, 2)), (F(1, 2), F(0)))
        assert signature_of(G).signature == 0

    A3 = build_algebra([y, x ** 3])
    C3 = annihilator_quotient(A3, Polynomial.one(2))
    G = gram_of_form(C3, (F(0), F(0), F(1)))
    assert G.matrix == (
        (F(0), F(0), F(1)),
        (F(0), F(1), F(0)),
        (F(1), F(0), F(0)),
    )
    assert signature_of(G).signature == 1


def test_l_independence_on_annihilator_quotient():
    # fixed quotient C0 and trace coefficient: 20 admissible forms must give
    # one signature, with full rank every time
    d4 = build_algebra([x * x * y + y ** 3, x ** 4])
    C0 = annihilator_quotient(d4, x * x + 3 * y * y)
    c1 = 4 * x ** 3
    results = set()
    for seed in range(20):
        l, _ = choose_linear_form(C0, c1, seed=seed)
        s = signature_of(gram_of_form(C0, l))
        assert s.rank == C0.dim
        results.add(s.signature)
    assert len(results) == 1
